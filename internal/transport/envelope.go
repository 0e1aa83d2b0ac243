package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"skalla/internal/agg"
	"skalla/internal/engine"
	"skalla/internal/expr"
	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/relation"
)

// This file is the site protocol's envelope: the one layout every message
// between a coordinator and a site has (DESIGN.md §7), written by
// msgBuf.writeRequest / writeReply and read by readRequest / readReply.
// Integers are varints, strings are length-prefixed, and relations travel as
// the codec frames Frame returns, encoded in place in the message
// (relation.AppendFrame) or, for a shared frame, written as they are:
//
//	message   = uvarint(len(body)) body
//	request   = kind(hello) uvarint(version)
//	          | kind str(queryID) str(round) varint(attempt) payload
//	payload   = base: baseQuery | local: baseQuery uvarint(#ops) operator… varint(upTo) bool(witness)
//	          | operator: operator bool(guard) varint(blockRows) rel [derive]
//	          | schema: str(name) | load: str(name) rel | tables: —
//	reply     = kind(hello) uvarint(version) varint(siteID)
//	          | kind str(err) result trailer
//	result    = only when err is empty; base, local: rel | schema: schema
//	          | tables: uvarint(n) (str(name) varint(rows) varint(columns))…
//	trailer   = SiteBreakdown: 7 × int64 little-endian, EvalNS first, byte(kernel)
//	baseQuery = str(detail) strs(cols) expr(where) uvarint(#sets) strs(set)…
//	operator  = str(detail) uvarint(#vars) (uvarint(#aggs) agg… expr(cond))…
//	agg       = byte(func) str(arg) str(as)
//	expr      = 0x00 (none) | 0x01 byte(side) str(name) | 0x02 value
//	          | 0x03 byte(op) expr expr | 0x04 byte(op) expr
//	rel       = frame | 0x00 (none: no frame has length 0)
//	derive    = strs(keys) expr(where) uvarint(rows) bitmap
//	bitmap    = ⌈rows/8⌉ bytes, bit i of byte i/8 for reply row i; the bits past rows are 0
//
// An operator request carries a derive exactly when it has one
// (engine.Derive): whatever follows its rel is one, so a request without it
// is the one version 3 wrote. A local request carries only the operators it
// evaluates, Ops[:upTo] (clamped to the chain, so an out-of-range upTo still
// reaches the site and fails there). A reply's kind is its request's. The hello layout is the one
// no version may change: it is how two versions find out they differ. The
// trailer is fixed-width, so the bytes a call ships do not depend on how long
// it took.
// Decoding accepts exactly what encoding writes, so a message that decodes
// re-encodes to its own bytes.

// ProtocolVersion is the envelope's layout version. Hello carries it both
// ways, and a mismatch fails Dial naming both. The gob envelope before it had
// no version. Version 3 added the local request's witness byte and cut its
// operators to the prefix it evaluates. Version 4 added the operator
// request's derive. Version 5 added the codec's packed INT and prefix STRING
// column encodings, which a version 4 peer cannot read. Version 6 packs FLOAT
// columns and writes fixed-width digit suffixes as packed integers, and
// refuses the uniform columns a version 5 peer writes for them. Version 7
// drops the codec's mixed column form: every value is of its column's kind,
// and a frame holding a mixed column is refused.
const ProtocolVersion = 7

// ErrProtocol marks a message that does not decode, or a peer that speaks
// another protocol version.
var ErrProtocol = errors.New("transport: protocol mismatch")

// errUnknownKind marks a request of a kind this version does not serve. Its
// frame is whole, so the server answers it and the connection stays usable.
var errUnknownKind = errors.New("unknown request kind")

// Expression node tags.
const (
	tagNone byte = iota
	tagCol
	tagLit
	tagBin
	tagUn
)

// maxExprDepth bounds how deep a decoded expression nests, and so how deep
// decoding recurses.
const maxExprDepth = 1 << 12

// trailerSize is the width of a reply's telemetry trailer.
const trailerSize = 7*8 + 1

// envelopeError carries a failure out of the nested encode and decode
// helpers to the function that recovers it, as encoding/gob does.
type envelopeError struct{ error }

func check(err error) {
	if err != nil {
		panic(envelopeError{err})
	}
}

func must[T any](v T, err error) T {
	check(err)
	return v
}

// recoverError turns a panicked envelopeError into *err, wrapping decode
// failures (wrap set) as ErrProtocol.
func recoverError(err *error, wrap bool) {
	switch r := recover().(type) {
	case nil:
	case envelopeError:
		if *err = r.error; wrap {
			*err = fmt.Errorf("%w: %v", ErrProtocol, r.error)
		}
	default:
		panic(r)
	}
}

// msgBuf is the buffer one end of a connection lays out each message it
// writes in, kept across messages (relation.KeepBody). A relation the message
// carries is encoded in place (relation.AppendFrame), unless it shares a
// frame already encoded (relation.ShareFrame): those bytes are written as
// they are, between the body's parts before and after them, so a broadcast
// costs no copy per site. The length prefix goes into room kept in front of
// the body.
type msgBuf struct {
	body   []byte
	shared []byte // the shared frame the message carries, if any
	at     int    // where in body it goes
}

// room is the space kept in front of a message's body for its length prefix.
const room = binary.MaxVarintLen64

// start begins a message of kind in the kept buffer.
func (m *msgBuf) start(kind ReqKind) []byte {
	m.shared = nil
	return append(append(m.body[:0], make([]byte, room)...), byte(kind))
}

// appendRel appends what a message carries for rel: its frame, or a zero
// length, which no frame has, for none.
func (m *msgBuf) appendRel(b []byte, rel *relation.Relation) []byte {
	if rel == nil {
		return append(b, 0)
	}
	if f, ok, err := rel.SharedFrame(); ok {
		m.shared, m.at = must(f, err), len(b)
		return b
	}
	return must(relation.AppendFrame(b, rel))
}

// write writes the message b, begun by start, with its length prefix, and
// keeps b's buffer for the next message.
func (m *msgBuf) write(w io.Writer, b []byte) error {
	shared := m.shared
	m.body, m.shared = relation.KeepBody(b), nil // the frame stays its relation's
	var head [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(head[:], uint64(len(b)-room+len(shared)))
	copy(b[room-n:], head[:n])
	if shared == nil {
		_, err := w.Write(b[room-n:])
		return err
	}
	for _, part := range [...][]byte{b[room-n : m.at], shared, b[m.at:]} {
		if _, err := w.Write(part); err != nil {
			return err
		}
	}
	return nil
}

// writeRequest writes req as one message.
func (m *msgBuf) writeRequest(w io.Writer, req *Request) (err error) {
	defer recoverError(&err, false)
	b := m.start(req.Kind)
	if req.Kind == KindHello {
		return m.write(w, binary.AppendUvarint(b, uint64(req.Version)))
	}
	b = relation.AppendString(b, req.QueryID)
	b = relation.AppendString(b, req.Round)
	b = binary.AppendVarint(b, int64(req.Attempt))
	switch req.Kind {
	case KindBase:
		b = appendBaseQuery(b, req.Base)
	case KindOperator:
		b = appendOperator(b, &req.Operator.Op)
		b = append(b, boolByte(req.Operator.Guard))
		b = binary.AppendVarint(b, int64(req.Operator.BlockRows))
		b = m.appendRel(b, req.Operator.Base)
		if d := req.Operator.Derive; d != nil {
			b = appendExpr(appendStrs(b, d.Keys), d.Where)
			b = append(binary.AppendUvarint(b, uint64(d.Rows)), d.Kept...)
		}
	case KindLocal:
		ops := req.Local.Query.Ops[:min(max(req.Local.UpTo, 0), len(req.Local.Query.Ops))]
		b = appendBaseQuery(b, &req.Local.Query.Base)
		b = binary.AppendUvarint(b, uint64(len(ops)))
		for i := range ops {
			b = appendOperator(b, &ops[i])
		}
		b = binary.AppendVarint(b, int64(req.Local.UpTo))
		b = append(b, boolByte(req.Local.Witness))
	case KindSchema:
		b = relation.AppendString(b, req.Name)
	case KindLoad:
		b = m.appendRel(relation.AppendString(b, req.Name), req.LoadRel)
	}
	return m.write(w, b)
}

// writeReply writes resp as the reply to a request of kind.
func (m *msgBuf) writeReply(w io.Writer, kind ReqKind, resp *Response) (err error) {
	defer recoverError(&err, false)
	b := m.start(kind)
	if kind == KindHello {
		b = binary.AppendUvarint(b, uint64(resp.Version))
		return m.write(w, binary.AppendVarint(b, int64(resp.SiteID)))
	}
	b = relation.AppendString(b, resp.Err)
	switch {
	case resp.Err != "":
	case kind == KindBase || kind == KindLocal:
		b = m.appendRel(b, resp.Rel)
	case kind == KindSchema:
		b = relation.AppendSchema(b, resp.Schema)
	case kind == KindTables:
		b = binary.AppendUvarint(b, uint64(len(resp.Tables)))
		for _, t := range resp.Tables {
			b = relation.AppendString(b, t.Name)
			b = binary.AppendVarint(b, int64(t.Rows))
			b = binary.AppendVarint(b, int64(t.Columns))
		}
	}
	p := &resp.Profile
	for _, v := range [...]int64{p.EvalNS, p.RowsScanned, p.SegCacheReads, p.SegDiskReads, p.SegRowsLoaded, p.CodecBytes, p.Blocks} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return m.write(w, append(b, boolByte(p.Kernel)))
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

func appendStrs(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = relation.AppendString(b, s)
	}
	return b
}

func appendBaseQuery(b []byte, bq *gmdj.BaseQuery) []byte {
	b = appendExpr(appendStrs(relation.AppendString(b, bq.Detail), bq.Cols), bq.Where)
	b = binary.AppendUvarint(b, uint64(len(bq.GroupingSets)))
	for _, set := range bq.GroupingSets {
		b = appendStrs(b, set)
	}
	return b
}

func appendOperator(b []byte, op *gmdj.Operator) []byte {
	b = binary.AppendUvarint(relation.AppendString(b, op.Detail), uint64(len(op.Vars)))
	for _, v := range op.Vars {
		b = binary.AppendUvarint(b, uint64(len(v.Aggs)))
		for _, a := range v.Aggs {
			b = relation.AppendString(relation.AppendString(append(b, byte(a.Func)), a.Arg), a.As)
		}
		b = appendExpr(b, v.Cond)
	}
	return b
}

// appendExpr lays out e in prefix order, one tag byte per node.
func appendExpr(b []byte, e expr.Expr) []byte {
	switch n := e.(type) {
	case nil:
		return append(b, tagNone)
	case *expr.Col:
		return relation.AppendString(append(b, tagCol, byte(n.Side)), n.Name)
	case *expr.Lit:
		return relation.AppendValue(append(b, tagLit), n.Val)
	case *expr.Bin:
		return appendExpr(appendExpr(append(b, tagBin, byte(n.Op)), n.L), n.R)
	case *expr.Un:
		return appendExpr(append(b, tagUn, byte(n.Op)), n.X)
	}
	panic(envelopeError{fmt.Errorf("transport: cannot encode expression node %T", e)})
}

// readRequest reads one request. An operator request's X is decoded into
// slabs, reset first: the site reads it only while it serves the request. A
// Load relation, which the site keeps, is decoded on the heap. A request of
// a kind this version does not serve returns its kind and an error matching
// errUnknownKind.
func readRequest(f *relation.FrameReader, slabs *relation.Slabs) (req *Request, err error) {
	body, err := f.Next()
	if err != nil {
		return nil, err
	}
	slabs.Reset()
	defer recoverError(&err, true)
	c := relation.NewCursor(body)
	req = &Request{Kind: ReqKind(must(c.Byte()))}
	if req.Kind == KindHello {
		req.Version = readVersion(c)
		return req, done(c)
	}
	req.QueryID, req.Round, req.Attempt = must(c.Str()), must(c.Str()), readInt(c)
	switch req.Kind {
	case KindBase:
		req.Base = readBaseQuery(c)
	case KindOperator:
		req.Operator = &engine.OperatorRequest{Op: readOperator(c), Guard: readBool(c), BlockRows: readInt(c)}
		req.Operator.Base = must(c.Relation(slabs))
		if c.Len() > 0 {
			req.Operator.Derive = readDerive(c)
		}
	case KindLocal:
		req.Local = &engine.LocalRequest{Query: gmdj.Query{Base: *readBaseQuery(c)}}
		for n := readCount(c); len(req.Local.Query.Ops) < n; {
			req.Local.Query.Ops = append(req.Local.Query.Ops, readOperator(c))
		}
		req.Local.UpTo, req.Local.Witness = readInt(c), readBool(c)
	case KindSchema:
		req.Name = must(c.Str())
	case KindLoad:
		req.Name, req.LoadRel = must(c.Str()), must(c.Relation(nil))
	case KindTables:
	default:
		return req, fmt.Errorf("transport: %w %d", errUnknownKind, req.Kind)
	}
	return req, done(c)
}

// readReply reads the reply to a request of kind, a relation it carries
// decoded into slabs (nil: the heap).
func readReply(f *relation.FrameReader, kind ReqKind, slabs *relation.Slabs) (resp *Response, err error) {
	body, err := f.Next()
	if err != nil {
		return nil, err
	}
	defer recoverError(&err, true)
	c := relation.NewCursor(body)
	if got := ReqKind(must(c.Byte())); got != kind {
		check(fmt.Errorf("%s reply to a %s request", kindName(got), kindName(kind)))
	}
	resp = &Response{}
	if kind == KindHello {
		if resp.Version = readVersion(c); resp.Version != ProtocolVersion {
			return resp, versionError(resp.Version)
		}
		resp.SiteID = readInt(c)
		return resp, done(c)
	}
	if resp.Err = must(c.Str()); resp.Err == "" {
		switch kind {
		case KindBase, KindLocal:
			resp.Rel = must(c.Relation(slabs))
		case KindSchema:
			resp.Schema = must(c.Schema())
		case KindTables:
			for n := readCount(c); len(resp.Tables) < n; {
				resp.Tables = append(resp.Tables, engine.TableInfo{Name: must(c.Str()), Rows: readInt(c), Columns: readInt(c)})
			}
		}
	}
	tail := must(c.Bytes(trailerSize))
	var v [7]int64
	for i := range v {
		v[i] = int64(binary.LittleEndian.Uint64(tail[8*i:]))
	}
	resp.Profile = obs.SiteBreakdown{EvalNS: v[0], RowsScanned: v[1], SegCacheReads: v[2], SegDiskReads: v[3],
		SegRowsLoaded: v[4], CodecBytes: v[5], Blocks: v[6], Kernel: byteBool(tail[trailerSize-1])}
	return resp, done(c)
}

// versionError reports a peer speaking protocol version v.
func versionError(v int) error {
	return fmt.Errorf("%w: peer speaks protocol version %d, this build speaks version %d", ErrProtocol, v, ProtocolVersion)
}

// done checks that the body was read to its end.
func done(c *relation.Cursor) error {
	if c.Len() != 0 {
		check(fmt.Errorf("%d trailing bytes", c.Len()))
	}
	return nil
}

func readInt(c *relation.Cursor) int { return int(must(c.Varint())) }

func readVersion(c *relation.Cursor) int { return must(c.Count(math.MaxInt32, "version")) }

// readCount reads a list length: every element spends at least one byte, so
// the bytes left bound it before anything is allocated for it.
func readCount(c *relation.Cursor) int { return must(c.Count(c.Len(), "list")) }

func readBool(c *relation.Cursor) bool { return byteBool(must(c.Byte())) }

// byteBool reads a bool byte, which is 0 or 1.
func byteBool(b byte) bool {
	if b > 1 {
		check(fmt.Errorf("bool byte %d", b))
	}
	return b == 1
}

func readStrs(c *relation.Cursor) []string {
	var ss []string
	for n := readCount(c); len(ss) < n; {
		ss = append(ss, must(c.Str()))
	}
	return ss
}

func readBaseQuery(c *relation.Cursor) *gmdj.BaseQuery {
	bq := &gmdj.BaseQuery{Detail: must(c.Str()), Cols: readStrs(c), Where: readExpr(c, 0)}
	for n := readCount(c); len(bq.GroupingSets) < n; {
		bq.GroupingSets = append(bq.GroupingSets, readStrs(c))
	}
	return bq
}

// readDerive reads a derive: its bitmap is as long as its row count says,
// bounded by the bytes left, and sets no bit past the rows.
func readDerive(c *relation.Cursor) *engine.Derive {
	d := &engine.Derive{Keys: readStrs(c), Where: readExpr(c, 0)}
	d.Rows = must(c.Count(8*c.Len(), "derived row"))
	d.Kept = slices.Clone(must(c.Bytes((d.Rows + 7) / 8)))
	if r := d.Rows % 8; r != 0 && d.Kept[len(d.Kept)-1]>>r != 0 {
		check(fmt.Errorf("derive bitmap sets bits past its %d rows", d.Rows))
	}
	return d
}

func readOperator(c *relation.Cursor) gmdj.Operator {
	op := gmdj.Operator{Detail: must(c.Str())}
	for n := readCount(c); len(op.Vars) < n; {
		var v gmdj.GroupVar
		for m := readCount(c); len(v.Aggs) < m; {
			a := agg.Spec{Func: agg.Func(must(c.Byte())), Arg: must(c.Str()), As: must(c.Str())}
			if a.Func > agg.StdDev {
				check(fmt.Errorf("aggregate function %d", a.Func))
			}
			v.Aggs = append(v.Aggs, a)
		}
		v.Cond = readExpr(c, 0)
		op.Vars = append(op.Vars, v)
	}
	return op
}

func readExpr(c *relation.Cursor, depth int) expr.Expr {
	if depth == maxExprDepth {
		check(fmt.Errorf("expression nests deeper than %d", maxExprDepth))
	}
	switch tag := must(c.Byte()); tag {
	case tagNone:
		return nil
	case tagCol:
		col := &expr.Col{Side: expr.Side(must(c.Byte())), Name: must(c.Str()), Idx: -1}
		if col.Side > expr.SideDetail {
			check(fmt.Errorf("column side %d", col.Side))
		}
		return col
	case tagLit:
		return &expr.Lit{Val: must(c.Value())}
	case tagBin:
		b := &expr.Bin{Op: expr.Op(must(c.Byte())), L: readExpr(c, depth+1), R: readExpr(c, depth+1)}
		if b.Op < expr.OpAdd || b.Op > expr.OpOr || b.L == nil || b.R == nil {
			check(fmt.Errorf("malformed binary node %s", b.Op))
		}
		return b
	case tagUn:
		u := &expr.Un{Op: expr.Op(must(c.Byte())), X: readExpr(c, depth+1)}
		if u.Op < expr.OpNot || u.Op > expr.OpIsNotNull || u.X == nil {
			check(fmt.Errorf("malformed unary node %s", u.Op))
		}
		return u
	default:
		panic(envelopeError{fmt.Errorf("expression tag %d", tag)})
	}
}
