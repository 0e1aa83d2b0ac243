package relation

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sync"

	"skalla/internal/obs"
)

// This file implements the Skalla wire format: a hand-rolled, length-prefixed,
// column-major binary codec for relations, used on every data path (site
// messages, partition files, disk segments), because the bytes shipped per
// group are the primary cost of distributed query processing (Theorem 2).
// Its primitives — the FrameReader, the Cursor, strings, values and schemas —
// are exported for the site protocol's envelope (internal/transport), which
// frames its messages the same way.
//
// Stream layout: a stream is a sequence of frames, each a uvarint body length
// followed by the body. A body starts with a frame kind byte:
//
//	frameInline — the relation's schema follows inline, then the rows
//	frameCached — the rows reuse the stream's previously sent schema
//
// An Encoder sends the schema once and switches to frameCached while the
// schema is unchanged, so a stream of H_i blocks pays for its schema exactly
// once. Rows are encoded column-major: per column a NULL bitmap (bit set =
// NULL), then an encoding byte (uniform/mixed), then the non-NULL values —
// zigzag varints for INT, raw little-endian bits for FLOAT, length-prefixed
// bytes for STRING, and packed bits for BOOL. The mixed fallback tags each
// value with its kind, preserving exact round-trips for columns whose dynamic
// value kinds disagree with the declared column kind.

const (
	frameInline = 0x01
	frameCached = 0x02

	// maxFrameBody bounds a single frame (1 GiB) so a corrupt length prefix
	// cannot drive an unbounded allocation.
	maxFrameBody = 1 << 30

	// trustedBody is how much of a frame's declared length the decoder
	// allocates before the bytes arrive; past it the buffer grows with the
	// data, so a length prefix alone cannot allocate up to maxFrameBody.
	trustedBody = 1 << 20
)

// MaxEmptyRows bounds the row count of a frame without columns, whose rows
// occupy no bytes the decoder could check the count against.
const MaxEmptyRows = 1 << 16

// ErrFrameLength reports a frame length prefix that is past maxFrameBody or
// not minimally encoded.
var ErrFrameLength = errors.New("relation: bad codec frame length")

const (
	encUniform = 0x00
	encMixed   = 0x01
)

// ByteScanner is the reader a Decoder consumes: bytes.Buffer, bytes.Reader
// and bufio.Reader all satisfy it, which lets a Decoder share a buffered
// connection reader with other protocol layers without read-ahead conflicts.
type ByteScanner interface {
	io.Reader
	io.ByteReader
}

// Encoder writes relations in the Skalla wire format. The schema is emitted
// inline on the first frame and whenever it changes; in between, frames carry
// only row data. The zero-allocation steady state reuses one scratch body,
// kept across frames and across streams (Reset) up to trustedBody of it, so
// a connection that once sent a huge block does not hold its buffer.
type Encoder struct {
	w         io.Writer
	schema    Schema
	hasSchema bool
	body      []byte
	bytes     int64
	lenBuf    [binary.MaxVarintLen64]byte
}

// NewEncoder creates an encoder writing to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// Reset starts a new stream on the encoder's writer: the next frame carries
// its schema inline again and Bytes counts from zero, so the stream's frames
// are the bytes a fresh Encoder writes. The body buffer is kept.
func (e *Encoder) Reset() {
	e.schema, e.hasSchema, e.bytes = nil, false, 0
}

// Bytes returns the total bytes this encoder has written (frame headers
// included) — the per-stream counterpart of the process-wide
// CodecEncodeBytes counter, used for per-query codec accounting.
func (e *Encoder) Bytes() int64 { return e.bytes }

// Encode writes one relation frame.
func (e *Encoder) Encode(r *Relation) error {
	if err := checkArity(r); err != nil {
		return err
	}
	body := e.body[:0]
	if e.hasSchema && e.schema.Equal(r.Schema) {
		body = append(body, frameCached)
	} else {
		body = append(body, frameInline)
		body = AppendSchema(body, r.Schema)
		e.schema = r.Schema.Clone() // callers may mutate their schema later
		e.hasSchema = true
	}
	body = appendVectors(body, r.cols)
	e.body = keepBody(body)
	n := binary.PutUvarint(e.lenBuf[:], uint64(len(body)))
	if _, err := e.w.Write(e.lenBuf[:n]); err != nil {
		return err
	}
	if _, err := e.w.Write(body); err != nil {
		return err
	}
	e.bytes += int64(n + len(body))
	obs.CodecEncodeBytes.Add(int64(n + len(body)))
	obs.CodecFrames.With("encode").Inc()
	return nil
}

// checkArity refuses a relation whose vectors disagree with its schema, which
// the column-major encoding would index out of range on.
func checkArity(r *Relation) error {
	c := r.cols
	if len(c.Vecs) != len(r.Schema) {
		return fmt.Errorf("relation: vector arity %d does not match schema %s", len(c.Vecs), r.Schema)
	}
	for j, col := range r.Schema {
		if c.Vecs[j].Kind != col.Kind {
			return fmt.Errorf("relation: vector %d is not a %s vector", j, col.Kind)
		}
	}
	return nil
}

// AppendSchema appends s as a frame carries it inline.
func AppendSchema(body []byte, s Schema) []byte {
	body = binary.AppendUvarint(body, uint64(len(s)))
	for _, c := range s {
		body = AppendString(body, c.Name)
		body = append(body, byte(c.Kind))
	}
	return body
}

var zeroBytes [256]byte

func appendZeros(body []byte, n int) []byte {
	for n > len(zeroBytes) {
		body = append(body, zeroBytes[:]...)
		n -= len(zeroBytes)
	}
	return append(body, zeroBytes[:n]...)
}

// appendBoxed appends a boxed column of cells, declared kind: its NULL
// bitmap, then its values uniform when every one is of that kind (packed bits
// for BOOL), else mixed, each tagged with its kind.
func appendBoxed(body []byte, vals []Value, kind Kind) []byte {
	bitmap := len(body)
	body = appendZeros(body, (len(vals)+7)/8)
	nonNull := 0
	uniform := true
	for i, v := range vals {
		if v.IsNull() {
			body[bitmap+i/8] |= 1 << (i % 8)
		} else {
			nonNull++
			if v.Kind != kind {
				uniform = false
			}
		}
	}
	if !uniform {
		body = append(body, encMixed)
		for _, v := range vals {
			if !v.IsNull() {
				body = AppendValue(body, v)
			}
		}
		return body
	}
	body = append(body, encUniform)
	switch kind {
	case KindNull:
		// All values are NULL (a non-NULL value always has a non-NULL kind).
	case KindInt:
		for _, v := range vals {
			if !v.IsNull() {
				body = binary.AppendVarint(body, v.Int)
			}
		}
	case KindFloat:
		for _, v := range vals {
			if !v.IsNull() {
				body = binary.LittleEndian.AppendUint64(body, math.Float64bits(v.Float))
			}
		}
	case KindString:
		for _, v := range vals {
			if !v.IsNull() {
				body = AppendString(body, v.Str)
			}
		}
	case KindBool:
		packed := len(body)
		body = appendZeros(body, (nonNull+7)/8)
		k := 0
		for _, v := range vals {
			if !v.IsNull() {
				if v.Int != 0 {
					body[packed+k/8] |= 1 << (k % 8)
				}
				k++
			}
		}
	}
	return body
}

// appendVectors appends a frame's rows, column-major: a typed vector is a
// uniform column, and a boxed one is written cell by cell (appendBoxed).
func appendVectors(body []byte, c *Columns) []byte {
	n := c.Rows
	body = binary.AppendUvarint(body, uint64(n))
	nb := (n + 7) / 8
	for j := range c.Vecs {
		v := &c.Vecs[j]
		if v.Boxed {
			body = appendBoxed(body, v.Vals, v.Kind)
			continue
		}
		if v.Nulls == nil {
			body = appendZeros(body, nb)
		} else {
			for k := 0; k < nb; k++ {
				body = append(body, byte(v.Nulls[k>>3]>>(8*(k&7))))
			}
		}
		body = append(body, encUniform)
		switch v.Kind {
		case KindInt:
			for i, x := range v.Ints {
				if !v.Null(i) {
					body = binary.AppendVarint(body, x)
				}
			}
		case KindFloat:
			for i, x := range v.Floats {
				if !v.Null(i) {
					body = binary.LittleEndian.AppendUint64(body, math.Float64bits(x))
				}
			}
		case KindString:
			for i, code := range v.Codes {
				if !v.Null(i) {
					s := v.Dict[code]
					body = binary.AppendUvarint(body, uint64(len(s)))
					body = append(body, s...)
				}
			}
		}
	}
	return body
}

// Decoder reads relations written by an Encoder, caching the stream schema
// across frames and reading every frame body into one reused buffer. Frames
// decode as Unmarshal decodes them, into vectors. Nothing decoded points into
// the buffer.
type Decoder struct {
	frames    FrameReader
	schema    Schema
	hasSchema bool
}

// NewDecoder creates a decoder reading from r.
func NewDecoder(r ByteScanner) *Decoder { return &Decoder{frames: FrameReader{r: r}} }

// Reset starts a new stream on the decoder's reader: a frame that reuses a
// schema before one was sent inline is refused again, as a fresh Decoder
// refuses it. The body buffer is kept.
func (d *Decoder) Reset() {
	d.schema, d.hasSchema = nil, false
}

// Decode reads one relation frame. It returns io.EOF (possibly wrapped as
// io.ErrUnexpectedEOF mid-frame) when the stream ends.
func (d *Decoder) Decode() (*Relation, error) {
	body, err := d.frames.Next()
	if err != nil {
		return nil, err
	}
	return d.decodeFrame(body)
}

// FrameReader reads length-prefixed frames — a uvarint body length, then the
// body — into one reused buffer, kept up to trustedBody of it. The relation
// codec's frames and the site protocol's messages are both read through it,
// under one bound.
type FrameReader struct {
	r    ByteScanner
	body []byte
}

// NewFrameReader creates a frame reader over r.
func NewFrameReader(r ByteScanner) *FrameReader { return &FrameReader{r: r} }

// Next reads one frame and returns its body, valid until the next call. It
// returns io.EOF when the stream ends between frames.
func (f *FrameReader) Next() ([]byte, error) {
	var ln uint64
	for shift := 0; ; shift += 7 {
		b, err := f.r.ReadByte()
		switch {
		case err == io.EOF && shift > 0:
			return nil, io.ErrUnexpectedEOF
		case err != nil:
			return nil, err
		case b == 0 && shift > 0:
			return nil, fmt.Errorf("%w: not minimally encoded", ErrFrameLength)
		}
		if ln |= uint64(b&0x7f) << shift; ln > maxFrameBody {
			return nil, fmt.Errorf("%w: %d bytes or more exceeds the limit", ErrFrameLength, ln)
		}
		if b < 0x80 {
			return f.readBody(int(ln))
		}
	}
}

// decodeFrame decodes one frame body into vectors, read in place from body.
func (d *Decoder) decodeFrame(body []byte) (*Relation, error) {
	cur := &Cursor{b: body}
	kind, err := cur.Byte()
	if err != nil {
		return nil, err
	}
	switch kind {
	case frameInline:
		schema, err := cur.Schema()
		if err != nil {
			return nil, err
		}
		if err := schema.Validate(); err != nil {
			return nil, err
		}
		d.schema, d.hasSchema = schema, true
	case frameCached:
		if !d.hasSchema {
			return nil, fmt.Errorf("relation: codec frame references schema before one was sent")
		}
	default:
		return nil, fmt.Errorf("relation: unknown codec frame kind 0x%02x", kind)
	}
	c, err := readVectors(cur, d.schema)
	if err != nil {
		return nil, err
	}
	if cur.pos != len(cur.b) {
		return nil, fmt.Errorf("relation: codec frame has %d trailing bytes", len(cur.b)-cur.pos)
	}
	obs.CodecDecodeBytes.Add(int64(uvarintLen(uint64(len(body)))) + int64(len(body)))
	obs.CodecFrames.With("decode").Inc()
	return FromColumns(d.schema, c), nil
}

// readBody reads an n-byte frame body into the reader's reused buffer,
// growing it past trustedBody only by bytes that have arrived: a stream that
// ends early fails with io.ErrUnexpectedEOF having allocated about what it
// sent.
func (f *FrameReader) readBody(n int) ([]byte, error) {
	body := f.body[:0]
	for len(body) < n {
		if len(body) == cap(body) {
			body = slices.Grow(body, min(n, max(2*len(body), trustedBody))-len(body))
		}
		got, err := io.ReadFull(f.r, body[len(body):min(n, cap(body))])
		body = body[:len(body)+got]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	f.body = keepBody(body)
	return body, nil
}

// keepBody is what a reused frame buffer keeps of body for the next frame:
// its capacity, up to trustedBody of it. A larger one is dropped, so one huge
// frame does not pin its buffer for the rest of the stream or connection.
func keepBody(body []byte) []byte {
	if cap(body) > trustedBody {
		return nil
	}
	return body[:0]
}

// uvarintLen is the encoded size of v as a uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// Cursor is a bounds-checked reader over a frame body. It accepts only the
// minimal encoding of every varint (one whose last byte is not a zero
// continuation), so a body that decodes re-encodes to the same bytes; its
// counts are capped before anything is allocated for them.
type Cursor struct {
	b   []byte
	pos int
}

// NewCursor returns a cursor at the start of b.
func NewCursor(b []byte) *Cursor { return &Cursor{b: b} }

// Len is the number of bytes left.
func (c *Cursor) Len() int { return len(c.b) - c.pos }

var errShortFrame = fmt.Errorf("relation: truncated codec frame")

var errOverlongVarint = fmt.Errorf("relation: codec varint not minimally encoded")

// Byte reads one byte.
func (c *Cursor) Byte() (byte, error) {
	if c.pos >= len(c.b) {
		return 0, errShortFrame
	}
	v := c.b[c.pos]
	c.pos++
	return v, nil
}

// Uvarint reads an unsigned varint.
func (c *Cursor) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.pos:])
	if n <= 0 {
		return 0, errShortFrame
	}
	if n > 1 && c.b[c.pos+n-1] == 0 {
		return 0, errOverlongVarint
	}
	c.pos += n
	return v, nil
}

// Varint reads a zigzag-encoded signed varint.
func (c *Cursor) Varint() (int64, error) {
	v, n := binary.Varint(c.b[c.pos:])
	if n <= 0 {
		return 0, errShortFrame
	}
	if n > 1 && c.b[c.pos+n-1] == 0 {
		return 0, errOverlongVarint
	}
	c.pos += n
	return v, nil
}

// Bytes reads the next n bytes in place.
func (c *Cursor) Bytes(n int) ([]byte, error) {
	if n < 0 || c.pos+n > len(c.b) {
		return nil, errShortFrame
	}
	v := c.b[c.pos : c.pos+n]
	c.pos += n
	return v, nil
}

// Count reads a uvarint count and refuses one above limit.
func (c *Cursor) Count(limit int, what string) (int, error) {
	v, err := c.Uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(limit) {
		return 0, fmt.Errorf("relation: codec %s count %d exceeds limit %d", what, v, limit)
	}
	return int(v), nil
}

// AppendString appends s length-prefixed, as the codec writes STRING values.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// String reads a string written by AppendString.
func (c *Cursor) Str() (string, error) {
	n, err := c.Count(c.Len(), "string length")
	if err != nil {
		return "", err
	}
	raw, err := c.Bytes(n)
	return string(raw), err
}

// AppendValue appends v tagged with its kind, as a mixed column writes each
// value; a NULL is its tag alone.
func AppendValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.Kind))
	switch v.Kind {
	case KindInt, KindBool:
		dst = binary.AppendVarint(dst, v.Int)
	case KindFloat:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float))
	case KindString:
		dst = AppendString(dst, v.Str)
	}
	return dst
}

// Value reads a value written by AppendValue.
func (c *Cursor) Value() (Value, error) {
	kind, err := c.Byte()
	if err != nil {
		return Null, err
	}
	switch Kind(kind) {
	case KindNull:
		return Null, nil
	case KindInt, KindBool:
		v, err := c.Varint()
		return Value{Kind: Kind(kind), Int: v}, err
	case KindFloat:
		raw, err := c.Bytes(8)
		if err != nil {
			return Null, err
		}
		return Value{Kind: KindFloat, Float: math.Float64frombits(binary.LittleEndian.Uint64(raw))}, nil
	case KindString:
		s, err := c.Str()
		return Value{Kind: KindString, Str: s}, err
	}
	return Null, fmt.Errorf("relation: codec value with invalid kind %d", kind)
}

// Relation reads one self-contained relation frame, as Unmarshal does. A
// zero length, which no frame has, reads as no relation.
func (c *Cursor) Relation() (*Relation, error) {
	start := c.pos
	n, err := c.Count(min(maxFrameBody, c.Len()), "frame length")
	if err != nil || n == 0 {
		return nil, err
	}
	if _, err := c.Bytes(n); err != nil {
		return nil, err
	}
	return Unmarshal(c.b[start:c.pos])
}

// Schema reads a schema written by AppendSchema.
func (c *Cursor) Schema() (Schema, error) {
	// A column spends at least a name length and a kind byte, so the bytes
	// left bound the count before the schema is allocated.
	ncols, err := c.Count(min(1<<20, c.Len()/2), "column")
	if err != nil {
		return nil, err
	}
	schema := make(Schema, ncols)
	for i := range schema {
		name, err := c.Str()
		if err != nil {
			return nil, err
		}
		kind, err := c.Byte()
		if err != nil {
			return nil, err
		}
		if Kind(kind) > KindBool {
			return nil, fmt.Errorf("relation: codec schema column %d has unknown kind %d", i, kind)
		}
		schema[i] = Column{Name: name, Kind: Kind(kind)}
	}
	return schema, nil
}

// frameRows reads a frame's row count, refusing one the frame cannot hold
// before anything is allocated for it: every column spends a NULL-bitmap bit
// per row and an encoding byte.
func frameRows(cur *Cursor, cols int) (int, error) {
	nrows, err := cur.Count(maxFrameBody, "row")
	if err != nil {
		return 0, err
	}
	if cols == 0 && nrows > MaxEmptyRows || cols > 0 && ((nrows+7)/8+1)*cols > len(cur.b)-cur.pos {
		return 0, fmt.Errorf("relation: codec frame of %d bytes cannot hold %d rows of %d columns", len(cur.b), nrows, cols)
	}
	return nrows, nil
}

// readVectors decodes a frame's rows into vectors, reading every value in
// place from the frame: a uniform INT, FLOAT, STRING or NULL column into a
// typed vector, whose STRING bytes become one string its values are
// substrings of, and a BOOL or mixed column into a boxed one.
func readVectors(cur *Cursor, schema Schema) (*Columns, error) {
	nrows, err := frameRows(cur, len(schema))
	if err != nil {
		return nil, err
	}
	c := &Columns{Rows: nrows, Vecs: make([]Vector, len(schema))}
	nb := (nrows + 7) / 8
	for j, col := range schema {
		bitmap, err := readBitmap(cur, nrows, nb)
		if err != nil {
			return nil, err
		}
		enc, err := cur.Byte()
		if err != nil {
			return nil, err
		}
		if enc != encUniform && enc != encMixed {
			return nil, fmt.Errorf("relation: unknown codec column encoding 0x%02x", enc)
		}
		v := &c.Vecs[j]
		v.Kind = col.Kind
		if err := readVector(cur, v, nrows, bitmap, enc == encMixed); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// readVector decodes one column of n rows into v, whose Kind is set.
func readVector(cur *Cursor, v *Vector, n int, bitmap []byte, mixed bool) error {
	nonNull := n
	for k, b := range bitmap {
		if b == 0 {
			continue
		}
		if v.Nulls == nil {
			v.Nulls = make([]uint64, (n+63)/64)
		}
		v.Nulls[k>>3] |= uint64(b) << (8 * (k & 7))
		nonNull -= bits.OnesCount8(b)
	}
	if mixed || v.Kind == KindBool {
		return readBoxed(cur, v, n, nonNull, mixed)
	}
	switch v.Kind {
	case KindNull:
		if nonNull != 0 {
			return errNullColumnValue
		}
	case KindInt:
		v.Ints = make([]int64, n)
		for i := range v.Ints {
			if v.Null(i) {
				continue
			}
			x, err := cur.Varint()
			if err != nil {
				return err
			}
			v.Ints[i] = x
		}
	case KindFloat:
		raw, err := cur.Bytes(8 * nonNull)
		if err != nil {
			return err
		}
		v.Floats = make([]float64, n)
		for i := range v.Floats {
			if !v.Null(i) {
				v.Floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw))
				raw = raw[8:]
			}
		}
	case KindString:
		next, err := readStrings(cur, nonNull)
		if err != nil {
			return err
		}
		v.Dict = make([]string, nonNull)
		v.Codes = make([]uint32, n)
		k := 0
		for i := range v.Codes {
			if !v.Null(i) {
				v.Dict[k], v.Codes[i] = next(), uint32(k)
				k++
			}
		}
	}
	return nil
}

// readBoxed decodes the nonNull values of a packed BOOL or a mixed column
// into v's cells. Marshal writes a column mixed only when it holds a value of
// another kind than its declared one, so a mixed column that does not is
// refused, as is a NULL tag among its values.
func readBoxed(cur *Cursor, v *Vector, n, nonNull int, mixed bool) error {
	var packed []byte
	if !mixed {
		var err error
		if packed, err = readBitmap(cur, nonNull, (nonNull+7)/8); err != nil {
			return err
		}
	}
	v.Boxed, v.Vals = true, make([]Value, n)
	offKind, k := false, 0
	for i := range v.Vals {
		switch {
		case v.Null(i):
			continue
		case !mixed:
			v.Vals[i] = NewBool(packed[k/8]&(1<<(k%8)) != 0)
			k++
			continue
		}
		val, err := cur.Value()
		if err != nil {
			return err
		}
		if val.IsNull() {
			return fmt.Errorf("relation: codec mixed value with invalid kind %d", KindNull)
		}
		v.Vals[i] = val
		offKind = offKind || val.Kind != v.Kind
	}
	if mixed && !offKind {
		return fmt.Errorf("relation: codec mixed column holds only %s values", v.Kind)
	}
	return nil
}

// readStrings reads n length-prefixed strings with one allocation: every
// length prefix is bounds-checked first, the byte range becomes one string,
// and each call of next returns the following value, a substring of it past
// its prefix. A value therefore keeps its whole column alive, which is what a
// decoded relation does with its rows anyway.
func readStrings(cur *Cursor, n int) (next func() string, err error) {
	start := cur.pos
	for k := 0; k < n; k++ {
		ln, err := cur.Count(maxFrameBody, "string length")
		if err != nil {
			return nil, err
		}
		if _, err := cur.Bytes(ln); err != nil {
			return nil, err
		}
	}
	raw := cur.b[start:cur.pos]
	col, off := string(raw), 0
	return func() string {
		ln, w := binary.Uvarint(raw[off:])
		off += w + int(ln)
		return col[off-int(ln) : off]
	}, nil
}

var (
	errPaddingBits     = fmt.Errorf("relation: codec bitmap has bits set past its last row")
	errNullColumnValue = fmt.Errorf("relation: codec NULL column has a non-NULL row")
)

// readBitmap reads an n-row bitmap of nb bytes, whose padding bits past the
// last row Marshal leaves zero.
func readBitmap(cur *Cursor, n, nb int) ([]byte, error) {
	bitmap, err := cur.Bytes(nb)
	if err == nil && n%8 != 0 && bitmap[nb-1]>>(n%8) != 0 {
		err = errPaddingBits
	}
	return bitmap, err
}

// Marshal encodes a relation as one self-contained frame (schema inline): the
// bytes a fresh Encoder writes, appended into one slice sized for them
// beforehand.
func Marshal(r *Relation) ([]byte, error) {
	if err := checkArity(r); err != nil {
		return nil, err
	}
	// The length prefix is written last, right-aligned in the room kept for
	// it in front of the body.
	const room = binary.MaxVarintLen64
	buf := make([]byte, room, room+1+schemaSize(r.Schema)+vectorsSize(r.cols))
	buf = append(buf, frameInline)
	buf = AppendSchema(buf, r.Schema)
	buf = appendVectors(buf, r.cols)
	body := uint64(len(buf) - room)
	start := room - uvarintLen(body)
	binary.PutUvarint(buf[start:], body)
	obs.CodecEncodeBytes.Add(int64(len(buf) - start))
	obs.CodecFrames.With("encode").Inc()
	return buf[start:], nil
}

// schemaSize is the number of bytes appendSchema appends.
func schemaSize(s Schema) int {
	n := uvarintLen(uint64(len(s)))
	for _, c := range s {
		n += uvarintLen(uint64(len(c.Name))) + len(c.Name) + 1
	}
	return n
}

// boxedSize is the number of bytes appendBoxed appends.
func boxedSize(vals []Value, kind Kind) int {
	size := (len(vals)+7)/8 + 1
	nonNull, payload, uniform := 0, 0, true
	for i := range vals {
		v := &vals[i]
		switch v.Kind {
		case KindNull:
			continue
		case KindInt, KindBool:
			payload += uvarintLen(uint64(v.Int)<<1 ^ uint64(v.Int>>63))
		case KindFloat:
			payload += 8
		case KindString:
			payload += uvarintLen(uint64(len(v.Str))) + len(v.Str)
		}
		nonNull++
		if v.Kind != kind {
			uniform = false
		}
	}
	switch {
	case !uniform:
		return size + nonNull + payload // a kind byte per value
	case kind == KindBool:
		return size + (nonNull+7)/8
	}
	return size + payload
}

// vectorsSize is the number of bytes appendVectors appends.
func vectorsSize(c *Columns) int {
	size := uvarintLen(uint64(c.Rows))
	for j := range c.Vecs {
		v := &c.Vecs[j]
		if v.Boxed {
			size += boxedSize(v.Vals, v.Kind)
			continue
		}
		size += (c.Rows+7)/8 + 1
		for i := 0; i < c.Rows; i++ {
			if v.Null(i) {
				continue
			}
			switch v.Kind {
			case KindInt:
				x := v.Ints[i]
				size += uvarintLen(uint64(x)<<1 ^ uint64(x>>63))
			case KindFloat:
				size += 8
			case KindString:
				n := len(v.Dict[v.Codes[i]])
				size += uvarintLen(uint64(n)) + n
			}
		}
	}
	return size
}

// Unmarshal decodes a relation from a single self-contained frame, reading it
// in place from b: nothing of b is copied but the bytes of STRING values, and
// b may be reused once Unmarshal returns. A uniform INT, FLOAT, STRING or
// NULL column decodes to a typed vector, a mixed or BOOL one to a boxed one.
func Unmarshal(b []byte) (*Relation, error) {
	ln, n := binary.Uvarint(b)
	switch {
	case n == 0 && len(b) == 0:
		return nil, io.EOF
	case n == 0:
		return nil, io.ErrUnexpectedEOF
	case n < 0:
		return nil, fmt.Errorf("relation: codec frame length overflows 64 bits")
	case ln > maxFrameBody:
		return nil, fmt.Errorf("%w: %d bytes exceeds the limit", ErrFrameLength, ln)
	case uint64(len(b)-n) < ln:
		return nil, io.ErrUnexpectedEOF
	case uint64(len(b)-n) > ln:
		return nil, fmt.Errorf("relation: %d trailing bytes after codec frame", uint64(len(b)-n)-ln)
	}
	var d Decoder
	return d.decodeFrame(b[n:])
}

// Frame returns r's wire frame: the bytes a fresh Encoder writes for r, that
// is Marshal(r). A relation declared finished by ShareFrame, and every View of
// it that still holds exactly its rows, returns one frame marshalled by the
// first caller; the bytes are shared and must not be modified.
func (r *Relation) Frame() ([]byte, error) {
	if f := r.frame; f != nil && f.describes(r) {
		f.once.Do(func() { f.b, f.err = Marshal(r) })
		return f.b, f.err
	}
	return Marshal(r)
}

// sharedFrame is a finished relation's wire frame, marshalled by whichever
// consumer needs it first. schema, cols and rows are what it is cut from.
type sharedFrame struct {
	once   sync.Once
	schema Schema
	cols   *Columns
	rows   int
	b      []byte
	err    error
}

// describes reports whether r still holds exactly the schema and body the
// frame is cut from: the same schema slice at the same length, the same
// vectors at the same length. A header that re-sliced or reassigned either
// (KeepRows, Sort) gets a fresh Marshal instead.
func (f *sharedFrame) describes(r *Relation) bool {
	return sameSlice(f.schema, r.Schema) && f.cols == r.cols && f.rows == r.cols.Rows
}

func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// ShareFrame declares r finished: from here on every consumer of its frame —
// one site request per site of a broadcast, one per retry, one reply per
// session served from a shared result — ships the same bytes, encoded once by
// the first. Nobody may change r's schema or rows afterwards.
func (r *Relation) ShareFrame() {
	r.frame = &sharedFrame{schema: r.Schema, cols: r.cols, rows: r.cols.Rows}
}

// View returns a new header over r's schema and vectors. A consumer may
// reorder or cut the view's rows (KeepRows, Sort) without affecting r or any
// other view, but the vectors themselves are r's and must not be written
// (Append, Union). The view shares r's frame while it holds exactly r's rows.
func (r *Relation) View() *Relation {
	return &Relation{Schema: r.Schema, cols: r.cols, frame: r.frame}
}
