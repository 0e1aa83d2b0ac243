package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"skalla/internal/agg"
	"skalla/internal/engine"
	"skalla/internal/expr"
	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/relation"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/envelope.golden from the current encoder")

const envelopeGolden = "testdata/envelope.golden"

// goldenMessage is one fixed message: a request, or the reply to a request
// of kind.
type goldenMessage struct {
	name string
	req  *Request
	kind ReqKind
	resp *Response
}

func (m goldenMessage) encode() ([]byte, error) {
	var buf bytes.Buffer
	if m.req != nil {
		err := writeRequest(&buf, m.req)
		return buf.Bytes(), err
	}
	err := writeReply(&buf, m.kind, m.resp)
	return buf.Bytes(), err
}

// decode reads one message of m's direction off data. It returns the message
// and the bytes it was read from.
func (m goldenMessage) decode(data []byte) (goldenMessage, []byte, error) {
	rd := bytes.NewReader(data)
	frames := relation.NewFrameReader(rd)
	got := goldenMessage{kind: m.kind}
	var err error
	if m.req != nil {
		got.req, err = readRequest(frames, nil)
	} else {
		got.resp, err = readReply(frames, m.kind, nil)
	}
	return got, data[:len(data)-rd.Len()], err
}

// goldenMessages covers every request and reply kind, every expression node,
// every literal kind, a relation of every column kind, a reply whose columns
// are packed INT and digits STRING, and one whose columns are digits STRING
// and packed FLOAT.
func goldenMessages() []goldenMessage {
	rel := relation.New(relation.MustSchema(
		relation.Column{Name: "k", Kind: relation.KindInt},
		relation.Column{Name: "s", Kind: relation.KindString},
		relation.Column{Name: "f", Kind: relation.KindFloat},
		relation.Column{Name: "b", Kind: relation.KindBool},
	))
	rel.MustAppend(relation.Tuple{relation.NewInt(-3), relation.NewString("x"), relation.NewFloat(2.5), relation.NewBool(true)})
	rel.MustAppend(relation.Tuple{relation.Null, relation.NewString(""), relation.Null, relation.NewBool(false)})
	packed := relation.New(relation.MustSchema(
		relation.Column{Name: "Clerk", Kind: relation.KindString},
		relation.Column{Name: "cnt", Kind: relation.KindInt},
	))
	for i, cnt := range []int64{3, 1, 5, 2, 1, 4} {
		clerk := relation.NewString(fmt.Sprintf("Clerk#%09d", 101+i))
		if i == 2 {
			clerk = relation.Null
		}
		packed.MustAppend(relation.Tuple{clerk, relation.NewInt(cnt)})
	}
	priced := relation.New(relation.MustSchema(
		relation.Column{Name: "Clerk", Kind: relation.KindString},
		relation.Column{Name: "avgp", Kind: relation.KindFloat},
	))
	for i, avgp := range []float64{1021.5, 1024.25, 1019.75, 1022, 1023.125, 1020.5, 1024, 1021.25} {
		priced.MustAppend(relation.Tuple{relation.NewString(fmt.Sprintf("Clerk#%09d", 4711+37*i)), relation.NewFloat(avgp)})
	}
	base := gmdj.BaseQuery{
		Detail:       "TPCR",
		Cols:         []string{"CustName", "NationKey"},
		Where:        expr.MustParse("R.NationKey >= 3 && !(R.Comment IS NULL) && R.Price * -2 < 7.5"),
		GroupingSets: [][]string{{"CustName", "NationKey"}, {"CustName"}, nil},
	}
	op := gmdj.Operator{Detail: "TPCR", Vars: []gmdj.GroupVar{
		{Aggs: []agg.Spec{{Func: agg.Count, As: "cnt"}, {Func: agg.Avg, Arg: "Price", As: "avgp"}},
			Cond: expr.MustParse("(B.NationKey IS NULL || B.NationKey = R.NationKey) && B.CustName = R.CustName")},
		{Aggs: []agg.Spec{{Func: agg.StdDev, Arg: "Price", As: "sd"}},
			Cond: expr.And(expr.Eq(expr.C(expr.SideDetail, "Flag"), expr.L(relation.NewBool(true))),
				expr.B2(expr.OpNe, expr.C(expr.SideDetail, "Comment"), expr.L(relation.Null)),
				expr.B2(expr.OpEq, expr.C(expr.SideDetail, "Clerk"), expr.Str("Clerk#007")))},
	}}
	trace := func(r Request) *Request {
		r.QueryID, r.Round, r.Attempt = "q0123456789abcdef", "MD1", 1
		return &r
	}
	profile := obs.SiteBreakdown{EvalNS: 1234567, RowsScanned: 30000, SegCacheReads: 2, SegDiskReads: 1,
		SegRowsLoaded: 4096, CodecBytes: 321, Blocks: 3, Kernel: true}
	return []goldenMessage{
		{name: "hello", req: &Request{Kind: KindHello, Version: ProtocolVersion}},
		{name: "base", req: trace(Request{Kind: KindBase, Base: &base})},
		{name: "operator", req: trace(Request{Kind: KindOperator, Operator: &engine.OperatorRequest{Base: rel, Op: op, Guard: true, BlockRows: 100}})},
		{name: "operator-no-base", req: trace(Request{Kind: KindOperator, Operator: &engine.OperatorRequest{Op: op, BlockRows: -1}})},
		{name: "operator-derived", req: trace(Request{Kind: KindOperator, Operator: &engine.OperatorRequest{Base: rel, Op: op, Guard: true,
			Derive: &engine.Derive{Keys: base.Cols, Where: base.Where, Rows: 11, Kept: []byte{0b101, 0}}}})},
		{name: "local", req: trace(Request{Kind: KindLocal, Local: &engine.LocalRequest{Query: gmdj.Query{Base: base, Ops: []gmdj.Operator{op, op, op}}, UpTo: 2, Witness: true}})},
		{name: "schema", req: trace(Request{Kind: KindSchema, Name: "TPCR"})},
		{name: "load", req: trace(Request{Kind: KindLoad, Name: "T", LoadRel: rel})},
		{name: "tables", req: trace(Request{Kind: KindTables})},
		{name: "hello-reply", kind: KindHello, resp: &Response{Version: ProtocolVersion, SiteID: 3}},
		{name: "base-reply", kind: KindBase, resp: &Response{Rel: rel, Profile: profile}},
		{name: "operator-reply", kind: KindOperator, resp: &Response{Profile: profile}},
		{name: "operator-error-reply", kind: KindOperator, resp: &Response{Err: "engine: boom", Profile: profile}},
		{name: "local-reply", kind: KindLocal, resp: &Response{Rel: rel}},
		{name: "local-reply-packed", kind: KindLocal, resp: &Response{Rel: packed}},
		{name: "local-reply-floats", kind: KindLocal, resp: &Response{Rel: priced}},
		{name: "schema-reply", kind: KindSchema, resp: &Response{Schema: rel.Schema}},
		{name: "load-reply", kind: KindLoad, resp: &Response{}},
		{name: "tables-reply", kind: KindTables, resp: &Response{Tables: []engine.TableInfo{{Name: "Flow", Rows: 20000, Columns: 9}, {Name: "TPCR", Rows: 0, Columns: 12}}}},
		{name: "unknown-kind-reply", kind: 7, resp: &Response{Err: "transport: unknown request kind 7"}},
	}
}

// goldenText renders the golden messages as the golden file's lines.
func goldenText(t *testing.T) []byte {
	var text bytes.Buffer
	text.WriteString("# Site protocol envelope bytes, one message per line: name, then hex.\n")
	text.WriteString("# Regenerate with: go test ./internal/transport -run TestWireSchemaGolden -update\n")
	fmt.Fprintf(&text, "# Protocol version %d. A changed line changes the protocol: bump ProtocolVersion.\n", ProtocolVersion)
	for _, m := range goldenMessages() {
		b, err := m.encode()
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		fmt.Fprintf(&text, "%s %x\n", m.name, b)
	}
	return text.Bytes()
}

// TestWireSchemaGolden pins the envelope's bytes for fixed requests and
// replies: a layout change is a protocol version change.
func TestWireSchemaGolden(t *testing.T) {
	got := goldenText(t)
	if *updateGolden {
		if err := os.WriteFile(envelopeGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(envelopeGolden)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("envelope bytes changed:\n-- committed --\n%s\n-- current --\n%s", want, got)
	}
}

// TestWireFingerprintByteStable: encoding is a pure function of the message,
// so the golden regenerates byte for byte.
func TestWireFingerprintByteStable(t *testing.T) {
	if a, b := goldenText(t), goldenText(t); !bytes.Equal(a, b) {
		t.Fatalf("encoding the golden messages twice gave different bytes:\n-- first --\n%s\n-- second --\n%s", a, b)
	}
}

// TestEnvelopeGolden checks that each committed golden message decodes and
// re-encodes to exactly its bytes.
func TestEnvelopeGolden(t *testing.T) {
	want, err := os.ReadFile(envelopeGolden)
	if err != nil {
		t.Fatalf("read golden: %v (run TestWireSchemaGolden with -update to create it)", err)
	}
	msgs := goldenMessages()
	lines := strings.Split(strings.TrimSpace(string(want)), "\n")[3:]
	if len(lines) != len(msgs) {
		t.Fatalf("golden has %d messages, want %d", len(lines), len(msgs))
	}
	for i, line := range lines {
		name, hexBytes, _ := strings.Cut(line, " ")
		data, err := hex.DecodeString(hexBytes)
		if err != nil || name != msgs[i].name {
			t.Fatalf("golden line %q: %v", line, err)
		}
		got, _, err := msgs[i].decode(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if again, err := got.encode(); err != nil || !bytes.Equal(again, data) {
			t.Errorf("%s: re-encoded to\n%x\nwant\n%x", name, again, data)
		}
	}
}

// allocatedBy reports the bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// Decoding a message allocates at most envelopeAllocPerByte bytes per input
// byte plus envelopeAllocConst, the bound FuzzStageAdd holds the H staging
// path to: whatever a peer sends, a site or coordinator allocates in
// proportion to what arrived.
const (
	envelopeAllocPerByte = 1024
	envelopeAllocConst   = 2 << 20
)

// FuzzEnvelope decodes arbitrary bytes as a site request (the server's read)
// and as a reply (the client's read). Each decode ends in a typed error or in
// a message whose re-encoding is byte-identical to the frame it was read
// from, and allocates within the staging bound.
func FuzzEnvelope(f *testing.F) {
	for _, m := range goldenMessages() {
		b, err := m.encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// A 9-byte length prefix claiming a body of 2^62 bytes.
	f.Add(binary.AppendUvarint(nil, 1<<62))
	// Version 3 local requests: an upTo past the operators carried, which
	// re-encodes as read, and a witness byte that is no bool.
	local := append([]byte{byte(KindLocal)}, relation.AppendString(relation.AppendString(nil, "q"), "base+MD1")...)
	local = binary.AppendVarint(local, 1)
	local = appendBaseQuery(local, &gmdj.BaseQuery{Detail: "T", Cols: []string{"g"}, Where: expr.MustParse("R.v > 1")})
	local = binary.AppendUvarint(local, 0)
	local = binary.AppendVarint(local, 5)
	for _, witness := range []byte{1, 2} {
		body := append(slices.Clip(local), witness)
		f.Add(append(binary.AppendUvarint(nil, uint64(len(body))), body...))
	}
	// Version 4 derived operator requests: a bitmap a byte longer than its
	// rows need, no rows at all, and a bit set past the rows.
	for _, d := range []engine.Derive{{Rows: 3, Kept: []byte{1, 0}}, {Rows: 0}, {Rows: 3, Kept: []byte{0x09}}} {
		d.Keys = []string{"g"}
		m := goldenMessage{name: "derived", req: &Request{Kind: KindOperator, Operator: &engine.OperatorRequest{
			Base: relation.New(relation.MustSchema(relation.Column{Name: "v", Kind: relation.KindInt})), Derive: &d}}}
		b, err := m.encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		limit := envelopeAllocPerByte*uint64(len(data)) + envelopeAllocConst
		kind := ReqKind(0)
		if ln, n := binary.Uvarint(data); n > 0 && ln > 0 && n < len(data) {
			kind = ReqKind(data[n])
		}
		for _, m := range []goldenMessage{{name: "request", req: &Request{}}, {name: "reply", kind: kind}} {
			var msg goldenMessage
			var read []byte
			var err error
			if n := allocatedBy(func() { msg, read, err = m.decode(data) }); n > limit {
				t.Fatalf("%s: decoding %d bytes allocated %d", m.name, len(data), n)
			}
			if err != nil {
				if !errors.Is(err, ErrProtocol) && !errors.Is(err, errUnknownKind) && !errors.Is(err, io.EOF) &&
					!errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, relation.ErrFrameLength) {
					t.Fatalf("%s: untyped error %v", m.name, err)
				}
				continue
			}
			if again, err := msg.encode(); err != nil || !bytes.Equal(again, read) {
				t.Fatalf("%s: %x re-encoded to %x (%v)", m.name, read, again, err)
			}
		}
	})
}

// gobRequest is the hello of a gob-era coordinator, as its encoder wrote it.
type gobRequest struct {
	Kind    ReqKind
	QueryID string
}

// versionDeadline bounds every mixed-version exchange: each must fail well
// before it.
const versionDeadline = 2 * time.Second

// dialRaw opens a bare connection to addr, for a test to speak as another
// version's coordinator would.
func dialRaw(t *testing.T, addr string) net.Conn {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.SetDeadline(time.Now().Add(versionDeadline))
	t.Cleanup(func() { conn.Close() })
	return conn
}

// fakeSite serves one connection with fn, which speaks as another version's
// site would. done closes when fn has returned.
func fakeSite(t *testing.T, fn func(net.Conn)) (addr string, done <-chan struct{}) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(versionDeadline))
		fn(conn)
	}()
	t.Cleanup(func() { ln.Close(); <-served })
	return ln.Addr().String(), served
}

// dialFails dials addr and returns the error it must fail with, well before
// the deadline.
func dialFails(t *testing.T, addr string) error {
	ctx, cancel := context.WithTimeout(context.Background(), versionDeadline)
	defer cancel()
	start := time.Now()
	cli, err := DialContext(ctx, addr)
	if err == nil {
		cli.Close()
		t.Fatal("Dial succeeded")
	}
	if elapsed := time.Since(start); elapsed >= versionDeadline {
		t.Errorf("Dial failed only at its deadline (%v): %v", elapsed, err)
	}
	return err
}

// isClosed reports an error that means the peer hung up.
func isClosed(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || isReset(err)
}

// helloThenRefused sends the site at addr a hello of version followed by a
// query's request, as a coordinator of that version would, and checks the
// site answers the hello with its own version and serves nothing after it.
func helloThenRefused(t *testing.T, addr string, version int) {
	conn := dialRaw(t, addr)
	if err := writeRequest(conn, &Request{Kind: KindHello, Version: version}); err != nil {
		t.Fatal(err)
	}
	frames := relation.NewFrameReader(bufio.NewReader(conn))
	resp, err := readReply(frames, KindHello, nil)
	if err != nil || resp.Version != ProtocolVersion {
		t.Fatalf("hello reply %+v, %v: want this site's version, for the peer to refuse", resp, err)
	}
	// The site serves nothing on the connection: it closed it.
	if err := writeRequest(conn, &Request{Kind: KindTables, QueryID: "q-other-version"}); err == nil {
		if resp, err := readReply(frames, KindTables, nil); !isClosed(err) {
			t.Fatalf("a request after a mismatched hello got %+v, %v, want the connection closed", resp, err)
		}
	}
}

// dialSiteOfVersion dials a site that answers hello with version and checks
// Dial fails with ErrProtocol naming both versions. It returns the requests
// the site read.
func dialSiteOfVersion(t *testing.T, version int) []ReqKind {
	var seen []ReqKind
	addr, done := fakeSite(t, func(conn net.Conn) {
		frames := relation.NewFrameReader(bufio.NewReader(conn))
		for {
			req, err := readRequest(frames, nil)
			if err != nil {
				return
			}
			seen = append(seen, req.Kind)
			if req.Kind == KindHello {
				_ = writeReply(conn, KindHello, &Response{Version: version, SiteID: 9})
			}
		}
	})
	err := dialFails(t, addr)
	want := fmt.Sprintf("peer speaks protocol version %d, this build speaks version %d", version, ProtocolVersion)
	if !errors.Is(err, ErrProtocol) || !strings.Contains(err.Error(), want) {
		t.Fatalf("Dial = %v, want ErrProtocol naming both versions (%q)", err, want)
	}
	<-done
	return seen
}

// TestMixedVersionsFailClosed: a gob-era peer and a peer of a newer protocol
// version meet this one in both directions, and every case ends promptly in
// a typed error with nothing served and nothing left running.
func TestMixedVersionsFailClosed(t *testing.T) {
	srv, err := Serve(testSite(t, 4), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	t.Run("gob coordinator to this site", func(t *testing.T) {
		conn := dialRaw(t, srv.Addr())
		start := time.Now()
		if err := gob.NewEncoder(conn).Encode(&gobRequest{Kind: KindHello}); err != nil {
			t.Fatal(err)
		}
		var resp struct{ SiteID int }
		if err := gob.NewDecoder(conn).Decode(&resp); !isClosed(err) {
			t.Fatalf("gob hello answered with %+v, %v; want the connection closed", resp, err)
		}
		if elapsed := time.Since(start); elapsed >= versionDeadline {
			t.Errorf("the site closed the connection only at the deadline (%v)", elapsed)
		}
	})

	t.Run("this coordinator to a gob site", func(t *testing.T) {
		addr, _ := fakeSite(t, func(conn net.Conn) {
			var req gobRequest
			if err := gob.NewDecoder(conn).Decode(&req); err != nil {
				return // the gob site drops what it cannot decode
			}
			_ = gob.NewEncoder(conn).Encode(&struct{ SiteID int }{9})
		})
		if err := dialFails(t, addr); !isClosed(err) && !errors.Is(err, ErrProtocol) {
			t.Fatalf("Dial = %v, want the hello to fail on a closed or foreign stream", err)
		}
	})

	t.Run("newer coordinator to this site", func(t *testing.T) {
		helloThenRefused(t, srv.Addr(), ProtocolVersion+1)
	})

	t.Run("this coordinator to a newer site", func(t *testing.T) {
		dialSiteOfVersion(t, ProtocolVersion+1)
	})
}

// TestQueryIDOldPeerCompat: a coordinator of an older envelope version gets
// its hello answered with this site's version, and the query-tagged request
// it sends next is never served: the site has hung up.
func TestQueryIDOldPeerCompat(t *testing.T) {
	srv, err := Serve(testSite(t, 4), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	helloThenRefused(t, srv.Addr(), ProtocolVersion-1)
}

// TestTraceFieldsOldPeerCompat: this coordinator meeting a site of an older
// envelope version fails Dial naming both versions, and the site reads the
// hello and nothing else, so no request with trace fields it may lay out
// differently ever reaches it.
func TestTraceFieldsOldPeerCompat(t *testing.T) {
	if seen := dialSiteOfVersion(t, ProtocolVersion-1); len(seen) != 1 || seen[0] != KindHello {
		t.Errorf("the older site read requests %v, want the hello alone", seen)
	}
}

// TestProfileFieldOldPeerCompat: the telemetry trailer is fixed-width, so a
// reply whose breakdown has another width — none, as before the profiler, or
// with the retired per-worker fields of a sharding site — is a protocol
// error, not a breakdown read from the wrong bytes.
func TestProfileFieldOldPeerCompat(t *testing.T) {
	profile := obs.SiteBreakdown{EvalNS: 12345, RowsScanned: 42, CodecBytes: 7, Kernel: true}
	var buf bytes.Buffer
	if err := writeReply(&buf, KindOperator, &Response{Profile: profile}); err != nil {
		t.Fatal(err)
	}
	length, n := binary.Uvarint(buf.Bytes())
	body := buf.Bytes()[n:]
	if int(length) != len(body) {
		t.Fatalf("reply length prefix %d, body %d bytes", length, len(body))
	}
	reframe := func(body []byte) *relation.FrameReader {
		return relation.NewFrameReader(bytes.NewReader(append(binary.AppendUvarint(nil, uint64(len(body))), body...)))
	}
	resp, err := readReply(reframe(body), KindOperator, nil)
	if err != nil || resp.Profile != profile {
		t.Fatalf("the fixed-width trailer read as %+v, %v; want %+v", resp, err, profile)
	}
	for name, other := range map[string][]byte{
		"no trailer":         body[:len(body)-trailerSize],
		"per-worker trailer": append(append([]byte(nil), body...), make([]byte, 16)...),
		"one byte short":     body[:len(body)-1],
	} {
		if resp, err := readReply(reframe(other), KindOperator, nil); !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: read as %+v, %v; want ErrProtocol", name, resp, err)
		}
	}
}

// pre27Request is the batched request of a coordinator built before the
// exchange was removed: kind 7 plus the two trailing fields Request no
// longer declares.
type pre27Request struct {
	Kind          ReqKind
	QueryID       string
	Batch         []pre27Operator
	BatchQueryIDs []string
}

// pre27Operator stands in for the operator requests such a batch carried.
type pre27Operator struct {
	Guard     bool
	BlockRows int
}

// TestPre27BatchPayloadDropsConnection pins what such a coordinator sees: its
// gob batch does not open with a hello, so the site closes the connection
// without answering — its write or its read fails — and its retry on a fresh
// connection of this protocol is served.
func TestPre27BatchPayloadDropsConnection(t *testing.T) {
	srv, err := Serve(testSite(t, 4), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn := dialRaw(t, srv.Addr())
	req := pre27Request{Kind: 7, QueryID: "q-old",
		Batch: []pre27Operator{{true, 100}, {false, -1}}, BatchQueryIDs: []string{"a", "b"}}
	n := 0
	err = gob.NewEncoder(conn).Encode(&req)
	if err == nil {
		n, err = conn.Read(make([]byte, 1))
	}
	if !isClosed(err) && !errors.Is(err, syscall.EPIPE) {
		t.Fatalf("the site answered a pre-27 batch payload (%d bytes, %v); want the connection closed", n, err)
	}

	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("server unusable after dropping the batch connection: %v", err)
	}
	defer cli.Close()
	if _, _, err := CollectOperator(context.Background(), cli, opRequest()); err != nil {
		t.Fatalf("solo exchange on a fresh connection: %v", err)
	}
}

// isReset reports a connection the peer reset, which is how its close
// surfaces when it hung up with bytes of ours unread.
func isReset(err error) bool { return errors.Is(err, syscall.ECONNRESET) }

// TestSiteProfileOverTCP runs a real exchange and checks the site-side
// breakdown and trace context survive the wire: the call record carries the
// attempt from the context and a breakdown with the site's eval time, which
// is the call's compute time.
func TestSiteProfileOverTCP(t *testing.T) {
	srv, err := Serve(testSite(t, 4), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx := obs.WithQueryID(context.Background(), obs.NewQueryID())
	ctx = obs.WithRound(ctx, "base")
	ctx = obs.WithAttempt(ctx, 2)
	_, call, err := cli.EvalBase(ctx, gmdj.BaseQuery{Detail: "T", Cols: []string{"g"}})
	if err != nil {
		t.Fatal(err)
	}
	if call.Attempt != 2 {
		t.Errorf("call.Attempt = %d, want 2 (from context)", call.Attempt)
	}
	if call.Start.IsZero() || call.Elapsed <= 0 {
		t.Errorf("call envelope not stamped: start %v elapsed %v", call.Start, call.Elapsed)
	}
	if call.Breakdown == nil {
		t.Fatal("call.Breakdown nil: site breakdown did not cross the wire")
	}
	if call.Breakdown.EvalNS <= 0 || call.Compute != time.Duration(call.Breakdown.EvalNS) {
		t.Errorf("site eval time %d, call compute %v: want one positive time", call.Breakdown.EvalNS, call.Compute)
	}

	// The streaming operator path attaches the breakdown to its reply.
	scall, err := cli.EvalOperatorStream(ctx, opRequest(), func(*relation.Relation) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if scall.Breakdown == nil {
		t.Fatal("stream call.Breakdown nil")
	}
	if scall.Breakdown.CodecBytes <= 0 {
		t.Errorf("stream breakdown codec bytes %d, want > 0", scall.Breakdown.CodecBytes)
	}
	if scall.Attempt != 2 {
		t.Errorf("stream call.Attempt = %d, want 2", scall.Attempt)
	}
}

// TestRetiredAndUnknownKindsAnswered: a server answers the retired batch kind
// (7) and a kind it never knew with an ordinary error reply — the envelope
// frames every request, so an unknown one is read whole — and the same
// connection then serves a metadata request.
func TestRetiredAndUnknownKindsAnswered(t *testing.T) {
	srv, err := Serve(testSite(t, 4), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frames := relation.NewFrameReader(bufio.NewReader(conn))
	if err := writeRequest(conn, &Request{Kind: KindHello, Version: ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	if _, err := readReply(frames, KindHello, nil); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []ReqKind{7, 200} {
		if err := writeRequest(conn, &Request{Kind: kind, QueryID: "q-old"}); err != nil {
			t.Fatal(err)
		}
		resp, err := readReply(frames, kind, nil)
		if err != nil {
			t.Fatalf("kind %d: no reply: %v", kind, err)
		}
		if want := fmt.Sprintf("transport: unknown request kind %d", kind); resp.Err != want {
			t.Errorf("kind %d: Response.Err = %q, want %q", kind, resp.Err, want)
		}
	}
	if err := writeRequest(conn, &Request{Kind: KindTables}); err != nil {
		t.Fatal(err)
	}
	resp, err := readReply(frames, KindTables, nil)
	if err != nil {
		t.Fatalf("connection dead after rejected kinds: %v", err)
	}
	if resp.Err != "" || len(resp.Tables) != 1 || resp.Tables[0].Name != "T" {
		t.Errorf("KindTables after rejected kinds = %+v", resp)
	}
}

// writeRequest writes req as one message from a fresh buffer, as the first
// message a connection's end writes is.
func writeRequest(w io.Writer, req *Request) error { return new(msgBuf).writeRequest(w, req) }

// writeReply writes resp as the reply to a request of kind from a fresh
// buffer.
func writeReply(w io.Writer, kind ReqKind, resp *Response) error {
	return new(msgBuf).writeReply(w, kind, resp)
}
