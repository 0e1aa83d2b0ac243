package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"net"
	"testing"

	"skalla/internal/engine"
	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/relation"
)

// oldResponse is the pre-profiler wire response envelope, as an old peer
// would encode and decode it (see oldRequest in queryid_test.go for the
// pattern: gob matches fields by name, so the type name is irrelevant).
type oldResponse struct {
	Err       string
	Rel       *relation.Relation
	Schema    relation.Schema
	Tables    []engine.TableInfo
	SiteID    int
	ComputeNS int64
	More      bool
}

// TestTraceFieldsOldPeerCompat proves the appended trace-context fields
// (Request.Round, Request.Attempt) keep the protocol compatible with peers
// built before the profiler, in both directions.
func TestTraceFieldsOldPeerCompat(t *testing.T) {
	// New coordinator → old site: the unknown fields are skipped.
	var buf bytes.Buffer
	newReq := Request{Kind: KindSchema, QueryID: "q1", Schema: "Flow", Round: "MD2", Attempt: 3}
	if err := gob.NewEncoder(&buf).Encode(&newReq); err != nil {
		t.Fatal(err)
	}
	var old oldRequest
	if err := gob.NewDecoder(&buf).Decode(&old); err != nil {
		t.Fatalf("old peer cannot decode new request: %v", err)
	}
	if old.Kind != KindSchema || old.Schema != "Flow" {
		t.Errorf("old peer decoded %+v", old)
	}

	// Old coordinator → new site: the missing fields stay zero.
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(&oldRequest{Kind: KindTables}); err != nil {
		t.Fatal(err)
	}
	var cur Request
	if err := gob.NewDecoder(&buf).Decode(&cur); err != nil {
		t.Fatalf("new peer cannot decode old request: %v", err)
	}
	if cur.Kind != KindTables || cur.Round != "" || cur.Attempt != 0 {
		t.Errorf("new peer decoded %+v", cur)
	}
}

// shardingBreakdown is the site breakdown of a peer built while sites still
// sharded their scans: it carries the scan width and the rows per worker.
type shardingBreakdown struct {
	EvalNS        int64
	Workers       int
	RowsScanned   int64
	WorkerRows    []int64
	SegCacheReads int64
	SegDiskReads  int64
	SegRowsLoaded int64
	CodecBytes    int64
	Blocks        int64
	Kernel        bool
}

type shardingResponse struct {
	SiteID    int
	ComputeNS int64
	Profile   *shardingBreakdown
}

// TestProfileFieldOldPeerCompat proves the appended Response.Profile field is
// wire-compatible with pre-profiler peers in both directions, and that the
// retired Workers / WorkerRows breakdown fields are skipped in both
// directions too.
func TestProfileFieldOldPeerCompat(t *testing.T) {
	// New site → old coordinator: the unknown breakdown is skipped.
	var buf bytes.Buffer
	b := obs.SiteBreakdown{EvalNS: 12345, RowsScanned: 42, CodecBytes: 7}
	newResp := Response{SiteID: 5, ComputeNS: 999, Profile: &b}
	if err := gob.NewEncoder(&buf).Encode(&newResp); err != nil {
		t.Fatal(err)
	}
	var old oldResponse
	if err := gob.NewDecoder(&buf).Decode(&old); err != nil {
		t.Fatalf("old peer cannot decode new response: %v", err)
	}
	if old.SiteID != 5 || old.ComputeNS != 999 {
		t.Errorf("old peer decoded %+v", old)
	}

	// Old site → new coordinator: the missing breakdown stays nil.
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(&oldResponse{SiteID: 5, ComputeNS: 999}); err != nil {
		t.Fatal(err)
	}
	var cur Response
	if err := gob.NewDecoder(&buf).Decode(&cur); err != nil {
		t.Fatalf("new peer cannot decode old response: %v", err)
	}
	if cur.SiteID != 5 || cur.ComputeNS != 999 || cur.Profile != nil {
		t.Errorf("new peer decoded %+v", cur)
	}

	// Sharding site → new coordinator: the per-worker fields are skipped and
	// the rows they split arrive whole.
	buf.Reset()
	shard := shardingResponse{SiteID: 5, ComputeNS: 999, Profile: &shardingBreakdown{
		EvalNS: 12345, Workers: 2, RowsScanned: 42, WorkerRows: []int64{20, 22}, CodecBytes: 7, Kernel: true}}
	if err := gob.NewEncoder(&buf).Encode(&shard); err != nil {
		t.Fatal(err)
	}
	cur = Response{}
	if err := gob.NewDecoder(&buf).Decode(&cur); err != nil {
		t.Fatalf("new peer cannot decode a sharding peer's breakdown: %v", err)
	}
	if want := (obs.SiteBreakdown{EvalNS: 12345, RowsScanned: 42, CodecBytes: 7, Kernel: true}); cur.Profile == nil || *cur.Profile != want {
		t.Errorf("new peer decoded a sharding peer's breakdown as %+v, want %+v", cur.Profile, want)
	}

	// New site → sharding coordinator: it reads the rows and no workers.
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(&newResp); err != nil {
		t.Fatal(err)
	}
	var pre shardingResponse
	if err := gob.NewDecoder(&buf).Decode(&pre); err != nil {
		t.Fatalf("sharding peer cannot decode a new breakdown: %v", err)
	}
	if p := pre.Profile; p == nil || p.RowsScanned != 42 || p.EvalNS != 12345 || p.CodecBytes != 7 || p.Workers != 0 || p.WorkerRows != nil {
		t.Errorf("sharding peer decoded %+v", p)
	}
}

// TestSiteProfileOverTCP runs a real exchange and checks the site-side
// breakdown and trace context survive the wire: the call record carries the
// attempt from the context and a non-nil breakdown with the site's eval time.
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
	if call.Breakdown.EvalNS <= 0 {
		t.Errorf("site breakdown eval time %d, want > 0", call.Breakdown.EvalNS)
	}

	// The streaming operator path attaches the breakdown on the terminal frame.
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

// TestRetiredAndUnknownKindsAnswered: a new server answers the retired batch
// kind (7) and a kind it never knew with an ordinary error response — no
// stream framing, no dropped connection — and the same connection then
// serves a metadata request.
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
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)

	for _, kind := range []ReqKind{7, 200} {
		if err := enc.Encode(&oldRequest{Kind: kind}); err != nil {
			t.Fatal(err)
		}
		var resp Response
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("kind %d: no response: %v", kind, err)
		}
		if want := fmt.Sprintf("transport: unknown request kind %d", kind); resp.Err != want {
			t.Errorf("kind %d: Response.Err = %q, want %q", kind, resp.Err, want)
		}
	}

	if err := enc.Encode(&Request{Kind: KindTables}); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := dec.Decode(&resp); err != nil {
		t.Fatalf("connection dead after rejected kinds: %v", err)
	}
	if resp.Err != "" || len(resp.Tables) != 1 || resp.Tables[0].Name != "T" {
		t.Errorf("KindTables after rejected kinds = %+v", resp)
	}
}

// pre27Request is the batched request of a coordinator built before the
// exchange was removed: kind 7 plus the two trailing fields Request no
// longer declares.
type pre27Request struct {
	Kind          ReqKind
	QueryID       string
	Batch         []engine.OperatorRequest
	BatchQueryIDs []string
}

// TestPre27BatchPayloadDropsConnection pins what such a coordinator sees
// when its batch carries real operators: gob cannot skip a retired field
// whose value nests interface values (the conditions' expr trees), so the
// server's decode fails and it closes the connection instead of answering.
// Either way the old client's batched attempt ends in a transport error, it
// redials, and its retry (attempt > 1) goes unbatched; a fresh connection to
// the same server works.
func TestPre27BatchPayloadDropsConnection(t *testing.T) {
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
	req := pre27Request{Kind: 7, QueryID: "q-old",
		Batch: []engine.OperatorRequest{opRequest(), opRequest()}, BatchQueryIDs: []string{"a", "b"}}
	if err := gob.NewEncoder(conn).Encode(&req); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := gob.NewDecoder(conn).Decode(&resp); err == nil {
		t.Fatalf("server answered a pre-27 batch payload: %+v (gob learned to skip it — update the README upgrade note)", resp)
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

// pre30OperatorRequest is the operator request of a coordinator built before
// H_i was addressed by ordinal: it still names the key attributes it expects
// back.
type pre30OperatorRequest struct {
	Base      *relation.Relation
	Op        gmdj.Operator
	Keys      []string
	Guard     bool
	BlockRows int
}

type pre30Request struct {
	Kind     ReqKind
	QueryID  string
	Operator *pre30OperatorRequest
}

// TestPre30OperatorRequestAnsweredWithOrdinals pins the site half of the
// mixed-version story: the retired Keys field is a plain []string, which gob
// skips, so an upgraded site serves a pre-30 coordinator's request — and
// answers in the only H shape it has, led by the row ordinal, which that
// coordinator's key-name check then refuses. Nothing is merged; the
// connection stays usable.
func TestPre30OperatorRequestAnsweredWithOrdinals(t *testing.T) {
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
	br := bufio.NewReader(conn)
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(br)
	cur := opRequest()
	old := pre30Request{Kind: KindOperator, QueryID: "q-old",
		Operator: &pre30OperatorRequest{Base: cur.Base, Op: cur.Op, Keys: []string{"g"}}}
	if err := enc.Encode(&old); err != nil {
		t.Fatal(err)
	}
	marker, err := br.ReadByte()
	if err != nil || marker != opStreamBlock {
		t.Fatalf("no H block for a pre-30 request: marker %#x, %v", marker, err)
	}
	block, err := relation.NewDecoder(br).Decode()
	if err != nil {
		t.Fatal(err)
	}
	if lead := block.Schema[0]; lead.Name != engine.OrdinalColumn || block.Schema.Has("g") {
		t.Errorf("H schema %s: want the ordinal first and no key column", block.Schema)
	}
	if marker, err = br.ReadByte(); err != nil || marker != opStreamEnd {
		t.Fatalf("stream did not end after one block: marker %#x, %v", marker, err)
	}
	var term Response
	if err := dec.Decode(&term); err != nil || term.Err != "" {
		t.Fatalf("terminal response: %+v, %v", term, err)
	}
	if err := enc.Encode(&Request{Kind: KindTables}); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := dec.Decode(&resp); err != nil || len(resp.Tables) != 1 {
		t.Fatalf("connection unusable after the exchange: %+v, %v", resp, err)
	}
}
