package transport

import (
	"context"
	"testing"
	"time"

	"skalla/internal/agg"
	"skalla/internal/engine"
	"skalla/internal/expr"
	"skalla/internal/gmdj"
	"skalla/internal/relation"
)

func testSite(t *testing.T, id int) *engine.Site {
	t.Helper()
	s := engine.NewSite(id)
	r := relation.New(relation.MustSchema(
		relation.Column{Name: "g", Kind: relation.KindInt},
		relation.Column{Name: "v", Kind: relation.KindInt},
	))
	for i := 0; i < 10; i++ {
		r.MustAppend(relation.Tuple{relation.NewInt(int64(i % 3)), relation.NewInt(int64(i))})
	}
	if err := s.Load(context.Background(), "T", r); err != nil {
		t.Fatal(err)
	}
	return s
}

func opRequest() engine.OperatorRequest {
	base := relation.New(relation.MustSchema(relation.Column{Name: "g", Kind: relation.KindInt}))
	for g := int64(0); g < 3; g++ {
		base.MustAppend(relation.Tuple{relation.NewInt(g)})
	}
	return engine.OperatorRequest{
		Base: base,
		Op: gmdj.Operator{Detail: "T", Vars: []gmdj.GroupVar{{
			Aggs: []agg.Spec{{Func: agg.Count, As: "c"}, {Func: agg.Sum, Arg: "v", As: "s"}},
			Cond: expr.MustParse("B.g = R.g"),
		}}},
	}
}

// exerciseSite runs the full Site surface against any implementation.
func exerciseSite(t *testing.T, site Site, wantID int, wantBytes bool) {
	t.Helper()
	ctx := context.Background()
	if site.ID() != wantID {
		t.Errorf("ID = %d, want %d", site.ID(), wantID)
	}

	sch, err := site.DetailSchema(ctx, "T")
	if err != nil || !sch.Has("g") {
		t.Fatalf("DetailSchema: %v %v", sch, err)
	}
	if _, err := site.DetailSchema(ctx, "missing"); err == nil {
		t.Error("missing schema must error")
	}

	b, call, err := site.EvalBase(ctx, gmdj.BaseQuery{Detail: "T", Cols: []string{"g"}})
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 3 {
		t.Errorf("base rows = %d", b.Len())
	}
	if call.RowsUp != 3 || call.RowsDown != 0 {
		t.Errorf("base call rows = %+v", call)
	}
	if wantBytes && (call.BytesDown <= 0 || call.BytesUp <= 0) {
		t.Errorf("base call bytes = %+v", call)
	}

	h, call, err := CollectOperator(ctx, site, opRequest())
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 3 || !h.Schema.Has("c") || !h.Schema.Has("s") {
		t.Errorf("H = %s", h)
	}
	if call.RowsDown != 3 || call.RowsUp != 3 {
		t.Errorf("operator call rows = %+v", call)
	}
	if call.Compute < 0 {
		t.Errorf("compute = %v", call.Compute)
	}

	q := gmdj.Query{
		Base: gmdj.BaseQuery{Detail: "T", Cols: []string{"g"}},
		Ops: []gmdj.Operator{{Detail: "T", Vars: []gmdj.GroupVar{{
			Aggs: []agg.Spec{{Func: agg.Count, As: "c"}},
			Cond: expr.MustParse("B.g = R.g"),
		}}}},
	}
	x, call, err := site.EvalLocal(ctx, engine.LocalRequest{Query: q, UpTo: 1})
	if err != nil {
		t.Fatal(err)
	}
	if x.Len() != 3 || !x.Schema.Has("c") {
		t.Errorf("local X = %s", x)
	}
	if call.RowsUp != 3 {
		t.Errorf("local call rows = %+v", call)
	}

	// Errors propagate with their message.
	_, _, err = site.EvalBase(ctx, gmdj.BaseQuery{Detail: "missing", Cols: []string{"x"}})
	if err == nil {
		t.Error("EvalBase on missing relation must error")
	}
	_, _, err = CollectOperator(ctx, site, engine.OperatorRequest{})
	if err == nil {
		t.Error("empty operator request must error")
	}
	_, _, err = site.EvalLocal(ctx, engine.LocalRequest{Query: q, UpTo: 99})
	if err == nil {
		t.Error("out-of-range local request must error")
	}

	// Context cancellation short-circuits.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := site.EvalBase(cctx, gmdj.BaseQuery{Detail: "T", Cols: []string{"g"}}); err == nil {
		t.Error("cancelled context must error")
	}
}

func TestLocalSite(t *testing.T) {
	exerciseSite(t, NewLocalSite(testSite(t, 4)), 4, true)
}

func TestFastLocalSite(t *testing.T) {
	exerciseSite(t, NewFastLocalSite(testSite(t, 2)), 2, false)
}

func TestTCPSite(t *testing.T) {
	srv, err := Serve(testSite(t, 7), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	exerciseSite(t, cli, 7, true)
}

func TestTCPLoad(t *testing.T) {
	srv, err := Serve(engine.NewSite(1), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()

	rel := relation.New(relation.MustSchema(relation.Column{Name: "x", Kind: relation.KindInt}))
	rel.MustAppend(relation.Tuple{relation.NewInt(42)})
	if err := cli.Load(ctx, "pushed", rel); err != nil {
		t.Fatal(err)
	}
	got, _, err := cli.EvalBase(ctx, gmdj.BaseQuery{Detail: "pushed", Cols: []string{"x"}})
	if err != nil || got.Len() != 1 || got.Tuples[0][0].Int != 42 {
		t.Errorf("pushed data round-trip: %v %v", got, err)
	}
	// Invalid load is rejected remotely.
	if err := cli.Load(ctx, "", rel); err == nil {
		t.Error("empty-name load must error")
	}
}

func TestLocalSiteLoad(t *testing.T) {
	ls := NewLocalSite(engine.NewSite(0))
	rel := relation.New(relation.MustSchema(relation.Column{Name: "x", Kind: relation.KindInt}))
	if err := ls.Load(context.Background(), "T", rel); err != nil {
		t.Fatal(err)
	}
	if _, err := ls.DetailSchema(context.Background(), "T"); err != nil {
		t.Error("loaded table must be visible")
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	srv, err := Serve(testSite(t, 9), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			cli, err := Dial(srv.Addr())
			if err != nil {
				done <- err
				return
			}
			defer cli.Close()
			for j := 0; j < 5; j++ {
				if _, _, err := CollectOperator(context.Background(), cli, opRequest()); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

func TestTCPDeadline(t *testing.T) {
	srv, err := Serve(testSite(t, 1), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// A generous deadline succeeds.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, _, err := cli.EvalBase(ctx, gmdj.BaseQuery{Detail: "T", Cols: []string{"g"}}); err != nil {
		t.Errorf("call with deadline failed: %v", err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := Serve(testSite(t, 0), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("first close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if _, err := Dial(srv.Addr()); err == nil {
		t.Error("dial after close must fail")
	}
}

// Serialized sizes must grow with payload: a faithful byte accounting is what
// the Fig. 2 bytes-transferred experiment measures.
func TestLocalSiteByteAccountingScales(t *testing.T) {
	ls := NewLocalSite(testSite(t, 0))
	small := opRequest()
	big := opRequest()
	for g := int64(3); g < 1000; g++ {
		big.Base.MustAppend(relation.Tuple{relation.NewInt(g)})
	}
	_, callSmall, err := CollectOperator(context.Background(), ls, small)
	if err != nil {
		t.Fatal(err)
	}
	_, callBig, err := CollectOperator(context.Background(), ls, big)
	if err != nil {
		t.Fatal(err)
	}
	// 997 extra single-int rows must add at least a varint each (1-2 bytes
	// plus the NULL bitmap) beyond the fixed per-message overhead.
	if callBig.BytesDown < callSmall.BytesDown+1000 {
		t.Errorf("bytes down must scale with base size: small=%d big=%d",
			callSmall.BytesDown, callBig.BytesDown)
	}
	if callBig.RowsDown != 1000 {
		t.Errorf("RowsDown = %d, want 1000", callBig.RowsDown)
	}
}
