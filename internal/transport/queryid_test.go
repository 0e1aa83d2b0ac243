package transport

import (
	"context"
	"testing"

	"skalla/internal/gmdj"
	"skalla/internal/obs"
)

// TestQueryIDPropagatesOverTCP runs a real exchange and checks the
// context-carried query ID lands in the transport metrics on both ends.
func TestQueryIDPropagatesOverTCP(t *testing.T) {
	srv, err := Serve(testSite(t, 3), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	qid := obs.NewQueryID()
	ctx := obs.WithQueryID(context.Background(), qid)
	rel, call, err := cli.EvalBase(ctx, gmdj.BaseQuery{Detail: "T", Cols: []string{"g"}})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 3 {
		t.Errorf("base result %d rows, want 3", rel.Len())
	}
	if call.BytesUp == 0 || call.BytesDown == 0 {
		t.Errorf("call accounting empty: %+v", call)
	}
	// Client-side metrics carry the query label.
	if got := obs.TransportBytes.With("3", "up", qid).Value(); got == 0 {
		t.Error("transport up-bytes not recorded under the query ID")
	}
	if got := obs.TransportBytes.With("3", "down", qid).Value(); got == 0 {
		t.Error("transport down-bytes not recorded under the query ID")
	}
	if got := obs.TransportCalls.With("3", "base").Value(); got == 0 {
		t.Error("transport call not counted")
	}
}

// TestQueryIDPropagatesThroughLocalSite exercises an in-process site, the
// one the benchmarks use.
func TestQueryIDPropagatesThroughLocalSite(t *testing.T) {
	l := localSite(t, testSite(t, 3))
	qid := obs.NewQueryID()
	ctx := obs.WithQueryID(context.Background(), qid)
	base, _, err := l.EvalBase(ctx, gmdj.BaseQuery{Detail: "T", Cols: []string{"g"}})
	if err != nil {
		t.Fatal(err)
	}
	if base.Len() != 3 {
		t.Fatalf("base result %d rows", base.Len())
	}
	if got := obs.TransportBytes.With("3", "up", qid).Value(); got == 0 {
		t.Error("local transport bytes not recorded under the query ID")
	}
}

// TestUntaggedContextUsesNoneLabel: calls outside a query span land on the
// "none" query label rather than minting unbounded series.
func TestUntaggedContextUsesNoneLabel(t *testing.T) {
	l := localSite(t, testSite(t, 3))
	before := obs.TransportBytes.With("3", "up", "none").Value()
	if _, _, err := l.EvalBase(context.Background(), gmdj.BaseQuery{Detail: "T", Cols: []string{"g"}}); err != nil {
		t.Fatal(err)
	}
	if got := obs.TransportBytes.With("3", "up", "none").Value(); got <= before {
		t.Error("untagged call not recorded under the none label")
	}
}
