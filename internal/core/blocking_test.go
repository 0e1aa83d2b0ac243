package core

import (
	"context"
	"math/rand"
	"testing"

	"skalla/internal/gmdj"
	"skalla/internal/plan"
	"skalla/internal/stats"
)

// Row blocking must never change results, for any block size, option set, or
// query shape — only how H_i crosses the wire.
func TestRowBlockingPreservesResults(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	global := randomGlobal(rng, 150, 12)
	sites, cat := buildCluster(t, global, "T", 3, 4)
	for _, q := range []gmdj.Query{chainQuery(), independentQuery(), nonAlignedQuery()} {
		want, err := gmdj.EvalCentral(q, gmdj.Data{"T": global}, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, blockRows := range []int{0, 1, 7, 1000} {
			coord, _ := New(sites, cat, stats.NetModel{})
			coord.SetRowBlocking(blockRows)
			for _, sel := range []plan.Selection{plan.SelectNone(), plan.SelectRules("group-reduce-coord", "group-reduce-site")} {
				res, err := coord.ExecuteWith(context.Background(), q, sel)
				if err != nil {
					t.Fatalf("blockRows=%d [%s]: %v", blockRows, sel, err)
				}
				if !res.Rel.EqualMultiset(want) {
					t.Fatalf("blockRows=%d [%s]: result mismatch", blockRows, sel)
				}
			}
		}
	}
}

// With serialization on, blocking moves the same rows in more messages;
// total rows must be identical and bytes only differ by per-block framing.
func TestRowBlockingTrafficAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	global := randomGlobal(rng, 300, 12)
	run := func(blockRows int) *stats.Metrics {
		// Fresh cluster per run. The envelope keeps no state across
		// messages, so the first execution's traffic is the steady state.
		sites, cat := buildCluster(t, global, "T", 3, 4)
		coord, _ := New(sites, cat, stats.NetModel{})
		coord.SetRowBlocking(blockRows)
		res, err := coord.ExecuteWith(context.Background(), chainQuery(), plan.SelectNone())
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics
	}
	whole := run(0)
	blocked := run(5)
	if whole.TotalRows() != blocked.TotalRows() {
		t.Errorf("rows: %d vs %d", whole.TotalRows(), blocked.TotalRows())
	}
	if blocked.TotalBytesUp() <= whole.TotalBytesUp() {
		t.Errorf("blocking should add framing overhead: %d vs %d bytes up",
			blocked.TotalBytesUp(), whole.TotalBytesUp())
	}
	// Down traffic only grows by the encoded BlockRows field itself (a few
	// bytes per request).
	if diff := blocked.TotalBytesDown() - whole.TotalBytesDown(); diff < 0 || diff > 100 {
		t.Errorf("down traffic should be all but unaffected: %d vs %d",
			whole.TotalBytesDown(), blocked.TotalBytesDown())
	}
}
