package bench

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"skalla/internal/agg"
	"skalla/internal/core"
	"skalla/internal/engine"
	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/olap"
	"skalla/internal/plan"
	"skalla/internal/stats"
	"skalla/internal/tpc"
	"skalla/internal/transport"
)

// TestCallBytesArePureFunctionOfQuery: Example 1, a rollup and a
// Clerk-grouped query run twice on fresh in-process clusters and twice on
// fresh TCP clusters, under fixed query IDs; every site call ships the same
// bytes down and up in all four runs. Nothing a call measures (its timings)
// changes what it ships.
func TestCallBytesArePureFunctionOfQuery(t *testing.T) {
	d := smallDataset(t, 3)
	rollup, err := olap.RollupQuery(tpc.RelationName, []string{"NationKey", "CityKey"},
		[]agg.Spec{{Func: agg.Count, As: "cnt"}, {Func: agg.Sum, Arg: "ExtendedPrice", As: "rev"}})
	if err != nil {
		t.Fatal(err)
	}
	queries := []struct {
		name string
		q    gmdj.Query
	}{{"example1", TwoPhaseQuery(HighCardAttr, true)}, {"rollup", rollup}, {"clerk", TwoPhaseQuery(LowCardAttr, true)}}
	callBytes := func(tcp bool) []string {
		sites := make([]transport.Site, d.NumSites)
		for i := range sites {
			es := engine.NewSite(i)
			if err := es.Load(context.Background(), tpc.RelationName, d.Parts[i]); err != nil {
				t.Fatal(err)
			}
			if !tcp {
				l := transport.NewLocalSite(es)
				t.Cleanup(func() { l.Close() })
				sites[i] = l
				continue
			}
			srv, err := transport.Serve(es, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			cli, err := transport.Dial(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cli.Close() })
			sites[i] = cli
		}
		cat, err := d.Catalog(d.NumSites)
		if err != nil {
			t.Fatal(err)
		}
		coord, err := core.New(sites, cat, stats.NetModel{})
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for qi, q := range queries {
			for _, sel := range []plan.Selection{plan.SelectNone(), plan.SelectAll()} {
				ctx := obs.WithQueryID(context.Background(), fmt.Sprintf("q%011d", qi))
				res, err := coord.ExecuteWith(ctx, q.q, sel)
				if err != nil {
					t.Fatalf("%s [%s]: %v", q.name, sel, err)
				}
				for _, r := range res.Metrics.Rounds {
					for _, c := range r.Calls {
						out = append(out, fmt.Sprintf("%s [%s] %s site %d: %d down, %d up", q.name, sel, r.Name, c.Site, c.BytesDown, c.BytesUp))
					}
				}
			}
		}
		slices.Sort(out) // calls of a round complete in any order
		return out
	}
	want := callBytes(false)
	for run, tcp := range []bool{false, true, true} {
		if got := callBytes(tcp); !slices.Equal(got, want) {
			t.Errorf("run %d (tcp %v) shipped other bytes than the first in-process run:\n%v\nwant\n%v", run+2, tcp, got, want)
		}
	}
}
