package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"skalla/internal/agg"
	"skalla/internal/engine"
	"skalla/internal/expr"
	"skalla/internal/gmdj"
	"skalla/internal/plan"
	"skalla/internal/relation"
	"skalla/internal/stats"
	"skalla/internal/transport"
	"skalla/internal/transport/faultinject"
)

// floatCells are the FLOAT measures one group has across the four sites.
// Their sum depends on the fold order: 1e16 + 1 rounds back to 1e16.
var floatCells = [4]float64{1e16, -1e16, 1, 1}

// bigGroup's bigGroupRows rows all sit on site 0, after the rows of groups
// 0..3. Their cells are bigGroupCell(0..bigGroupRows-1): folded in row order
// they sum to bigGroupRows/2 - 1, but a fold that adds up parts of the scan
// separately and then combines the parts need not.
const bigGroup, bigGroupRows = 4, 4096

func bigGroupCell(row int) float64 {
	switch row {
	case 0:
		return 1e16
	case bigGroupRows / 2:
		return -1e16
	}
	return 1
}

// floatEngines loads four sites with F(g INT, v FLOAT): site i holds one row
// per group g = 0..3, with v = floatCells[(i+g)%4], so every group meets the
// cells in another site order; site 0 also holds bigGroup.
func floatEngines(t *testing.T) []*engine.Site {
	t.Helper()
	schema := relation.MustSchema(
		relation.Column{Name: "g", Kind: relation.KindInt},
		relation.Column{Name: "v", Kind: relation.KindFloat},
	)
	engines := make([]*engine.Site, len(floatCells))
	for i := range engines {
		part := relation.New(schema)
		for g := range floatCells {
			part.MustAppend(relation.Tuple{relation.NewInt(int64(g)), relation.NewFloat(floatCells[(i+g)%len(floatCells)])})
		}
		for row := 0; i == 0 && row < bigGroupRows; row++ {
			part.MustAppend(relation.Tuple{relation.NewInt(bigGroup), relation.NewFloat(bigGroupCell(row))})
		}
		engines[i] = engine.NewSite(i)
		if err := engines[i].Load(context.Background(), "F", part); err != nil {
			t.Fatal(err)
		}
	}
	return engines
}

// TestSiteOrderedFoldIsDeterministic: a FLOAT SUM/AVG over groups that span
// four sites, and over a group one site holds thousands of rows of, must
// print the same bytes on every run, however a random per-site delay orders
// the streams' completion, at one proc and at four, and over every transport
// — and each group's SUM must be its cells folded in site order, and within a
// site in row order.
func TestSiteOrderedFoldIsDeterministic(t *testing.T) {
	q := gmdj.Query{
		Base: gmdj.BaseQuery{Detail: "F", Cols: []string{"g"}},
		Ops: []gmdj.Operator{{Detail: "F", Vars: []gmdj.GroupVar{{
			Aggs: []agg.Spec{{Func: agg.Sum, Arg: "v", As: "s"}, {Func: agg.Avg, Arg: "v", As: "a"}},
			Cond: expr.MustParse("B.g = R.g"),
		}}}},
	}
	engines := floatEngines(t)
	rng := rand.New(rand.NewSource(36))
	var want string
	var first *relation.Relation
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for name, connect := range testTransports() {
			inner := make([]transport.Site, len(engines))
			for i, es := range engines {
				inner[i] = connect(t, es)
			}
			for run := 0; run < 50; run++ {
				sites := make([]transport.Site, len(inner))
				for i, s := range inner {
					delay := time.Duration(rng.Int63n(int64(3 * time.Millisecond)))
					sites[i] = faultinject.Wrap(s, faultinject.Config{Delay: delay})
				}
				coord, err := New(sites, nil, stats.NetModel{})
				if err != nil {
					t.Fatal(err)
				}
				res, err := coord.ExecuteWith(context.Background(), q, plan.SelectNone())
				if err != nil {
					t.Fatalf("GOMAXPROCS=%d %s run %d: %v", procs, name, run, err)
				}
				got := res.Rel.Format(-1)
				if first == nil {
					want, first = got, res.Rel
				} else if got != want {
					t.Fatalf("GOMAXPROCS=%d %s run %d differs\ngot:\n%s\nwant:\n%s", procs, name, run, got, want)
				}
			}
		}
	}
	if first.Len() != len(floatCells)+1 {
		t.Fatalf("%d groups, want %d", first.Len(), len(floatCells)+1)
	}
	gi, si := first.Schema.MustIndex("g"), first.Schema.MustIndex("s")
	for _, row := range first.Rows() {
		g := int(row[gi].Int)
		var sum float64
		if g == bigGroup {
			for r := 0; r < bigGroupRows; r++ {
				sum += bigGroupCell(r)
			}
		} else {
			for i := range floatCells {
				sum += floatCells[(i+g)%len(floatCells)]
			}
		}
		if row[si].Float != sum {
			t.Errorf("group %d: SUM = %v, want %v (its cells folded in site order)", g, row[si].Float, sum)
		}
	}
}
