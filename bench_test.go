// Benchmarks regenerating the paper's evaluation (Sect. 5): one benchmark
// per figure. Each measures a full distributed query evaluation and reports,
// besides ns/op, the experiment's own units — bytes and group rows
// transferred, and synchronization rounds — so the figure series can be read
// directly from `go test -bench=. -benchmem`. See EXPERIMENTS.md for a
// reference run and the paper-vs-measured comparison.
package skalla_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"skalla"
	"skalla/internal/bench"
	"skalla/internal/gmdj"
	"skalla/internal/plan"
	"skalla/internal/relation"
	"skalla/internal/stats"
	"skalla/internal/tpc"
)

// benchConfig is a medium instance: large enough that the traffic shapes
// match the paper's, small enough for quick iterations.
func benchConfig() tpc.Config {
	return tpc.Config{Rows: 12000, Customers: 4000, Nations: 25, CitiesPerNation: 24, Clerks: 600, Seed: 1}
}

var (
	benchOnce sync.Once
	benchData *tpc.Dataset
)

func dataset(b *testing.B) *tpc.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		d, err := tpc.Generate(benchConfig(), 8)
		if err != nil {
			panic(err)
		}
		benchData = d
	})
	return benchData
}

// runQuery executes the query once per iteration and reports traffic metrics
// from the last run.
func runQuery(b *testing.B, d *tpc.Dataset, n int, q gmdj.Query, sel plan.Selection) {
	b.Helper()
	c, err := bench.NewTPCCluster(context.Background(), d, n, stats.DefaultLAN())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	var last *stats.Metrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Coord.ExecuteWith(ctx, q, sel)
		if err != nil {
			b.Fatal(err)
		}
		last = res.Metrics
	}
	b.StopTimer()
	b.ReportMetric(float64(last.TotalBytes()), "wire-bytes/op")
	b.ReportMetric(float64(last.TotalRows()), "group-rows/op")
	b.ReportMetric(float64(last.NumRounds()), "rounds")
}

// BenchmarkFig2GroupReduction is Fig. 2: the dependent two-operator query on
// the high-cardinality partition-aligned attribute, across participating
// site counts, without reduction vs. site-side vs. coordinator-side vs.
// both. Expect wire-bytes to grow quadratically with sites on the
// no-reduction series and linearly once both reductions are on.
func BenchmarkFig2GroupReduction(b *testing.B) {
	d := dataset(b)
	q := bench.TwoPhaseQuery(bench.HighCardAttr, true)
	variants := []struct {
		name string
		sel  plan.Selection
	}{
		{"no-reduction", plan.SelectNone()},
		{"site-reduction", plan.SelectRules("group-reduce-site")},
		{"coord-reduction", plan.SelectRules("group-reduce-coord")},
		{"both-reductions", plan.SelectRules("group-reduce-coord", "group-reduce-site")},
	}
	for _, v := range variants {
		for _, n := range []int{2, 4, 8} {
			b.Run(fmt.Sprintf("%s/sites=%d", v.name, n), func(b *testing.B) {
				runQuery(b, d, n, q, v.sel)
			})
		}
	}
}

// BenchmarkFig3Coalescing is Fig. 3: the independent two-operator query,
// non-coalesced (3 rounds) vs. coalesced (2 rounds), at high and low
// grouping cardinality.
func BenchmarkFig3Coalescing(b *testing.B) {
	d := dataset(b)
	for _, card := range []struct {
		name string
		attr string
	}{{"high-card", bench.HighCardAttr}, {"low-card", bench.LowCardAttr}} {
		q := bench.TwoPhaseQuery(card.attr, false)
		for _, v := range []struct {
			name string
			sel  plan.Selection
		}{
			{"non-coalesced", plan.SelectNone()},
			{"coalesced", plan.SelectRules("coalesce")},
		} {
			for _, n := range []int{2, 4, 8} {
				b.Run(fmt.Sprintf("%s/%s/sites=%d", card.name, v.name, n), func(b *testing.B) {
					runQuery(b, d, n, q, v.sel)
				})
			}
		}
	}
}

// BenchmarkFig4SyncReduction is Fig. 4: the dependent (non-coalescible)
// query with and without synchronization reduction; with it, the plan
// becomes a single fully local round (Cor. 1).
func BenchmarkFig4SyncReduction(b *testing.B) {
	d := dataset(b)
	for _, card := range []struct {
		name string
		attr string
	}{{"high-card", bench.HighCardAttr}, {"low-card", bench.LowCardAlignedAttr}} {
		q := bench.TwoPhaseQuery(card.attr, true)
		for _, v := range []struct {
			name string
			sel  plan.Selection
		}{
			{"no-sync-reduction", plan.SelectNone()},
			{"sync-reduction", plan.SelectRules("local-prefix", "sync-skip")},
		} {
			for _, n := range []int{2, 4, 8} {
				b.Run(fmt.Sprintf("%s/%s/sites=%d", card.name, v.name, n), func(b *testing.B) {
					runQuery(b, d, n, q, v.sel)
				})
			}
		}
	}
}

// BenchmarkFig5ScaleUp is Fig. 5: four sites, per-site data scaled ×1..×4,
// all optimizations vs. none. Both series grow linearly with data size; the
// optimized one at roughly half the cost.
func BenchmarkFig5ScaleUp(b *testing.B) {
	base := benchConfig()
	base.Rows = 4000
	base.Customers = 1600
	q := bench.TwoPhaseQuery(bench.HighCardAttr, true)
	for _, scale := range []int{1, 2, 4} {
		cfg := base
		cfg.Rows = base.Rows * scale
		cfg.Customers = base.Customers * scale
		d, err := tpc.Generate(cfg, 4)
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range []struct {
			name string
			sel  plan.Selection
		}{
			{"unoptimized", plan.SelectNone()},
			{"optimized", plan.SelectAll()},
		} {
			b.Run(fmt.Sprintf("%s/scale=%d", v.name, scale), func(b *testing.B) {
				runQuery(b, d, 4, q, v.sel)
			})
		}
	}
}

// BenchmarkFig5ConstantGroups is the Sect. 5.3 variant of Fig. 5: the data
// grows but the group domain is fixed.
func BenchmarkFig5ConstantGroups(b *testing.B) {
	base := benchConfig()
	base.Rows = 4000
	base.Customers = 1600
	q := bench.TwoPhaseQuery(bench.HighCardAttr, true)
	for _, scale := range []int{1, 2, 4} {
		cfg := base
		cfg.Rows = base.Rows * scale // customers fixed
		d, err := tpc.Generate(cfg, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("optimized/scale=%d", scale), func(b *testing.B) {
			runQuery(b, d, 4, q, plan.SelectAll())
		})
	}
}

// BenchmarkWireCodec compares the column-major wire codec against per-payload
// gob encoding on an H_i-shaped relation (grouping key plus COUNT/AVG physical
// columns, the dominant payload of every synchronization round). The codec
// must come in well under gob — the acceptance bar is at least 30% fewer
// bytes — and bytes/op for both is reported so the margin is visible: the
// codec ships 34 839 B to gob's 120 951, its CustName column as a shared
// prefix with its digit suffixes' values bit-packed, its counts bit-packed
// above their minimum and its sums above their least IEEE 754 bits (44 066 B
// before the FLOAT and digit forms, 75 987 B before the INT and prefix ones).
// decode is the receiving side of one frame, on the heap, as Unmarshal
// decodes it. decode-warm decodes it into one set of slabs reset between decodes, as a
// round decodes a site's replies into the slabs it borrows: what it allocates
// is the STRING bytes, which a decode always builds on the heap, and the
// relation's headers. decode-bool decodes the same shape plus a BOOL column,
// packed bits that decode to Ints of 0 and 1. The sub-benchmarks share the
// process's heap, so each one's figures are comparable only from a process
// of its own (-bench 'BenchmarkWireCodec/decode$', say), not from one run of
// them all, where each measures whatever heap the ones before it left.
func BenchmarkWireCodec(b *testing.B) {
	// gobShadow is what gob alone would ship for the relation: its schema and
	// rows.
	type gobShadow struct {
		Schema relation.Schema
		Rows   []relation.Tuple
	}
	h := relation.New(relation.MustSchema(
		relation.Column{Name: "CustName", Kind: relation.KindString},
		relation.Column{Name: "cnt1", Kind: relation.KindInt},
		relation.Column{Name: "sum1", Kind: relation.KindFloat},
		relation.Column{Name: "cnt2", Kind: relation.KindInt},
		relation.Column{Name: "sum2", Kind: relation.KindFloat},
	))
	// Full-precision floats model real AVG/SUM aggregates (a mean of prices
	// has no trailing-zero mantissa for either encoder to exploit).
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		h.MustAppend(relation.Tuple{
			relation.NewString(tpc.CustNameOf(int64(i))),
			relation.NewInt(int64(1 + rng.Intn(97))),
			relation.NewFloat(rng.Float64() * 1e5),
			relation.NewInt(int64(1 + rng.Intn(13))),
			relation.NewFloat(rng.Float64() * 100),
		})
	}
	b.Run("codec", func(b *testing.B) {
		var size int
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := relation.Marshal(h)
			if err != nil {
				b.Fatal(err)
			}
			size = len(data)
		}
		b.ReportMetric(float64(size), "payload-bytes/op")
	})
	bools := relation.New(append(h.Schema.Clone(), relation.Column{Name: "ok", Kind: relation.KindBool}))
	for i, row := range h.Rows() {
		bools.MustAppend(append(row, relation.NewBool(i%3 == 0)))
	}
	var slabs relation.Slabs
	for _, c := range []struct {
		name  string
		rel   *relation.Relation
		slabs *relation.Slabs
	}{{"decode", h, nil}, {"decode-warm", h, &slabs}, {"decode-bool", bools, nil}} {
		b.Run(c.name, func(b *testing.B) {
			data, err := relation.Marshal(c.rel)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.slabs.Reset()
				if _, err := relation.NewCursor(data).Relation(c.slabs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.rel.Len()), "ns/row")
		})
	}
	b.Run("gob", func(b *testing.B) {
		var size int
		shadow := &gobShadow{Schema: h.Schema, Rows: h.Rows()}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(shadow); err != nil {
				b.Fatal(err)
			}
			size = buf.Len()
		}
		b.ReportMetric(float64(size), "payload-bytes/op")
	})
}

// BenchmarkSyncMerge measures the coordinator's Theorem 1 synchronization in
// isolation: merging per-site sub-aggregate relations into the key-indexed
// base-result structure. The merge is O(|H|); ns/op should scale linearly
// with the group count.
func BenchmarkSyncMerge(b *testing.B) {
	for _, groups := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			cfg := benchConfig()
			cfg.Customers = groups
			cfg.Rows = groups * 3
			d, err := tpc.Generate(cfg, 4)
			if err != nil {
				b.Fatal(err)
			}
			c, err := bench.NewTPCCluster(context.Background(), d, 4, stats.NetModel{})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			// A single-operator query keeps the measurement dominated by the
			// operator round's synchronization.
			q := bench.TwoPhaseQuery(bench.HighCardAttr, true)
			q.Ops = q.Ops[:1]
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Coord.ExecuteWith(ctx, q, plan.SelectNone()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlanCompile measures the planner alone: plan.Compile of the
// dependent two-operator chain on the non-aligned Clerk attribute against the
// four-site catalog, under no rules, every rule (sync-skip and
// group-reduce-site apply; Clerk partitions no site, so group-reduce-coord
// derives no reducer, and MD2's conditions do not contain MD1's), and auto
// (one candidate per subset of the three structure rules, 8 in all).
func BenchmarkPlanCompile(b *testing.B) {
	cat, err := dataset(b).Catalog(4)
	if err != nil {
		b.Fatal(err)
	}
	src := gmdj.Schemas{tpc.RelationName: tpc.Schema()}
	q := bench.TwoPhaseQuery(bench.LowCardAttr, true)
	model := plan.DefaultCostModel(stats.DefaultLAN())
	for _, sel := range []plan.Selection{plan.SelectNone(), plan.SelectAll(), plan.SelectAuto()} {
		b.Run(sel.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := plan.Compile(q, src, cat, 4, sel, model)
				if err != nil {
					b.Fatal(err)
				}
				compiledPlan = p
			}
		})
	}
}

// compiledPlan keeps BenchmarkPlanCompile's result live.
var compiledPlan *plan.Plan

// BenchmarkServedCacheHit measures one result-cache hit end to end through
// the query server: a Serve-d four-site cluster, one DialQueryServer session
// and one warmed statement of about 4 000 Clerk groups. An op is one
// statement round trip with zero site rounds (handler, reply frame, the
// client's decode), so B/op is what serving a cached result costs both ends.
func BenchmarkServedCacheHit(b *testing.B) {
	cfg := tpc.DefaultConfig()
	cfg.Rows, cfg.Customers, cfg.Clerks, cfg.Seed = 40_000, 8000, 4000, 1
	d, err := tpc.Generate(cfg, 4)
	if err != nil {
		b.Fatal(err)
	}
	cat, err := d.Catalog(4)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	cl, err := skalla.NewLocalCluster(4, skalla.WithCatalog(cat))
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	if err := cl.LoadPartitions(ctx, tpc.RelationName, d.Parts); err != nil {
		b.Fatal(err)
	}
	srv, err := skalla.Serve(cl, "127.0.0.1:0", skalla.ServerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	sess, err := skalla.DialQueryServer(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	const stmt = "SELECT Clerk, COUNT(*) AS cnt, SUM(ExtendedPrice) AS total FROM TPCR GROUP BY Clerk"
	// The untimed first statement runs the rounds and commits the result.
	warm, _, err := sess.Query(ctx, stmt)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sess.Query(ctx, stmt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(warm.Len()), "rows/op")
}
