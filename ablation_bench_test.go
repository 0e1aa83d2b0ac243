// Ablation benchmarks for the design choices DESIGN.md calls out: row
// blocking granularity, the in-process transport, the compiled
// local evaluation path, and the grouping-set (cube) workload.
package skalla_test

import (
	"context"
	"fmt"
	"testing"

	"skalla/internal/agg"
	"skalla/internal/bench"
	"skalla/internal/core"
	"skalla/internal/egil"
	"skalla/internal/engine"
	"skalla/internal/expr"
	"skalla/internal/gmdj"
	"skalla/internal/olap"
	"skalla/internal/plan"
	"skalla/internal/relation"
	"skalla/internal/stats"
	"skalla/internal/store"
	"skalla/internal/tpc"
	"skalla/internal/transport"
)

// BenchmarkRowBlocking measures the streaming synchronization at different
// block sizes (0 = each H_i whole). Smaller blocks overlap site compute and
// coordinator merge at the cost of per-block framing.
func BenchmarkRowBlocking(b *testing.B) {
	d := dataset(b)
	q := bench.TwoPhaseQuery(bench.HighCardAttr, true)
	for _, blockRows := range []int{0, 64, 512} {
		b.Run(fmt.Sprintf("blockRows=%d", blockRows), func(b *testing.B) {
			c, err := bench.NewTPCCluster(context.Background(), d, 4, stats.NetModel{})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			c.Coord.SetRowBlocking(blockRows)
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

// BenchmarkTransportOverhead runs the unoptimized two-phase query over four
// in-process sites: every message pays the envelope's encode and decode and
// crosses a pipe to the site's connection loop, as over a network.
func BenchmarkTransportOverhead(b *testing.B) {
	d := dataset(b)
	q := bench.TwoPhaseQuery(bench.HighCardAttr, true)
	b.Run("serialized", func(b *testing.B) {
		sites := make([]transport.Site, 4)
		for i := 0; i < 4; i++ {
			es := engine.NewSite(i)
			if err := es.Load(context.Background(), tpc.RelationName, d.Parts[i]); err != nil {
				b.Fatal(err)
			}
			sites[i] = localSite(b, es)
		}
		cat, err := d.Catalog(4)
		if err != nil {
			b.Fatal(err)
		}
		coord, err := core.New(sites, cat, stats.NetModel{})
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := coord.ExecuteWith(ctx, q, plan.SelectNone()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLocalEvalPath runs the unoptimized two-phase query on two sites'
// compiled evaluation path; Definition 1's literal nested loop is the oracle
// behind gmdj.EvalCentral(q, data, false), at no site.
func BenchmarkLocalEvalPath(b *testing.B) {
	cfg := benchConfig()
	cfg.Rows = 3000
	cfg.Customers = 1000
	d, err := tpc.Generate(cfg, 2)
	if err != nil {
		b.Fatal(err)
	}
	q := bench.TwoPhaseQuery(bench.HighCardAttr, true)
	b.Run("hash", func(b *testing.B) {
		sites := make([]transport.Site, 2)
		for i := 0; i < 2; i++ {
			es := engine.NewSite(i)
			if err := es.Load(context.Background(), tpc.RelationName, d.Parts[i]); err != nil {
				b.Fatal(err)
			}
			sites[i] = localSite(b, es)
		}
		coord, err := core.New(sites, nil, stats.NetModel{})
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := coord.ExecuteWith(ctx, q, plan.SelectNone()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDistributedCube measures the grouping-set workload: a full cube
// over three TPCR dimensions in one distributed GMDJ round.
func BenchmarkDistributedCube(b *testing.B) {
	d := dataset(b)
	cube, err := olap.CubeQuery(tpc.RelationName,
		[]string{"RegionKey", "MktSegment", "ShipMode"},
		bench.TwoPhaseQuery(bench.HighCardAttr, true).Ops[0].Vars[0].Aggs)
	if err != nil {
		b.Fatal(err)
	}
	c, err := bench.NewTPCCluster(context.Background(), d, 4, stats.NetModel{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Coord.ExecuteWith(ctx, cube, plan.SelectRules("group-reduce-site"))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(res.Rel.Len()), "cells")
		}
	}
}

// BenchmarkSiteEval measures one site's operator evaluation — the inner loop
// of every distributed round — on a 16k-group workload: one compiled scan of
// 160k rows.
func BenchmarkSiteEval(b *testing.B) {
	const rows, groups = 160_000, 16_384
	schema := relation.MustSchema(
		relation.Column{Name: "G", Kind: relation.KindInt},
		relation.Column{Name: "V", Kind: relation.KindInt},
	)
	detail := relation.New(schema)
	for i := 0; i < rows; i++ {
		// Knuth-hash the row index so consecutive rows hit scattered groups.
		g := int64(uint32(i) * 2654435761 % groups)
		detail.MustAppend(relation.Tuple{relation.NewInt(g), relation.NewInt(int64(i % 1000))})
	}
	op := gmdj.Operator{Detail: "Flow", Vars: []gmdj.GroupVar{{
		Aggs: []agg.Spec{
			{Func: agg.Count, As: "cnt"},
			{Func: agg.Sum, Arg: "V", As: "sum"},
			{Func: agg.Min, Arg: "V", As: "lo"},
			{Func: agg.Max, Arg: "V", As: "hi"},
		},
		Cond: expr.MustParse("B.G = R.G"),
	}}}
	ctx := context.Background()
	s := engine.NewSite(0)
	if err := s.Load(ctx, "Flow", detail); err != nil {
		b.Fatal(err)
	}
	base, err := s.EvalBase(ctx, gmdj.BaseQuery{Detail: "Flow", Cols: []string{"G"}})
	if err != nil {
		b.Fatal(err)
	}
	req := engine.OperatorRequest{Base: base, Op: op}
	b.SetBytes(rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.EvalOperator(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSiteEvalExample1 measures one site's share of the paper's Example 1
// over a string group key — the served benchmark's scan_heavy shape, at its
// partition size — as a served statement reaches the site: the witnessed
// local round of the base and MD1, then MD2 on the link plus
// R.ExtendedPrice >= B.avgp, its keys derived from the local reply. A
// handful of groups over 30k rows, so nearly all of the time is the per-row
// work.
func BenchmarkSiteEvalExample1(b *testing.B) { benchSiteExample1(b, "MktSegment") }

// BenchmarkSiteEvalExample1Int is BenchmarkSiteEvalExample1 over the INT
// RegionKey, the group key of scan_heavy's fourth template.
func BenchmarkSiteEvalExample1Int(b *testing.B) { benchSiteExample1(b, "RegionKey") }

func benchSiteExample1(b *testing.B, key string) {
	d := servedPartition(b)
	q, err := egil.Translate(example1Statement(key))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	s := engine.NewSite(0)
	if err := s.Load(ctx, tpc.RelationName, d.Parts[0]); err != nil {
		b.Fatal(err)
	}
	local := engine.LocalRequest{Query: q, UpTo: 1, Witness: true}
	reply, err := s.EvalLocal(ctx, local)
	if err != nil {
		b.Fatal(err)
	}
	// MD2's fragment carries MD1's finalized avgp for the groups the witness
	// keeps, in reply order, as the coordinator ships it: over one site, the
	// unfiltered prefix lists the groups in that order.
	unfiltered := q
	unfiltered.Base.Where = nil
	x1, err := gmdj.EvalPrefixX(ctx, unfiltered, gmdj.Data{tpc.RelationName: d.Parts[0]}, 1, true)
	if err != nil {
		b.Fatal(err)
	}
	derive := &engine.Derive{Keys: q.Keys(), Rows: reply.Len(), Kept: make([]byte, (reply.Len()+7)/8)}
	var kept []int32
	witness := reply.Schema.MustIndex(gmdj.WitnessColumn)
	for i := 0; i < reply.Len(); i++ {
		if reply.Value(i, witness).Int > 0 {
			derive.Kept[i>>3] |= 1 << (i & 7)
			kept = append(kept, int32(i))
		}
	}
	avgp := x1.Schema.MustIndex("avgp")
	values := relation.FromColumns(x1.Schema.Project([]int{avgp}), x1.Columns().Select(kept, []int{avgp}))
	md2 := engine.OperatorRequest{Base: values, Op: q.Ops[1], Guard: true, Derive: derive}
	b.SetBytes(int64(2 * d.Parts[0].Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.EvalLocal(ctx, local); err != nil {
			b.Fatal(err)
		}
		if _, err := s.EvalOperator(ctx, md2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSiteEvalLocalPrefix measures one site's filtered local prefix —
// paper_mix's fig2 shape, where the base, MD1 and MD2 of Example 1 over
// CustName all run at the site in one round with no witness — at the served
// partition size, for a few thousand groups.
func BenchmarkSiteEvalLocalPrefix(b *testing.B) {
	d := servedPartition(b)
	q, err := egil.Translate(example1Statement("CustName"))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	s := engine.NewSite(0)
	if err := s.Load(ctx, tpc.RelationName, d.Parts[0]); err != nil {
		b.Fatal(err)
	}
	req := engine.LocalRequest{Query: q, UpTo: 2}
	b.SetBytes(int64(2 * d.Parts[0].Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.EvalLocal(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// example1Statement is the served Example 1 statement grouped on key.
func example1Statement(key string) string {
	return "SELECT " + key + ", COUNT(*) AS cnt, AVG(ExtendedPrice) AS avgp FROM TPCR " +
		"WHERE Discount >= 0.005 GROUP BY " + key + " HAVING EACH ExtendedPrice >= avgp"
}

// servedPartition generates one site's partition at the served benchmark's
// size.
func servedPartition(b *testing.B) *tpc.Dataset {
	cfg := tpc.DefaultConfig()
	cfg.Rows, cfg.Customers, cfg.Clerks, cfg.Seed = 30_000, 8000, 4000, 1
	d, err := tpc.Generate(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkSiteEvalCube measures one site's share of the served cube_3d
// statement — the grouping-set base round and MD1 on three rollup links over
// STRING dimensions, at the served partition size — on a Load-ed partition
// (the compiled pattern kernels) and, as the scalar baseline, through the
// evaluator over the same rows as a SourceOf relation, which has no image
// (the scalar 2^n-probe scan).
func BenchmarkSiteEvalCube(b *testing.B) {
	benchSiteGroupingSets(b, "SELECT MktSegment, ShipMode, OrderPriority, COUNT(*) AS cnt, SUM(ExtendedPrice) AS total FROM TPCR "+
		"WHERE Discount >= 0.005 CUBE BY MktSegment, ShipMode, OrderPriority")
}

// BenchmarkSiteEvalRollup is BenchmarkSiteEvalCube for the served rollup_geo
// statement: the four prefix sets of three INT dimensions.
func BenchmarkSiteEvalRollup(b *testing.B) {
	benchSiteGroupingSets(b, "SELECT RegionKey, NationKey, CityKey, COUNT(*) AS cnt, SUM(ExtendedPrice) AS total FROM TPCR "+
		"WHERE Discount >= 0.005 ROLLUP BY RegionKey, NationKey, CityKey")
}

func benchSiteGroupingSets(b *testing.B, statement string) {
	d := servedPartition(b)
	q, err := egil.Translate(statement)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.Run("kernel", func(b *testing.B) {
		s := engine.NewSite(0)
		if err := s.Load(ctx, tpc.RelationName, d.Parts[0]); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(2 * d.Parts[0].Len()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b0, err := s.EvalBase(ctx, q.Base)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.EvalOperator(ctx, engine.OperatorRequest{Base: b0, Op: q.Ops[0]}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scalar", func(b *testing.B) {
		src := gmdj.SourceOf(d.Parts[0])
		b.SetBytes(int64(2 * d.Parts[0].Len()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b0, err := gmdj.EvalBase(ctx, q.Base, src)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := gmdj.AccumulateOperator(ctx, b0, q.Ops[0], src, true); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDiskVsMemoryScan measures the disk-backed segment store against
// in-memory partitions on the same workload (the store's segment cache
// absorbs re-scans; cold scans pay the codec's decode).
func BenchmarkDiskVsMemoryScan(b *testing.B) {
	cfg := benchConfig()
	cfg.Rows = 8000
	d, err := tpc.Generate(cfg, 2)
	if err != nil {
		b.Fatal(err)
	}
	q := bench.TwoPhaseQuery(bench.HighCardAttr, true)
	for _, disk := range []bool{false, true} {
		name := "memory"
		if disk {
			name = "disk"
		}
		b.Run(name, func(b *testing.B) {
			dir := b.TempDir()
			sites := make([]transport.Site, 2)
			for i := 0; i < 2; i++ {
				es := engine.NewSite(i)
				if disk {
					tbl, err := store.CreateFrom(fmt.Sprintf("%s/s%d", dir, i), tpc.RelationName, d.Parts[i], 1024)
					if err != nil {
						b.Fatal(err)
					}
					if err := es.LoadSource(tpc.RelationName, tbl); err != nil {
						b.Fatal(err)
					}
				} else if err := es.Load(context.Background(), tpc.RelationName, d.Parts[i]); err != nil {
					b.Fatal(err)
				}
				sites[i] = localSite(b, es)
			}
			coord, err := core.New(sites, nil, stats.NetModel{})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coord.ExecuteWith(ctx, q, plan.SelectNone()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOperatorRound measures one whole statement of the served
// group_heavy workload — Example 1 over the unaligned Clerk, at that
// workload's instance sizes — through a coordinator and four TCP sites on
// loopback under the server's default rule selection: a witnessed base+MD1
// local round, whose replies build X, then the MD2 operator round, in which
// X goes down to every site and H_2 comes back. What those two rounds ship
// and allocate is what this benchmark is made of; wire-B/op is the
// statement's bytes in both directions, exact.
func BenchmarkOperatorRound(b *testing.B) {
	cfg := tpc.DefaultConfig()
	cfg.Rows, cfg.Customers, cfg.Clerks, cfg.Seed = 16_000, 16_000, 8000, 1
	d, err := tpc.Generate(cfg, 4)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	sites := make([]transport.Site, 4)
	for i := range sites {
		es := engine.NewSite(i)
		if err := es.Load(ctx, tpc.RelationName, d.Parts[i]); err != nil {
			b.Fatal(err)
		}
		srv, err := transport.Serve(es, "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		cli, err := transport.Dial(srv.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer cli.Close()
		sites[i] = cli
	}
	cat, err := d.Catalog(4)
	if err != nil {
		b.Fatal(err)
	}
	coord, err := core.New(sites, cat, stats.NetModel{})
	if err != nil {
		b.Fatal(err)
	}
	q, err := egil.Translate("SELECT Clerk, COUNT(*) AS cnt, AVG(ExtendedPrice) AS avgp FROM TPCR WHERE Discount >= 0.005 GROUP BY Clerk HAVING EACH ExtendedPrice >= avgp")
	if err != nil {
		b.Fatal(err)
	}
	// One untimed statement warms the sites' caches and connections.
	if _, err := coord.ExecuteWith(ctx, q, plan.SelectAll()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wire int
	for i := 0; i < b.N; i++ {
		res, err := coord.ExecuteWith(ctx, q, plan.SelectAll())
		if err != nil {
			b.Fatal(err)
		}
		wire = res.Metrics.TotalBytes()
	}
	b.ReportMetric(float64(wire), "wire-B/op")
}

// localSite connects to es in process, closed when the benchmark ends.
func localSite(tb testing.TB, es transport.Backend) transport.Site {
	l := transport.NewLocalSite(es)
	tb.Cleanup(func() { l.Close() })
	return l
}
