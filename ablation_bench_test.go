// Ablation benchmarks for the design choices DESIGN.md calls out: row
// blocking granularity, the serializing vs. direct in-process transport, the
// hash-grouping vs. nested-loop local evaluation path, and the grouping-set
// (cube) workload.
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
			c.Coord.SetRowBlocking(blockRows)
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Coord.Execute(ctx, q, plan.None()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTransportOverhead compares the serializing in-process transport
// (wire-faithful byte accounting) against the direct dispatch transport:
// the difference is the gob encode/decode cost a real network would pay.
func BenchmarkTransportOverhead(b *testing.B) {
	d := dataset(b)
	q := bench.TwoPhaseQuery(bench.HighCardAttr, true)
	for _, serialized := range []bool{false, true} {
		name := "direct"
		if serialized {
			name = "serialized"
		}
		b.Run(name, func(b *testing.B) {
			sites := make([]transport.Site, 4)
			for i := 0; i < 4; i++ {
				es := engine.NewSite(i)
				if err := es.Load(context.Background(), tpc.RelationName, d.Parts[i]); err != nil {
					b.Fatal(err)
				}
				if serialized {
					sites[i] = transport.NewLocalSite(es)
				} else {
					sites[i] = transport.NewFastLocalSite(es)
				}
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
				if _, err := coord.Execute(ctx, q, plan.None()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLocalEvalPath compares the hash-grouping fast path against the
// literal nested-loop evaluation of Definition 1 at the sites.
func BenchmarkLocalEvalPath(b *testing.B) {
	cfg := benchConfig()
	cfg.Rows = 3000
	cfg.Customers = 1000
	d, err := tpc.Generate(cfg, 2)
	if err != nil {
		b.Fatal(err)
	}
	q := bench.TwoPhaseQuery(bench.HighCardAttr, true)
	for _, useHash := range []bool{true, false} {
		name := "hash"
		if !useHash {
			name = "nested-loop"
		}
		b.Run(name, func(b *testing.B) {
			sites := make([]transport.Site, 2)
			for i := 0; i < 2; i++ {
				es := engine.NewSite(i)
				es.SetUseHash(useHash)
				if err := es.Load(context.Background(), tpc.RelationName, d.Parts[i]); err != nil {
					b.Fatal(err)
				}
				sites[i] = transport.NewFastLocalSite(es)
			}
			coord, err := core.New(sites, nil, stats.NetModel{})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coord.Execute(ctx, q, plan.None()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
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
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Coord.Execute(ctx, cube, plan.Options{GroupReduceSite: true})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(res.Rel.Len()), "cells")
		}
	}
}

// BenchmarkTieredCoordinator compares a flat 8-site deployment against the
// same sites behind 2 relays (the multi-tier architecture of the paper's
// future work): the root's merge work drops with its fan-in.
func BenchmarkTieredCoordinator(b *testing.B) {
	d := dataset(b)
	q := bench.TwoPhaseQuery(bench.LowCardAttr, true) // unaligned: real fan-in
	build := func(relays int) *core.Coordinator {
		leaves := make([]transport.Site, 8)
		for i := 0; i < 8; i++ {
			es := engine.NewSite(i)
			if err := es.Load(context.Background(), tpc.RelationName, d.Parts[i]); err != nil {
				b.Fatal(err)
			}
			leaves[i] = transport.NewFastLocalSite(es)
		}
		var top []transport.Site
		if relays == 0 {
			top = leaves
		} else {
			per := 8 / relays
			for i := 0; i < relays; i++ {
				relay, err := core.NewRelay(i, leaves[i*per:(i+1)*per])
				if err != nil {
					b.Fatal(err)
				}
				top = append(top, transport.NewFastLocalSite(relay))
			}
		}
		coord, err := core.New(top, nil, stats.NetModel{})
		if err != nil {
			b.Fatal(err)
		}
		return coord
	}
	for _, cfgCase := range []struct {
		name   string
		relays int
	}{{"flat-8", 0}, {"2-relays", 2}, {"4-relays", 4}} {
		b.Run(cfgCase.name, func(b *testing.B) {
			coord := build(cfgCase.relays)
			ctx := context.Background()
			b.ResetTimer()
			var coordTime int64
			for i := 0; i < b.N; i++ {
				res, err := coord.Execute(ctx, q, plan.None())
				if err != nil {
					b.Fatal(err)
				}
				coordTime = int64(res.Metrics.CoordTime())
			}
			b.ReportMetric(float64(coordTime), "root-merge-ns")
		})
	}
}

// BenchmarkSiteEval measures one site's operator evaluation — the inner loop
// of every distributed round — at increasing worker counts on a 16k-group
// workload. workers=1 is the sequential baseline (the parallel machinery is
// bypassed entirely, so this sub-benchmark doubles as the no-regression
// check); higher counts shard the detail scan into private per-worker
// accumulators merged by Theorem 1. Speedup tracks available cores: on a
// single-core runner the series stay within noise of each other, on an
// 8-core machine workers=8 runs the scan ~6-7x faster.
func BenchmarkSiteEval(b *testing.B) {
	const rows, groups = 160_000, 16_384
	schema := relation.MustSchema(
		relation.Column{Name: "G", Kind: relation.KindInt},
		relation.Column{Name: "V", Kind: relation.KindInt},
	)
	detail := relation.New(schema)
	for i := 0; i < rows; i++ {
		// Knuth-hash the row index so group keys are spread, not clustered
		// by shard — every worker touches the whole group range.
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
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := engine.NewSite(0)
			if err := s.Load(ctx, "Flow", detail); err != nil {
				b.Fatal(err)
			}
			s.SetWorkers(workers)
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
		})
	}
}

// BenchmarkSiteEvalExample1 measures one site's share of the paper's Example 1
// over a string group key — the served benchmark's scan_heavy shape, at its
// partition size: the filtered base scan, MD1 on a pure link, and MD2 on the
// link plus R.ExtendedPrice >= B.avgp. Three scans of 30k rows for a handful
// of groups, so nearly all of the time is the per-row work.
func BenchmarkSiteEvalExample1(b *testing.B) {
	d := servedPartition(b)
	q, err := egil.Translate("SELECT MktSegment, COUNT(*) AS cnt, AVG(ExtendedPrice) AS avgp FROM TPCR " +
		"WHERE Discount >= 0.005 GROUP BY MktSegment HAVING EACH ExtendedPrice >= avgp")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	s := engine.NewSite(0)
	if err := s.Load(ctx, tpc.RelationName, d.Parts[0]); err != nil {
		b.Fatal(err)
	}
	s.SetWorkers(1)
	// MD2's base fragment carries MD1's finalized avgp, as the coordinator
	// would ship it.
	x1, err := gmdj.EvalPrefixX(q, s.Source(), 1, true)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(3 * d.Parts[0].Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b0, err := s.EvalBase(ctx, q.Base)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.EvalOperator(ctx, engine.OperatorRequest{Base: b0, Op: q.Ops[0]}); err != nil {
			b.Fatal(err)
		}
		if _, err := s.EvalOperator(ctx, engine.OperatorRequest{Base: x1, Op: q.Ops[1]}); err != nil {
			b.Fatal(err)
		}
	}
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
// (the compiled pattern kernels) and on the same rows behind a plain row
// source (the scalar 2^n-probe scan every source without a columnar image
// gets).
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
	for _, kernel := range []bool{true, false} {
		name := "kernel"
		if !kernel {
			name = "scalar"
		}
		b.Run(name, func(b *testing.B) {
			s := engine.NewSite(0)
			if kernel {
				err = s.Load(ctx, tpc.RelationName, d.Parts[0])
			} else {
				err = s.LoadSource(tpc.RelationName, gmdj.SourceOf(d.Parts[0]))
			}
			if err != nil {
				b.Fatal(err)
			}
			s.SetWorkers(1)
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
	}
}

// BenchmarkDiskVsMemoryScan measures the disk-backed segment store against
// in-memory partitions on the same workload (the store's segment cache
// absorbs re-scans; cold scans pay gob decode).
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
				sites[i] = transport.NewFastLocalSite(es)
			}
			coord, err := core.New(sites, nil, stats.NetModel{})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coord.Execute(ctx, q, plan.None()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOperatorRound measures one whole statement of the served
// group_heavy workload — Example 1 over the unaligned Clerk, at that
// workload's instance sizes — through a coordinator and four TCP sites on
// loopback under the server's default rule selection: a base round and two
// operator rounds in which X goes down to every site and H_i comes back. What
// an operator round ships and allocates is what this benchmark is made of;
// wire-B/op is the statement's bytes in both directions, exact.
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
	// One untimed statement pays the connections' gob type descriptors.
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
