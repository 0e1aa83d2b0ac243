package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"skalla/internal/agg"
	"skalla/internal/distrib"
	"skalla/internal/engine"
	"skalla/internal/expr"
	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/plan"
	"skalla/internal/relation"
	"skalla/internal/stats"
	"skalla/internal/transport"
)

// tSchema is the test detail relation: g is the partition attribute, h a
// secondary grouping attribute, v a measure.
var tSchema = relation.MustSchema(
	relation.Column{Name: "g", Kind: relation.KindInt},
	relation.Column{Name: "h", Kind: relation.KindInt},
	relation.Column{Name: "v", Kind: relation.KindInt},
)

// buildClusterImpl partitions global on column "g" into n range partitions
// of width per, loads them into n engine sites, and returns the transports
// plus the matching distribution catalog.
func buildClusterImpl(global *relation.Relation, name string, n int, per int64, fast bool) ([]transport.Site, *distrib.Catalog, error) {
	gi := global.Schema.MustIndex("g")
	sites := make([]transport.Site, n)
	filters := make([]distrib.SiteFilter, n)
	for i := 0; i < n; i++ {
		lo, hi := int64(i)*per, int64(i+1)*per-1
		if i == n-1 {
			hi = 1 << 30 // last site takes the tail so every row is owned
		}
		filters[i] = distrib.IntRange{Lo: lo, Hi: hi}
		part := global.Filter(func(tp relation.Tuple) bool {
			return tp[gi].Int >= lo && tp[gi].Int <= hi
		})
		es := engine.NewSite(i)
		if err := es.Load(context.Background(), name, part); err != nil {
			return nil, nil, err
		}
		if fast {
			sites[i] = transport.NewFastLocalSite(es)
		} else {
			sites[i] = transport.NewLocalSite(es)
		}
	}
	cat := distrib.NewCatalog(&distrib.Distribution{
		Relation: name,
		NumSites: n,
		Attrs:    []distrib.AttrInfo{{Attr: "g", Filters: filters, Disjoint: true}},
	})
	for rel := range cat.Relations {
		if err := cat.Relations[rel].Validate(); err != nil {
			return nil, nil, err
		}
	}
	return sites, cat, nil
}

// buildCluster is buildClusterImpl with *testing.T error plumbing.
func buildCluster(t *testing.T, global *relation.Relation, name string, n int, per int64, fast bool) ([]transport.Site, *distrib.Catalog) {
	t.Helper()
	sites, cat, err := buildClusterImpl(global, name, n, per, fast)
	if err != nil {
		t.Fatal(err)
	}
	return sites, cat
}

func randomGlobal(rng *rand.Rand, rows int, gRange int64) *relation.Relation {
	r := relation.New(tSchema)
	for i := 0; i < rows; i++ {
		r.MustAppend(relation.Tuple{
			relation.NewInt(rng.Int63n(gRange)),
			relation.NewInt(rng.Int63n(4)),
			relation.NewInt(rng.Int63n(100)),
		})
	}
	return r
}

// chainQuery is an Example 1-shaped correlated query: MD2's condition
// references MD1's aggregates; both are keyed on the partition attribute.
func chainQuery() gmdj.Query {
	return gmdj.Query{
		Base: gmdj.BaseQuery{Detail: "T", Cols: []string{"g", "h"}},
		Ops: []gmdj.Operator{
			{Detail: "T", Vars: []gmdj.GroupVar{{
				Aggs: []agg.Spec{
					{Func: agg.Count, As: "cnt1"},
					{Func: agg.Sum, Arg: "v", As: "sum1"},
					{Func: agg.Avg, Arg: "v", As: "avg1"},
				},
				Cond: expr.MustParse("B.g = R.g && B.h = R.h"),
			}}},
			{Detail: "T", Vars: []gmdj.GroupVar{{
				Aggs: []agg.Spec{
					{Func: agg.Count, As: "cnt2"},
					{Func: agg.Min, Arg: "v", As: "min2"},
					{Func: agg.Max, Arg: "v", As: "max2"},
				},
				Cond: expr.MustParse("B.g = R.g && B.h = R.h && R.v >= B.avg1"),
			}}},
		},
	}
}

// independentQuery has a coalescible second operator.
func independentQuery() gmdj.Query {
	return gmdj.Query{
		Base: gmdj.BaseQuery{Detail: "T", Cols: []string{"g", "h"}},
		Ops: []gmdj.Operator{
			{Detail: "T", Vars: []gmdj.GroupVar{{
				Aggs: []agg.Spec{{Func: agg.Count, As: "cnt1"}, {Func: agg.Avg, Arg: "v", As: "avg1"}},
				Cond: expr.MustParse("B.g = R.g && B.h = R.h"),
			}}},
			{Detail: "T", Vars: []gmdj.GroupVar{{
				Aggs: []agg.Spec{{Func: agg.Count, As: "cnt2"}},
				Cond: expr.MustParse("B.g = R.g && B.h = R.h && R.v > 50"),
			}}},
		},
	}
}

// nonAlignedQuery groups on h, which is not partition-aligned: groups span
// sites, exercising cross-site super-aggregation.
func nonAlignedQuery() gmdj.Query {
	return gmdj.Query{
		Base: gmdj.BaseQuery{Detail: "T", Cols: []string{"h"}},
		Ops: []gmdj.Operator{
			{Detail: "T", Vars: []gmdj.GroupVar{{
				Aggs: []agg.Spec{
					{Func: agg.Count, As: "cnt1"},
					{Func: agg.Sum, Arg: "v", As: "sum1"},
					{Func: agg.Avg, Arg: "v", As: "avg1"},
					{Func: agg.Min, Arg: "v", As: "min1"},
				},
				Cond: expr.MustParse("B.h = R.h"),
			}}},
			{Detail: "T", Vars: []gmdj.GroupVar{{
				Aggs: []agg.Spec{{Func: agg.Count, As: "cnt2"}},
				Cond: expr.MustParse("B.h = R.h && R.v * 2 >= B.avg1"),
			}}},
		},
	}
}

func allOptionCombos() []plan.Options {
	var out []plan.Options
	for i := 0; i < 16; i++ {
		out = append(out, plan.Options{
			Coalesce:         i&1 != 0,
			GroupReduceSite:  i&2 != 0,
			GroupReduceCoord: i&4 != 0,
			SyncReduce:       i&8 != 0,
		})
	}
	return out
}

// The central correctness property: for every query shape, every option
// combination, and randomized data, the distributed result equals the
// centralized Definition 1 evaluation.
func TestDistributedMatchesCentralized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	queries := map[string]gmdj.Query{
		"chain":       chainQuery(),
		"independent": independentQuery(),
		"nonaligned":  nonAlignedQuery(),
	}
	for trial := 0; trial < 6; trial++ {
		global := randomGlobal(rng, 30+trial*40, 12)
		sites, cat := buildCluster(t, global, "T", 3, 4, true)
		coord, err := New(sites, cat, stats.NetModel{})
		if err != nil {
			t.Fatal(err)
		}
		for qname, q := range queries {
			want, err := gmdj.EvalCentral(q, gmdj.Data{"T": global}, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range allOptionCombos() {
				res, err := coord.Execute(context.Background(), q, opts)
				if err != nil {
					t.Fatalf("trial %d %s opts [%s]: %v", trial, qname, opts, err)
				}
				if !res.Rel.EqualMultiset(want) {
					got, exp := res.Rel.Clone(), want.Clone()
					got.Sort()
					exp.Sort()
					t.Fatalf("trial %d %s opts [%s]: result mismatch\nplan:\n%s\ngot:\n%s\nwant:\n%s",
						trial, qname, opts, res.Plan.Describe(), got.Format(20), exp.Format(20))
				}
				if res.Metrics.NumRounds() != res.Plan.Rounds() {
					t.Errorf("%s [%s]: %d rounds executed, plan predicted %d",
						qname, opts, res.Metrics.NumRounds(), res.Plan.Rounds())
				}
			}
		}
	}
}

// Theorem 2: rows transferred never exceed Σ(2·s_i·|Q|) + s_0·|Q|.
func TestTheorem2Bound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	global := randomGlobal(rng, 200, 12)
	sites, cat := buildCluster(t, global, "T", 3, 4, true)
	coord, _ := New(sites, cat, stats.NetModel{})
	for _, q := range []gmdj.Query{chainQuery(), independentQuery(), nonAlignedQuery()} {
		for _, opts := range allOptionCombos() {
			res, err := coord.Execute(context.Background(), q, opts)
			if err != nil {
				t.Fatal(err)
			}
			bound := TrafficBound(res.Plan, res.Rel.Len())
			if got := res.Metrics.TotalRows(); got > bound {
				t.Errorf("opts [%s]: %d rows transferred exceeds Theorem 2 bound %d", opts, got, bound)
			}
		}
	}
}

// Optimizations must strictly reduce traffic on the aligned chain query.
func TestOptimizationsReduceTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	global := randomGlobal(rng, 400, 12)
	sites, cat := buildCluster(t, global, "T", 3, 4, false) // serialized transport: real bytes
	coord, _ := New(sites, cat, stats.NetModel{})
	ctx := context.Background()

	baseline, err := coord.Execute(ctx, chainQuery(), plan.None())
	if err != nil {
		t.Fatal(err)
	}
	full, err := coord.Execute(ctx, chainQuery(), plan.All())
	if err != nil {
		t.Fatal(err)
	}
	if full.Metrics.TotalBytes() >= baseline.Metrics.TotalBytes() {
		t.Errorf("all optimizations: %d bytes, baseline %d — expected reduction",
			full.Metrics.TotalBytes(), baseline.Metrics.TotalBytes())
	}
	if full.Metrics.NumRounds() != 1 || baseline.Metrics.NumRounds() != 3 {
		t.Errorf("rounds: full=%d baseline=%d", full.Metrics.NumRounds(), baseline.Metrics.NumRounds())
	}

	// Site-side guard alone reduces the up-traffic on the aligned query
	// (each site only matches ~1/n of the groups).
	guard, err := coord.Execute(ctx, chainQuery(), plan.Options{GroupReduceSite: true})
	if err != nil {
		t.Fatal(err)
	}
	if guard.Metrics.TotalBytesUp() >= baseline.Metrics.TotalBytesUp() {
		t.Errorf("guard up-bytes %d, baseline %d", guard.Metrics.TotalBytesUp(), baseline.Metrics.TotalBytesUp())
	}
	// Coordinator-side reduction alone reduces the down-traffic.
	coordRed, err := coord.Execute(ctx, chainQuery(), plan.Options{GroupReduceCoord: true})
	if err != nil {
		t.Fatal(err)
	}
	if coordRed.Metrics.TotalBytesDown() >= baseline.Metrics.TotalBytesDown() {
		t.Errorf("coord-reduction down-bytes %d, baseline %d",
			coordRed.Metrics.TotalBytesDown(), baseline.Metrics.TotalBytesDown())
	}
}

// Multi-relation queries: the base comes from one relation, an operator
// consumes another (the paper's R_k may differ per round).
func TestMultiRelationQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	t1 := randomGlobal(rng, 60, 12)
	t2 := randomGlobal(rng, 80, 12)
	gi := tSchema.MustIndex("g")

	n, per := 3, int64(4)
	sites := make([]transport.Site, n)
	for i := 0; i < n; i++ {
		lo, hi := int64(i)*per, int64(i+1)*per-1
		es := engine.NewSite(i)
		for name, rel := range map[string]*relation.Relation{"T1": t1, "T2": t2} {
			part := rel.Filter(func(tp relation.Tuple) bool {
				return tp[gi].Int >= lo && tp[gi].Int <= hi
			})
			if err := es.Load(context.Background(), name, part); err != nil {
				t.Fatal(err)
			}
		}
		sites[i] = transport.NewFastLocalSite(es)
	}
	q := gmdj.Query{
		Base: gmdj.BaseQuery{Detail: "T1", Cols: []string{"h"}},
		Ops: []gmdj.Operator{
			{Detail: "T2", Vars: []gmdj.GroupVar{{
				Aggs: []agg.Spec{{Func: agg.Count, As: "c2"}, {Func: agg.Sum, Arg: "v", As: "s2"}},
				Cond: expr.MustParse("B.h = R.h"),
			}}},
			{Detail: "T1", Vars: []gmdj.GroupVar{{
				Aggs: []agg.Spec{{Func: agg.Count, As: "c1"}},
				Cond: expr.MustParse("B.h = R.h && R.v <= B.s2"),
			}}},
		},
	}
	want, err := gmdj.EvalCentral(q, gmdj.Data{"T1": t1, "T2": t2}, true)
	if err != nil {
		t.Fatal(err)
	}
	coord, _ := New(sites, nil, stats.NetModel{})
	for _, opts := range []plan.Options{plan.None(), plan.All()} {
		res, err := coord.Execute(context.Background(), q, opts)
		if err != nil {
			t.Fatalf("[%s]: %v", opts, err)
		}
		if !res.Rel.EqualMultiset(want) {
			t.Errorf("[%s]: multi-relation mismatch", opts)
		}
	}
}

func TestBaseFilterPropagates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	global := randomGlobal(rng, 100, 12)
	sites, cat := buildCluster(t, global, "T", 3, 4, true)
	coord, _ := New(sites, cat, stats.NetModel{})
	q := chainQuery()
	q.Base.Where = expr.MustParse("R.v > 20")
	want, err := gmdj.EvalCentral(q, gmdj.Data{"T": global}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []plan.Options{plan.None(), plan.All()} {
		res, err := coord.Execute(context.Background(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Rel.EqualMultiset(want) {
			t.Errorf("[%s]: filtered base mismatch", opts)
		}
	}
}

func TestCoordinatorErrors(t *testing.T) {
	if _, err := New(nil, nil, stats.NetModel{}); err == nil {
		t.Error("no sites must error")
	}
	global := randomGlobal(rand.New(rand.NewSource(1)), 10, 12)
	sites, cat := buildCluster(t, global, "T", 2, 6, true)
	coord, _ := New(sites, cat, stats.NetModel{})
	// Invalid query surfaces a planning error.
	bad := chainQuery()
	bad.Base.Cols = []string{"zz"}
	if _, err := coord.Execute(context.Background(), bad, plan.None()); err == nil {
		t.Error("invalid query must error")
	}
	// Unknown relation.
	bad2 := chainQuery()
	bad2.Base.Detail = "Nope"
	bad2.Ops[0].Detail = "Nope"
	bad2.Ops[1].Detail = "Nope"
	if _, err := coord.Execute(context.Background(), bad2, plan.None()); err == nil {
		t.Error("unknown relation must error")
	}
	// Cancelled context aborts.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := coord.Execute(ctx, chainQuery(), plan.None()); err == nil {
		t.Error("cancelled context must error")
	}
}

func TestEmptyGroupsKeepIdentity(t *testing.T) {
	// Groups no site reports on (guard enabled) must still appear with
	// COUNT 0 / NULL aggregates in the final result.
	global := relation.New(tSchema)
	rows := [][3]int64{{0, 0, 10}, {0, 1, 90}, {5, 0, 30}}
	for _, x := range rows {
		global.MustAppend(relation.Tuple{relation.NewInt(x[0]), relation.NewInt(x[1]), relation.NewInt(x[2])})
	}
	sites, cat := buildCluster(t, global, "T", 2, 4, true)
	coord, _ := New(sites, cat, stats.NetModel{})
	// The second operator's residual predicate matches nothing for (0,0).
	q := gmdj.Query{
		Base: gmdj.BaseQuery{Detail: "T", Cols: []string{"g", "h"}},
		Ops: []gmdj.Operator{{Detail: "T", Vars: []gmdj.GroupVar{{
			Aggs: []agg.Spec{{Func: agg.Count, As: "c"}, {Func: agg.Sum, Arg: "v", As: "s"}},
			Cond: expr.MustParse("B.g = R.g && B.h = R.h && R.v > 50"),
		}}}},
	}
	res, err := coord.Execute(context.Background(), q, plan.Options{GroupReduceSite: true, GroupReduceCoord: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 3 {
		t.Fatalf("groups = %d, want 3\n%s", res.Rel.Len(), res.Rel)
	}
	ci, si := res.Rel.Schema.MustIndex("c"), res.Rel.Schema.MustIndex("s")
	for _, row := range res.Rel.Tuples {
		if row[0].Int == 0 && row[1].Int == 0 {
			if row[ci].Int != 0 || !row[si].IsNull() {
				t.Errorf("empty group aggregates = %v / %v, want 0 / NULL", row[ci], row[si])
			}
		}
	}
}

func TestMergerUnit(t *testing.T) {
	q := independentQuery()
	src := gmdj.Schemas{"T": tSchema}
	xs, err := gmdj.XSchemas(q, src)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := buildSegments(q, src, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := newMerger([]string{"g", "h"}, xs, segs, nil)

	base := relation.New(xs[0])
	base.MustAppend(relation.Tuple{relation.NewInt(1), relation.NewInt(0)})
	base.MustAppend(relation.Tuple{relation.NewInt(1), relation.NewInt(0)}) // dup: must dedup
	base.MustAppend(relation.Tuple{relation.NewInt(2), relation.NewInt(1)})
	if err := m.InitBase(base); err != nil {
		t.Fatal(err)
	}
	if m.X().Len() != 2 {
		t.Fatalf("dedup: %d rows", m.X().Len())
	}
	if err := m.Extend(); err != nil {
		t.Fatal(err)
	}
	if m.Extended() != 1 || !m.X().Schema.Equal(xs[1]) {
		t.Fatalf("extend: extended=%d schema=%s", m.Extended(), m.X().Schema)
	}
	// Merge one H: the X row's ordinal + phys (cnt1, avg1_sum, avg1_cnt).
	h := relation.New(relation.MustSchema(
		relation.Column{Name: engine.OrdinalColumn, Kind: relation.KindInt},
		relation.Column{Name: "cnt1", Kind: relation.KindInt},
		relation.Column{Name: "avg1_sum", Kind: relation.KindInt},
		relation.Column{Name: "avg1_cnt", Kind: relation.KindInt},
	))
	h.MustAppend(relation.Tuple{relation.NewInt(0), relation.NewInt(2), relation.NewInt(10), relation.NewInt(2)})
	if err := m.MergeH(h, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.MergeH(h, 0); err != nil { // second site's identical H doubles it
		t.Fatal(err)
	}
	m.RecomputeDerived(1)
	row := m.X().Tuples[0]
	cntIdx := m.X().Schema.MustIndex("cnt1")
	avgIdx := m.X().Schema.MustIndex("avg1")
	if row[cntIdx].Int != 4 {
		t.Errorf("merged cnt1 = %v", row[cntIdx])
	}
	if row[avgIdx].Float != 5.0 {
		t.Errorf("derived avg1 = %v", row[avgIdx])
	}
	// H naming a row X does not have errors.
	h2 := h.Clone()
	h2.Tuples[0][0] = relation.NewInt(99)
	if err := m.MergeH(h2, 0); !errors.Is(err, ErrMalformedH) {
		t.Errorf("out-of-range ordinal = %v, want ErrMalformedH", err)
	}
	// Merging the wrong operator errors.
	if err := m.MergeH(h, 1); err == nil {
		t.Error("wrong operator index must error")
	}
	// Extending past the last operator errors.
	if err := m.Extend(); err != nil {
		t.Fatal(err)
	}
	if err := m.Extend(); err == nil {
		t.Error("extend past last operator must error")
	}
}

func TestTrafficBoundFormula(t *testing.T) {
	src := gmdj.Schemas{"T": tSchema}
	pl, err := plan.New(chainQuery(), src, nil, 4, plan.None())
	if err != nil {
		t.Fatal(err)
	}
	// m=2 operators, n=4 sites, |Q|=10: (2*2+1)*4*10 = 200.
	if got := TrafficBound(pl, 10); got != 200 {
		t.Errorf("TrafficBound = %d, want 200", got)
	}
}

// Hash partitioning end to end: data split by hash(g), the catalog declaring
// HashFilters; aligned queries still go fully local and match the oracle.
func TestHashPartitionedCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	global := randomGlobal(rng, 150, 20)
	gi := global.Schema.MustIndex("g")
	n := 3
	filters := distrib.HashPartition(n)
	sites := make([]transport.Site, n)
	for i := 0; i < n; i++ {
		part := global.Filter(func(tp relation.Tuple) bool {
			return filters[i].Contains(tp[gi])
		})
		es := engine.NewSite(i)
		if err := es.Load(context.Background(), "T", part); err != nil {
			t.Fatal(err)
		}
		sites[i] = transport.NewFastLocalSite(es)
	}
	dist := &distrib.Distribution{
		Relation: "T", NumSites: n,
		Attrs: []distrib.AttrInfo{{Attr: "g", Filters: filters, Disjoint: true}},
	}
	if err := dist.Validate(); err != nil {
		t.Fatal(err)
	}
	coord, _ := New(sites, distrib.NewCatalog(dist), stats.NetModel{})
	q := chainQuery()
	want, err := gmdj.EvalCentral(q, gmdj.Data{"T": global}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range allOptionCombos() {
		res, err := coord.Execute(context.Background(), q, opts)
		if err != nil {
			t.Fatalf("[%s]: %v", opts, err)
		}
		if !res.Rel.EqualMultiset(want) {
			t.Fatalf("[%s]: hash-partitioned mismatch", opts)
		}
	}
	// The aligned query goes fully local under sync reduction.
	pl, err := coord.Plan(context.Background(), q, plan.Options{SyncReduce: true})
	if err != nil || !pl.FullLocal {
		t.Errorf("hash partitioning must enable Cor. 1: %v, %v", pl, err)
	}
	// Coordinator-side group reduction works off the hash filters too.
	base, _ := coord.Execute(context.Background(), q, plan.None())
	red, err := coord.Execute(context.Background(), q, plan.Options{GroupReduceCoord: true})
	if err != nil {
		t.Fatal(err)
	}
	if red.Metrics.TotalRows() >= base.Metrics.TotalRows() {
		t.Errorf("hash-based coord reduction moved %d rows, baseline %d",
			red.Metrics.TotalRows(), base.Metrics.TotalRows())
	}
}

// A line observer attached to the coordinator sees every round and site
// exchange, without changing results.
func TestLineObserverTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	global := randomGlobal(rng, 60, 12)
	sites, cat := buildCluster(t, global, "T", 3, 4, true)
	coord, _ := New(sites, cat, stats.NetModel{})
	var buf bytes.Buffer
	coord.SetObserver(obs.NewLineObserver(&buf))
	res, err := coord.Execute(context.Background(), chainQuery(), plan.None())
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"round base: start", "round MD1: start", "round MD2: done", "site 0", "site 2"} {
		if !strings.Contains(out, frag) {
			t.Errorf("trace missing %q:\n%s", frag, out)
		}
	}
	// 3 rounds × (start + 3 site lines + done) = 15 lines; the query
	// start/end events render no line.
	if lines := strings.Count(out, "\n"); lines != 15 {
		t.Errorf("trace lines = %d, want 15:\n%s", lines, out)
	}
	// Detaching stops tracing; results unaffected either way.
	coord.SetObserver(nil)
	buf.Reset()
	res2, err := coord.Execute(context.Background(), chainQuery(), plan.None())
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Error("detached observer still wrote")
	}
	if !res.Rel.EqualMultiset(res2.Rel) {
		t.Error("tracing changed results")
	}
}
