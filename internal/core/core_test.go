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

// localSite connects to b in process, closed when the test ends.
func localSite(t testing.TB, b transport.Backend) transport.Site {
	l := transport.NewLocalSite(b)
	t.Cleanup(func() { l.Close() })
	return l
}

// buildClusterImpl partitions global on column "g" into n range partitions
// of width per, loads them into n engine sites, and returns them connected
// in process, closed when the test ends, plus the matching distribution
// catalog.
func buildClusterImpl(t testing.TB, global *relation.Relation, name string, n int, per int64) ([]transport.Site, *distrib.Catalog, error) {
	return buildClusterWith(global, name, n, per, func(es *engine.Site) (transport.Site, error) {
		return localSite(t, es), nil
	})
}

// buildClusterWith is buildClusterImpl with the transport left to connect.
func buildClusterWith(global *relation.Relation, name string, n int, per int64, connect func(*engine.Site) (transport.Site, error)) ([]transport.Site, *distrib.Catalog, error) {
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
		var err error
		if sites[i], err = connect(es); err != nil {
			return nil, nil, err
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
func buildCluster(t *testing.T, global *relation.Relation, name string, n int, per int64) ([]transport.Site, *distrib.Catalog) {
	t.Helper()
	sites, cat, err := buildClusterImpl(t, global, name, n, per)
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

// switchSelection maps the paper's four Sect. 5 switches onto rules; sync
// reduction is local-prefix plus sync-skip.
func switchSelection(coalesce, siteGuard, coordReduce, syncReduce bool) plan.Selection {
	on := map[string]bool{"coalesce": coalesce, "local-prefix": syncReduce, "sync-skip": syncReduce,
		"group-reduce-coord": coordReduce, "group-reduce-site": siteGuard}
	var names []string
	for _, n := range plan.RuleNames() {
		if on[n] {
			names = append(names, n)
		}
	}
	return plan.SelectRules(names...)
}

// switchCombos is every combination of the four Sect. 5 switches.
func switchCombos() []plan.Selection {
	var out []plan.Selection
	for i := 0; i < 16; i++ {
		out = append(out, switchSelection(i&1 != 0, i&2 != 0, i&4 != 0, i&8 != 0))
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
		sites, cat := buildCluster(t, global, "T", 3, 4)
		coord, err := New(sites, cat, stats.NetModel{})
		if err != nil {
			t.Fatal(err)
		}
		for qname, q := range queries {
			want, err := gmdj.EvalCentral(q, gmdj.Data{"T": global}, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, sel := range switchCombos() {
				res, err := coord.ExecuteWith(context.Background(), q, sel)
				if err != nil {
					t.Fatalf("trial %d %s sel [%s]: %v", trial, qname, sel, err)
				}
				if !res.Rel.EqualMultiset(want) {
					got, exp := res.Rel.Clone(), want.Clone()
					got.Sort()
					exp.Sort()
					t.Fatalf("trial %d %s sel [%s]: result mismatch\nplan:\n%s\ngot:\n%s\nwant:\n%s",
						trial, qname, sel, res.Plan.Describe(), got.Format(20), exp.Format(20))
				}
				if res.Metrics.NumRounds() != res.Plan.Rounds() {
					t.Errorf("%s [%s]: %d rounds executed, plan predicted %d",
						qname, sel, res.Metrics.NumRounds(), res.Plan.Rounds())
				}
			}
		}
	}
}

// Theorem 2: rows transferred never exceed Σ(2·s_i·|Q|) + s_0·|Q|, with a
// witnessed round's |Q| the base's before its filter. The selective case is
// the witness's worst: σ admits 2 of the 99 groups on v, yet the local round
// reports every group each site holds.
func TestTheorem2Bound(t *testing.T) {
	selective := observedQuery("v")
	selective.Base.Where = expr.MustParse("R.v >= 98")
	for _, tc := range []struct {
		global     *relation.Relation
		sites, per int
		queries    []gmdj.Query
	}{
		{randomGlobal(rand.New(rand.NewSource(11)), 200, 12), 3, 4, []gmdj.Query{chainQuery(), independentQuery(), nonAlignedQuery()}},
		{randomGlobal(rand.New(rand.NewSource(3)), 400, 40), 4, 10, []gmdj.Query{selective}},
	} {
		sites, cat := buildCluster(t, tc.global, "T", tc.sites, int64(tc.per))
		coord, _ := New(sites, cat, stats.NetModel{})
		for _, q := range tc.queries {
			unfiltered := unfilteredGroups(t, q, tc.global)
			for _, sel := range append(switchCombos(), plan.SelectAll(), plan.SelectAuto()) {
				res, err := coord.ExecuteWith(context.Background(), q, sel)
				if err != nil {
					t.Fatal(err)
				}
				bound := res.Plan.TrafficBound(res.Rel.Len(), unfiltered)
				if got := res.Metrics.TotalRows(); got > bound {
					t.Errorf("sel [%s]: %d rows transferred exceeds Theorem 2 bound %d\n%s", sel, got, bound, res.Plan.Describe())
				}
			}
		}
	}
}

// unfilteredGroups is the size of q's base-values relation over global
// without its filter: the groups a witnessed round's sites report at most,
// each (Plan.TrafficBound).
func unfilteredGroups(t *testing.T, q gmdj.Query, global *relation.Relation) int {
	t.Helper()
	bq := q.Base
	bq.Where = nil
	detail, err := gmdj.Data{"T": global}.DetailSource(bq.Detail)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gmdj.EvalBase(context.Background(), bq, detail)
	if err != nil {
		t.Fatal(err)
	}
	return b.Len()
}

// Optimizations must strictly reduce traffic on the aligned chain query.
func TestOptimizationsReduceTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	global := randomGlobal(rng, 400, 12)
	sites, cat := buildCluster(t, global, "T", 3, 4)
	coord, _ := New(sites, cat, stats.NetModel{})
	ctx := context.Background()

	baseline, err := coord.ExecuteWith(ctx, chainQuery(), plan.SelectNone())
	if err != nil {
		t.Fatal(err)
	}
	full, err := coord.ExecuteWith(ctx, chainQuery(), plan.SelectAll())
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
	guard, err := coord.ExecuteWith(ctx, chainQuery(), plan.SelectRules("group-reduce-site"))
	if err != nil {
		t.Fatal(err)
	}
	if guard.Metrics.TotalBytesUp() >= baseline.Metrics.TotalBytesUp() {
		t.Errorf("guard up-bytes %d, baseline %d", guard.Metrics.TotalBytesUp(), baseline.Metrics.TotalBytesUp())
	}
	// Coordinator-side reduction alone reduces the down-traffic.
	coordRed, err := coord.ExecuteWith(ctx, chainQuery(), plan.SelectRules("group-reduce-coord"))
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
		sites[i] = localSite(t, es)
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
	for _, sel := range []plan.Selection{plan.SelectNone(), plan.SelectAll()} {
		res, err := coord.ExecuteWith(context.Background(), q, sel)
		if err != nil {
			t.Fatalf("[%s]: %v", sel, err)
		}
		if !res.Rel.EqualMultiset(want) {
			t.Errorf("[%s]: multi-relation mismatch", sel)
		}
	}
}

func TestBaseFilterPropagates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	global := randomGlobal(rng, 100, 12)
	sites, cat := buildCluster(t, global, "T", 3, 4)
	coord, _ := New(sites, cat, stats.NetModel{})
	q := chainQuery()
	q.Base.Where = expr.MustParse("R.v > 20")
	want, err := gmdj.EvalCentral(q, gmdj.Data{"T": global}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, sel := range []plan.Selection{plan.SelectNone(), plan.SelectAll()} {
		res, err := coord.ExecuteWith(context.Background(), q, sel)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Rel.EqualMultiset(want) {
			t.Errorf("[%s]: filtered base mismatch", sel)
		}
	}
}

func TestCoordinatorErrors(t *testing.T) {
	if _, err := New(nil, nil, stats.NetModel{}); err == nil {
		t.Error("no sites must error")
	}
	global := randomGlobal(rand.New(rand.NewSource(1)), 10, 12)
	sites, cat := buildCluster(t, global, "T", 2, 6)
	coord, _ := New(sites, cat, stats.NetModel{})
	// Invalid query surfaces a planning error.
	bad := chainQuery()
	bad.Base.Cols = []string{"zz"}
	if _, err := coord.ExecuteWith(context.Background(), bad, plan.SelectNone()); err == nil {
		t.Error("invalid query must error")
	}
	// Unknown relation.
	bad2 := chainQuery()
	bad2.Base.Detail = "Nope"
	bad2.Ops[0].Detail = "Nope"
	bad2.Ops[1].Detail = "Nope"
	if _, err := coord.ExecuteWith(context.Background(), bad2, plan.SelectNone()); err == nil {
		t.Error("unknown relation must error")
	}
	// Cancelled context aborts.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := coord.ExecuteWith(ctx, chainQuery(), plan.SelectNone()); err == nil {
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
	sites, cat := buildCluster(t, global, "T", 2, 4)
	coord, _ := New(sites, cat, stats.NetModel{})
	// The second operator's residual predicate matches nothing for (0,0).
	q := gmdj.Query{
		Base: gmdj.BaseQuery{Detail: "T", Cols: []string{"g", "h"}},
		Ops: []gmdj.Operator{{Detail: "T", Vars: []gmdj.GroupVar{{
			Aggs: []agg.Spec{{Func: agg.Count, As: "c"}, {Func: agg.Sum, Arg: "v", As: "s"}},
			Cond: expr.MustParse("B.g = R.g && B.h = R.h && R.v > 50"),
		}}}},
	}
	res, err := coord.ExecuteWith(context.Background(), q, plan.SelectRules("group-reduce-coord", "group-reduce-site"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 3 {
		t.Fatalf("groups = %d, want 3\n%s", res.Rel.Len(), res.Rel)
	}
	ci, si := res.Rel.Schema.MustIndex("c"), res.Rel.Schema.MustIndex("s")
	for _, row := range res.Rel.Rows() {
		if row[0].Int == 0 && row[1].Int == 0 {
			if row[ci].Int != 0 || !row[si].IsNull() {
				t.Errorf("empty group aggregates = %v / %v, want 0 / NULL", row[ci], row[si])
			}
		}
	}
}

// mustMerger is newMerger with *testing.T error plumbing.
func mustMerger(t testing.TB, keys []string, xs []relation.Schema, segs [][]varSegment, budget *memBudget) *merger {
	t.Helper()
	m, err := newMerger(keys, xs, segs, budget)
	if err != nil {
		t.Fatal(err)
	}
	return m
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
	m := mustMerger(t, []string{"g", "h"}, xs, segs, nil)

	base := relation.New(xs[0])
	base.MustAppend(relation.Tuple{relation.NewInt(1), relation.NewInt(0)})
	base.MustAppend(relation.Tuple{relation.NewInt(1), relation.NewInt(0)}) // dup: must dedup
	base.MustAppend(relation.Tuple{relation.NewInt(2), relation.NewInt(1)})
	if err := m.MergeLocal(nil, false, []*relation.Relation{base}, nil); err != nil {
		t.Fatal(err)
	}
	if m.X().Len() != 2 {
		t.Fatalf("dedup: %d rows", m.X().Len())
	}
	if err := m.Extend(); err != nil {
		t.Fatal(err)
	}
	if m.extended != 1 || !m.X().Schema.Equal(xs[1]) {
		t.Fatalf("extend: extended=%d schema=%s", m.extended, m.X().Schema)
	}
	// Merge one H: the X row's ordinal + phys (cnt1, avg1_sum, avg1_cnt),
	// staged and committed as a site's stream is.
	h := relation.New(relation.MustSchema(
		relation.Column{Name: engine.OrdinalColumn, Kind: relation.KindInt},
		relation.Column{Name: "cnt1", Kind: relation.KindInt},
		relation.Column{Name: "avg1_sum", Kind: relation.KindInt},
		relation.Column{Name: "avg1_cnt", Kind: relation.KindInt},
	))
	h.MustAppend(relation.Tuple{relation.NewInt(0), relation.NewInt(2), relation.NewInt(10), relation.NewInt(2)})
	merge := func(h *relation.Relation, staged, committed int) error {
		st := m.NewStage(staged, m.X().Len(), nil)
		if err := st.Add(h); err != nil {
			st.Discard()
			return err
		}
		return m.CommitStage(st, committed)
	}
	if err := merge(h, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := merge(h, 0, 0); err != nil { // second site's identical H doubles it
		t.Fatal(err)
	}
	m.RecomputeDerived(0, 1)
	row := m.X().Rows()[0]
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
	h2.Columns().Vecs[0].Set(0, h2.Len(), relation.NewInt(99))
	if err := merge(h2, 0, 0); !errors.Is(err, ErrMalformedH) {
		t.Errorf("out-of-range ordinal = %v, want ErrMalformedH", err)
	}
	// Committing into the wrong operator errors.
	if err := merge(h, 0, 1); err == nil {
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

// TestTrafficBoundFormula: the Thm. 2 bound sums n·|Q| for each base or
// local round and 2·n·|Q| for each operator round the plan runs, and n times
// the unfiltered base's size for a witnessed round.
func TestTrafficBoundFormula(t *testing.T) {
	src := gmdj.Schemas{"T": tSchema}
	cat := distrib.NewCatalog(&distrib.Distribution{
		Relation: "T", NumSites: 4,
		Attrs: []distrib.AttrInfo{{Attr: "g", Filters: distrib.HashPartition(4), Disjoint: true}},
	})
	filtered := chainQuery()
	filtered.Base.Where = expr.MustParse("R.v >= 5")
	for _, tc := range []struct {
		name  string
		q     gmdj.Query
		cat   *distrib.Catalog
		sel   plan.Selection
		steps string
		want  int
	}{
		// m=2 operators, n=4 sites, |Q|=10: (2*2+1)*4*10 = 200.
		{"baseline", chainQuery(), nil, plan.SelectNone(), "base,MD1,MD2", 200},
		// One fully local round: n·|Q| = 40.
		{"full local", chainQuery(), cat, plan.SelectAll(), "local-all", 40},
		// base+MD1, then MD2: (1 + 2(m-1))·n·|Q| = 3*4*10 = 120.
		{"base+MD1", chainQuery(), nil, plan.SelectRules("sync-skip"), "base+MD1,MD2", 120},
		// The same under a witness, 25 groups before σ: 4*25 + 2*4*10 = 180.
		{"witnessed base+MD1", filtered, nil, plan.SelectRules("sync-skip"), "base+MD1,MD2", 180},
	} {
		pl, err := plan.Compile(tc.q, src, tc.cat, 4, tc.sel, plan.DefaultCostModel(stats.NetModel{}))
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, r := range pl.Steps {
			names = append(names, r.Name)
		}
		if got := strings.Join(names, ","); got != tc.steps {
			t.Errorf("%s: rounds %s, want %s", tc.name, got, tc.steps)
		}
		if got := pl.TrafficBound(10, 25); got != tc.want {
			t.Errorf("%s: TrafficBound = %d, want %d", tc.name, got, tc.want)
		}
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
		sites[i] = localSite(t, es)
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
	for _, sel := range switchCombos() {
		res, err := coord.ExecuteWith(context.Background(), q, sel)
		if err != nil {
			t.Fatalf("[%s]: %v", sel, err)
		}
		if !res.Rel.EqualMultiset(want) {
			t.Fatalf("[%s]: hash-partitioned mismatch", sel)
		}
	}
	// The aligned query goes fully local under sync reduction.
	pl, err := coord.PlanWith(context.Background(), q, plan.SelectRules("local-prefix", "sync-skip"))
	if err != nil || pl.Steps[0].Name != "local-all" {
		t.Errorf("hash partitioning must enable Cor. 1: %v, %v", pl, err)
	}
	// Coordinator-side group reduction works off the hash filters too.
	base, _ := coord.ExecuteWith(context.Background(), q, plan.SelectNone())
	red, err := coord.ExecuteWith(context.Background(), q, plan.SelectRules("group-reduce-coord"))
	if err != nil {
		t.Fatal(err)
	}
	if red.Metrics.TotalRows() >= base.Metrics.TotalRows() {
		t.Errorf("hash-based coord reduction moved %d rows, baseline %d",
			red.Metrics.TotalRows(), base.Metrics.TotalRows())
	}
}

// A trace writer attached to the coordinator sees every round and site
// exchange, without changing results.
func TestLineObserverTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	global := randomGlobal(rng, 60, 12)
	sites, cat := buildCluster(t, global, "T", 3, 4)
	coord, _ := New(sites, cat, stats.NetModel{})
	var buf bytes.Buffer
	coord.SetTrace(&buf)
	res, err := coord.ExecuteWith(context.Background(), chainQuery(), plan.SelectNone())
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"round base: start", "round MD1: start", "round MD2: done", "site 0", "site 2"} {
		if !strings.Contains(out, frag) {
			t.Errorf("trace missing %q:\n%s", frag, out)
		}
	}
	// 3 rounds × (start + 3 site lines + done) = 15 lines; the query's own
	// start and end write no line.
	if lines := strings.Count(out, "\n"); lines != 15 {
		t.Errorf("trace lines = %d, want 15:\n%s", lines, out)
	}
	// Detaching stops tracing; results unaffected either way.
	coord.SetTrace(nil)
	buf.Reset()
	res2, err := coord.ExecuteWith(context.Background(), chainQuery(), plan.SelectNone())
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Error("detached trace still wrote")
	}
	if !res.Rel.EqualMultiset(res2.Rel) {
		t.Error("tracing changed results")
	}
}
