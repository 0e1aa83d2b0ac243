package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"skalla/internal/agg"
	"skalla/internal/engine"
	"skalla/internal/expr"
	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/plan"
	"skalla/internal/relation"
	"skalla/internal/stats"
	"skalla/internal/transport"
	"skalla/internal/transport/faultinject"
)

// observedQuery is Example 1 grouped on keys: MD2's condition holds MD1's
// key links, so MD1's answers bound MD2's fragments — a guarded MD1 round's,
// or under sync-skip the witnessed base+MD1 round's.
func observedQuery(keys ...string) gmdj.Query {
	links := make([]expr.Expr, len(keys))
	for i, k := range keys {
		links[i] = expr.Eq(expr.C(expr.SideBase, k), expr.C(expr.SideDetail, k))
	}
	return gmdj.Query{
		Base: gmdj.BaseQuery{Detail: "T", Cols: keys, Where: expr.MustParse("R.v >= 5")},
		Ops: []gmdj.Operator{
			{Detail: "T", Vars: []gmdj.GroupVar{{
				Aggs: []agg.Spec{{Func: agg.Count, As: "cnt1"}, {Func: agg.Avg, Arg: "v", As: "avg1"}},
				Cond: expr.And(links...),
			}}},
			{Detail: "T", Vars: []gmdj.GroupVar{{
				Aggs: []agg.Spec{{Func: agg.Count, As: "cnt2"}, {Func: agg.Max, Arg: "v", As: "max2"}},
				Cond: expr.And(append(links, expr.MustParse("R.v >= B.avg1"))...),
			}}},
		},
	}
}

// observedGlobal builds T from (g, h, v) rows. With three sites of g-width 4,
// g 0..3 lives at site 0, 4..7 at site 1 and 8.. at site 2.
func observedGlobal(rows ...[3]int64) *relation.Relation {
	r := relation.New(tSchema)
	for _, row := range rows {
		r.MustAppend(relation.Tuple{relation.NewInt(row[0]), relation.NewInt(row[1]), relation.NewInt(row[2])})
	}
	return r
}

// touchedPerSite counts, per site, the groups of X (keys among the rows
// passing R.v >= 5) that site holds a row of: what MD1's guard reports, and
// so what MD2 may ship it.
func touchedPerSite(global *relation.Relation, keys []string, sites int, per int64) []int {
	idx, err := global.Schema.Indexes(keys)
	if err != nil {
		panic(err)
	}
	key := func(i int) string {
		var b strings.Builder
		for _, j := range idx {
			fmt.Fprintf(&b, "%v|", global.Value(i, j))
		}
		return b.String()
	}
	inX := make(map[string]bool)
	for i := 0; i < global.Len(); i++ {
		if global.Value(i, 2).Int >= 5 {
			inX[key(i)] = true
		}
	}
	seen := make([]map[string]bool, sites)
	for i := range seen {
		seen[i] = make(map[string]bool)
	}
	for i := 0; i < global.Len(); i++ {
		site := min(int(global.Value(i, 0).Int/per), sites-1)
		if inX[key(i)] {
			seen[site][key(i)] = true
		}
	}
	out := make([]int, sites)
	for i, s := range seen {
		out[i] = len(s)
	}
	return out
}

// TestObservedReductionMatchesCentral is Thm. 3 on the placements the
// observed reduction must survive: a group whose only MD1 match at a site is
// a single row there (and is MD2's match), and a site that touched no row of
// X. The result equals the centralized evaluation, and MD2 ships each site
// exactly the groups it held.
func TestObservedReductionMatchesCentral(t *testing.T) {
	for _, tc := range []struct {
		name string
		keys []string
		rows [][3]int64
		sel  plan.Selection
		idle int // sites MD2 ships no row
	}{
		{
			name: "single-row match",
			keys: []string{"h"},
			rows: [][3]int64{
				{0, 1, 10}, {1, 1, 20}, {2, 1, 30}, {3, 2, 5}, {0, 2, 6},
				{4, 1, 100}, {5, 3, 1}, {6, 3, 9},
				{8, 2, 50}, {9, 3, 7},
			},
			sel: plan.SelectAll(),
		},
		{
			name: "site touching no row",
			keys: []string{"h"},
			rows: [][3]int64{
				{0, 1, 10}, {1, 2, 20}, {4, 1, 30}, {5, 3, 40},
				{8, 9, 1}, {9, 9, 2}, {10, 8, 3},
			},
			sel:  plan.SelectRules("group-reduce-site", "group-reduce-observed"),
			idle: 1,
		},
		{
			name: "with Thm. 4 reducers",
			keys: []string{"g", "h"},
			rows: [][3]int64{
				{0, 1, 10}, {0, 1, 20}, {1, 2, 6}, {5, 1, 50}, {5, 2, 7}, {6, 3, 8}, {9, 1, 99}, {9, 1, 1},
			},
			sel: plan.SelectRules("group-reduce-coord", "group-reduce-site", "group-reduce-observed"),
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			global := observedGlobal(tc.rows...)
			q := observedQuery(tc.keys...)
			sites, cat := buildCluster(t, global, "T", 3, 4)
			coord, err := New(sites, cat, stats.NetModel{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := coord.ExecuteWith(context.Background(), q, tc.sel)
			if err != nil {
				t.Fatal(err)
			}
			want, err := gmdj.EvalCentral(q, gmdj.Data{"T": global}, true)
			if err != nil {
				t.Fatal(err)
			}
			if got, exp := sortedText(res.Rel), sortedText(want); got != exp {
				t.Fatalf("distributed diverges from EvalCentral\nplan:\n%s\ngot:\n%s\nwant:\n%s", res.Plan.Describe(), got, exp)
			}
			md2 := res.Plan.Steps[len(res.Plan.Steps)-1]
			if md2.Name != "MD2" || md2.Observed != 1 {
				t.Fatalf("MD2 does not observe MD1:\n%s", res.Plan.Describe())
			}
			wantRows := touchedPerSite(global, tc.keys, 3, 4)
			calls := res.Metrics.Rounds[len(res.Metrics.Rounds)-1].Calls
			for _, call := range calls {
				if call.RowsDown != wantRows[call.Site] {
					t.Errorf("MD2 shipped site %d %d row(s), want %d", call.Site, call.RowsDown, wantRows[call.Site])
				}
			}
			// A site with no row to match gets no call at all.
			if len(calls) != len(wantRows)-tc.idle {
				t.Errorf("MD2 made %d call(s), want one per site but the %d with no row", len(calls), tc.idle)
			}
		})
	}
}

// skalla_plan_rule_applied_total counts a rule only when it changed the plan.
// Without a catalog group-reduce-coord derives no Thm. 4 reducer for
// Example 1, so planning it under all moves every applied rule's series by
// one and leaves group-reduce-coord's where it was.
func TestPlanCountsOnlyRulesThatChangedThePlan(t *testing.T) {
	sites, _ := buildCluster(t, observedGlobal([3]int64{0, 1, 10}, [3]int64{4, 2, 20}), "T", 3, 4)
	coord, err := New(sites, nil, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	before := make(map[string]int64)
	for _, name := range plan.RuleNames() {
		before[name] = obs.PlanRulesApplied.With(name).Value()
	}
	pl, err := coord.PlanWith(context.Background(), observedQuery("h"), plan.SelectAll())
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(pl.Rules, ","); got != "sync-skip,group-reduce-site,group-reduce-observed" {
		t.Errorf("rules = %s", got)
	}
	for _, name := range plan.RuleNames() {
		want := int64(0)
		if slices.Contains(pl.Rules, name) {
			want = 1
		}
		if got := obs.PlanRulesApplied.With(name).Value() - before[name]; got != want {
			t.Errorf("skalla_plan_rule_applied_total{rule=%q} moved by %d, want %d", name, got, want)
		}
	}
}

// A site's MD1 stream that dies after emitting a block is discarded and
// retried; only the committed attempt bounds MD2. The discarded attempt here
// claimed every X row, so counting it would ship the site all of X in MD2.
func TestObservedReductionIgnoresDiscardedAttempts(t *testing.T) {
	global := observedGlobal(
		[3]int64{0, 1, 10}, [3]int64{1, 2, 20}, [3]int64{2, 3, 30},
		[3]int64{4, 1, 40}, [3]int64{5, 1, 6}, [3]int64{6, 3, 50}, [3]int64{7, 3, 9},
		[3]int64{8, 2, 70},
	)
	q := observedQuery("h")
	const groups = 3 // h = 1, 2, 3
	sites, cat := buildCluster(t, global, "T", 3, 4)
	mutated := false
	claimAll := func(b *relation.Relation) *relation.Relation {
		if mutated {
			return b
		}
		mutated = true
		fake := relation.New(b.Schema)
		for ord := 0; ord < groups; ord++ {
			row := b.AppendRow(nil, 0)
			row[0] = relation.NewInt(int64(ord))
			fake.MustAppend(row)
		}
		return fake
	}
	faulty := faultinject.Wrap(sites[1], faultinject.Config{FailStreams: 1, StreamFailAfterBlocks: 1, MutateBlock: claimAll})
	sites[1] = faulty
	coord, err := New(sites, cat, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	coord.SetRowBlocking(1)
	coord.SetRetryPolicy(RetryPolicy{MaxAttempts: 2})
	// Without sync-skip MD1 runs as a guarded operator round, whose stream
	// the fault cuts.
	res, err := coord.ExecuteWith(context.Background(), q, plan.SelectRules("coalesce", "local-prefix",
		"group-reduce-coord", "group-reduce-site", "group-reduce-observed"))
	if err != nil {
		t.Fatal(err)
	}
	if !mutated || faulty.Calls() != 4 { // base, MD1 twice, MD2
		t.Fatalf("the fault did not fire as planned: mutated %v, %d calls", mutated, faulty.Calls())
	}
	want, err := gmdj.EvalCentral(q, gmdj.Data{"T": global}, true)
	if err != nil {
		t.Fatal(err)
	}
	if got, exp := sortedText(res.Rel), sortedText(want); got != exp {
		t.Fatalf("distributed diverges from EvalCentral\ngot:\n%s\nwant:\n%s", got, exp)
	}
	md2 := res.Metrics.Rounds[len(res.Metrics.Rounds)-1]
	for _, call := range md2.Calls {
		if call.Site == 1 && call.RowsDown != 2 {
			t.Errorf("MD2 shipped site 1 %d row(s), want the 2 groups its committed attempt reported", call.RowsDown)
		}
	}
}

// keyRecorder records, per site, the h cell of every X row each operator
// round ships the site, by round name.
type keyRecorder struct {
	transport.Site
	mu      sync.Mutex
	shipped map[string][]int64
}

func (k *keyRecorder) EvalOperatorStream(ctx context.Context, req engine.OperatorRequest, sink func(*relation.Relation) error) (stats.Call, error) {
	if j := req.Base.Schema.Index("h"); j >= 0 {
		k.mu.Lock()
		round := obs.RoundFrom(ctx)
		k.shipped[round] = k.shipped[round][:0]
		for i := 0; i < req.Base.Len(); i++ {
			k.shipped[round] = append(k.shipped[round], req.Base.Value(i, j).Int)
		}
		k.mu.Unlock()
	}
	return k.Site.EvalOperatorStream(ctx, req, sink)
}

// TestObservedChainAfterLocalRound is Thm. 3 for an operator round observing
// an operator round that itself observed the local round: the witnessed
// base+MD1 round, a guarded MD2 whose keys the sites derive from their local
// replies, and an MD3 whose θ holds MD2's conjuncts and one more, so it
// observes MD2. On one to four sites, every witness placement and every
// transport, the result equals EvalCentral's, and MD3 ships each site exactly
// the groups its MD2 stream reported — those with a row there that MD2's θ
// matches — not the groups MD2 shipped it.
func TestObservedChainAfterLocalRound(t *testing.T) {
	q := observedQuery("h")
	md2 := q.Ops[1].Vars[0].Cond
	q.Ops = append(q.Ops, gmdj.Operator{Detail: "T", Vars: []gmdj.GroupVar{{
		Aggs: []agg.Spec{{Func: agg.Count, As: "cnt3"}, {Func: agg.Sum, Arg: "v", As: "sum3"}},
		Cond: expr.And(append(expr.Conjuncts(md2), expr.MustParse("R.v < B.max2"))...),
	}}})
	for _, pc := range witnessPlacements() {
		for n := 1; n <= 4; n++ {
			parts := placeOn(pc.rows, n)
			global := relation.New(tSchema)
			for _, p := range parts {
				if err := global.Union(p); err != nil {
					t.Fatal(err)
				}
			}
			want, err := gmdj.EvalCentral(q, gmdj.Data{"T": global}, true)
			if err != nil {
				t.Fatal(err)
			}
			// Site i's MD2 stream reports the groups of X with a row at site
			// i whose v reaches the group's avg1.
			avg1 := make(map[int64]float64)
			for _, row := range want.Rows() {
				if h, a := row[want.Schema.MustIndex("h")], row[want.Schema.MustIndex("avg1")]; !h.IsNull() {
					avg1[h.Int] = a.Float
				}
			}
			reported := make([][]int64, n)
			for i, p := range parts {
				for _, row := range p.Rows() {
					if a, ok := avg1[row[1].Int]; ok && !row[1].IsNull() && float64(row[2].Int) >= a && !slices.Contains(reported[i], row[1].Int) {
						reported[i] = append(reported[i], row[1].Int)
					}
				}
				slices.Sort(reported[i])
			}
			for tname, connect := range testTransports() {
				t.Run(fmt.Sprintf("%s/%d sites/%s", pc.name, n, tname), func(t *testing.T) {
					sites := make([]transport.Site, n)
					recorders := make([]*keyRecorder, n)
					for i, p := range parts {
						es := engine.NewSite(i)
						if err := es.Load(context.Background(), "T", p); err != nil {
							t.Fatal(err)
						}
						site := connect(t, es)
						if pc.retry && i == n-1 {
							site = faultinject.Wrap(site, faultinject.Config{FailFirst: 1})
						}
						recorders[i] = &keyRecorder{Site: site, shipped: make(map[string][]int64)}
						sites[i] = recorders[i]
					}
					coord, err := New(sites, nil, stats.NetModel{})
					if err != nil {
						t.Fatal(err)
					}
					coord.SetRetryPolicy(RetryPolicy{MaxAttempts: 2})
					res, err := coord.ExecuteWith(context.Background(), q, plan.SelectAll())
					if err != nil {
						t.Fatal(err)
					}
					if got, exp := sortedText(res.Rel), sortedText(want); got != exp {
						t.Fatalf("distributed diverges from EvalCentral\nplan:\n%s\ngot:\n%s\nwant:\n%s", res.Plan.Describe(), got, exp)
					}
					steps := res.Plan.Steps
					_, md2Derived := res.Plan.DerivedFrom(steps[1])
					_, md3Derived := res.Plan.DerivedFrom(steps[len(steps)-1])
					if len(steps) != 3 || steps[0].Kind != plan.RoundBaseMD1 || !steps[0].Witness ||
						steps[1].Name != "MD2" || !steps[1].Guard || steps[1].Observed != 1 || !md2Derived ||
						steps[2].Name != "MD3" || !steps[2].Guard || steps[2].Observed != 2 || md3Derived {
						t.Fatalf("want a witnessed base+MD1, a guarded MD2 deriving its keys from it, and a guarded MD3 observing MD2:\n%s", res.Plan.Describe())
					}
					for i, r := range recorders {
						got := slices.Clone(r.shipped["MD3"])
						slices.Sort(got)
						if !slices.Equal(got, reported[i]) {
							t.Errorf("MD3 shipped site %d the groups %v, want the %v its MD2 stream reported", i, got, reported[i])
						}
					}
				})
			}
		}
	}
}
