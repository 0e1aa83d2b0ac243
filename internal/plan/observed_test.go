package plan

import (
	"slices"
	"strings"
	"testing"

	"skalla/internal/agg"
	"skalla/internal/expr"
	"skalla/internal/gmdj"
	"skalla/internal/stats"
)

// example1Flow is the paper's Example 1 on DAS, which no catalog partitions:
// MD2's condition holds MD1's, so MD1's guarded answers bound MD2. Under
// sync-skip the base round folds into MD1 with a witness counting the base
// filter, and MD2 observes that local round instead.
func example1Flow() gmdj.Query {
	return gmdj.Query{
		Base: gmdj.BaseQuery{Detail: "Flow", Cols: []string{"DAS"}, Where: expr.MustParse("R.NB >= 0")},
		Ops: []gmdj.Operator{
			{Detail: "Flow", Vars: []gmdj.GroupVar{{
				Aggs: []agg.Spec{{Func: agg.Count, As: "cnt"}, {Func: agg.Avg, Arg: "NB", As: "avg"}},
				Cond: expr.MustParse("B.DAS = R.DAS"),
			}}},
			opWith("above", "B.DAS = R.DAS && R.NB >= B.avg"),
		},
	}
}

// vars builds an operator over detail with one COUNT variable per condition.
func vars(detail string, conds ...string) gmdj.Operator {
	op := gmdj.Operator{Detail: detail}
	for _, c := range conds {
		op.Vars = append(op.Vars, gmdj.GroupVar{Aggs: []agg.Spec{{Func: agg.Count, As: "c"}}, Cond: expr.MustParse(c)})
	}
	return op
}

// TestContainsConditions is the observed reduction's soundness test, read
// off the conditions: every variable of the later operator must hold all the
// top-level conjuncts of one variable of the earlier one, over the same
// detail relation, with literals compared by kind.
func TestContainsConditions(t *testing.T) {
	for _, tc := range []struct {
		name           string
		later, earlier gmdj.Operator
		want           bool
	}{
		{"example 1", vars("Flow", "B.DAS = R.DAS && R.NB >= B.avg"), vars("Flow", "B.DAS = R.DAS"), true},
		{"conjuncts in another order", vars("Flow", "R.NB > 3 && B.SAS = R.SAS && B.DAS = R.DAS"),
			vars("Flow", "B.DAS = R.DAS && B.SAS = R.SAS"), true},
		{"each later variable holds some earlier one", vars("Flow", "B.DAS = R.DAS && R.NB > 1", "B.SAS = R.SAS"),
			vars("Flow", "B.SAS = R.SAS", "B.DAS = R.DAS"), true},
		{"a different detail relation", vars("Flow2", "B.DAS = R.DAS && R.NB >= B.avg"), vars("Flow", "B.DAS = R.DAS"), false},
		{"a missing conjunct", vars("Flow", "B.SAS = R.SAS && R.NB > 5"), vars("Flow", "B.SAS = R.SAS && B.DAS = R.DAS"), false},
		{"the conjunct only under OR", vars("Flow", "(B.DAS = R.DAS || R.NB > 5) && R.NB > 1"), vars("Flow", "B.DAS = R.DAS"), false},
		{"2 is not 2.0", vars("Flow", "B.DAS = R.DAS && R.NB * 2.0 > 0 && R.NB >= B.avg"),
			vars("Flow", "B.DAS = R.DAS && R.NB * 2 > 0"), false},
		{"one later variable holds none", vars("Flow", "B.DAS = R.DAS && R.NB > 1", "R.NB > 2"),
			vars("Flow", "B.DAS = R.DAS"), false},
	} {
		if got := containsConditions(tc.later, tc.earlier); got != tc.want {
			t.Errorf("%s: containsConditions = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// The rule marks MD2 of Example 1 as bounded by MD1's guarded answers; the
// cost model prices its X rows down at GuardSelectivity × n·|X|, and
// Describe names the source. Without sync-skip MD1 runs as a guarded
// operator round.
func TestObservedReductionPlan(t *testing.T) {
	model := DefaultCostModel(stats.NetModel{})
	p, err := Compile(example1Flow(), flowSchemas, nil, 4, SelectRules("coalesce", "local-prefix",
		"group-reduce-coord", "group-reduce-site", "group-reduce-observed"), model)
	if err != nil {
		t.Fatal(err)
	}
	// With no catalog group-reduce-coord derives no reducer, so it is
	// skipped, not listed as applied.
	if got := strings.Join(p.Rules, ","); got != "group-reduce-site,group-reduce-observed" {
		t.Errorf("rules = %s", got)
	}
	if len(p.Steps) != 3 || p.Steps[1].Observed != 0 || p.Steps[2].Observed != 1 {
		t.Fatalf("steps = %+v", p.Steps)
	}
	d := p.Describe()
	for _, frag := range []string{
		"MD1: coordinator-side group reduction: false, site-side guard: true, observed reduction: none",
		"MD2: coordinator-side group reduction: false, site-side guard: true, observed reduction: from MD1",
		"rule group-reduce-coord skipped: no operator round has a Thm. 4 reduction",
		"rule group-reduce-observed applied: observed reduction for 1 of 2 operator round(s)",
	} {
		if !strings.Contains(d, frag) {
			t.Errorf("Describe missing %q:\n%s", frag, d)
		}
	}
	const num, row = 8, 1 // rowBytes: 8 per number, 1 per row
	sites := int64(4)
	shipped := int64(model.GuardSelectivity * float64(sites*model.DefaultGroups))
	if got, want := p.Estimate.PerRound[2].BytesDown, sites*model.MsgOverhead+shipped*(row+2*num); got != want {
		t.Errorf("MD2 est %d B down, want %d", got, want)
	}

	// Without the guard there is nothing observed; a guarded round whose
	// conditions the later one does not hold is no source either.
	for _, tc := range []struct {
		q     gmdj.Query
		rules []string
		why   string
	}{
		{example1Flow(), []string{"group-reduce-observed"}, "no guarded operator round to observe"},
		{gmdj.Query{
			Base: gmdj.BaseQuery{Detail: "Flow", Cols: []string{"DAS"}, Where: expr.MustParse("R.NB >= 0")},
			Ops: []gmdj.Operator{
				opWith("c1", "B.DAS = R.DAS && R.NB > 2"),
				opWith("c2", "B.DAS = R.DAS && R.NB >= B.c1"),
			},
		}, []string{"group-reduce-site", "group-reduce-observed"}, "no operator round's conditions contain an earlier guarded round's"},
	} {
		p, err := Compile(tc.q, flowSchemas, nil, 4, SelectRules(tc.rules...), model)
		if err != nil {
			t.Fatal(err)
		}
		last := p.Trace[len(p.Trace)-1]
		if last.Rule != "group-reduce-observed" || last.Applied || last.Detail != tc.why {
			t.Errorf("%v: trace %+v, want skipped: %s", tc.rules, last, tc.why)
		}
		for _, r := range p.Steps {
			if r.Observed != 0 {
				t.Errorf("%v: round %s observes MD%d", tc.rules, r.Name, r.Observed)
			}
		}
	}
}

// Auto mode compiles one candidate per subset of the three structure rules,
// each followed by every annotation rule, and Example 1's plan still has MD2
// observe MD1.
func TestAutoCompilesEightCandidates(t *testing.T) {
	p, err := compileFlow(example1Flow(), nil, 4, SelectAuto())
	if err != nil {
		t.Fatal(err)
	}
	if p.Candidates != 8 {
		t.Errorf("auto compiled %d candidates, want 8", p.Candidates)
	}
	if p.Steps[len(p.Steps)-1].Observed != 1 {
		t.Errorf("auto did not pick the observed reduction from MD1:\n%s", p.Describe())
	}
}

// A plan whose only round is base+MD1 ships no X fragment, so
// group-reduce-coord is skipped there as group-reduce-site is, and the plan's
// rule list is sync-skip alone.
func TestGroupReduceCoordSkipsWithoutOperatorRounds(t *testing.T) {
	q := gmdj.Query{
		Base: gmdj.BaseQuery{Detail: "Flow", Cols: []string{"DAS"}},
		Ops:  []gmdj.Operator{opWith("c", "B.DAS = R.DAS")},
	}
	p, err := compileFlow(q, nil, 4, SelectAll())
	if err != nil {
		t.Fatal(err)
	}
	if stepNames(p) != "base+MD1" || strings.Join(p.Rules, ",") != "sync-skip" {
		t.Fatalf("steps %s, rules %v", stepNames(p), p.Rules)
	}
	d := p.Describe()
	for _, frag := range []string{
		"rule group-reduce-coord skipped: no coordinator-driven operator rounds to reduce",
		"rule group-reduce-site  skipped: no coordinator-driven operator rounds to guard",
		"rule group-reduce-observed skipped: no coordinator-driven operator rounds to reduce",
	} {
		if !strings.Contains(d, frag) {
			t.Errorf("Describe missing %q:\n%s", frag, d)
		}
	}
}

// reducedObservedQuery groups Flow on DAS, which the catalog does not
// partition, under a base filter. Every θ bounds B.DAS by the partitioned
// SAS, so each operator round has Thm. 4 reducers, and MD2 links the key, so
// it observes the witnessed base+MD1 round as well.
func reducedObservedQuery() gmdj.Query {
	return gmdj.Query{
		Base: gmdj.BaseQuery{Detail: "Flow", Cols: []string{"DAS"}, Where: expr.MustParse("R.NB >= 0")},
		Ops: []gmdj.Operator{
			opWith("c1", "B.DAS = R.DAS && B.DAS <= R.SAS"),
			opWith("c2", "B.DAS = R.DAS && B.DAS <= R.SAS && R.NB >= B.c1"),
		},
	}
}

// A round with both Thm. 4 reducers and an observed reduction is priced
// below either alone: the observed share applies to the rows the reducers
// left. So auto keeps group-reduce-observed next to group-reduce-coord, and
// dropping it raises the estimate.
func TestAutoKeepsObservedNextToReducers(t *testing.T) {
	p, err := compileFlow(reducedObservedQuery(), flowCatalog(4), 4, SelectAuto())
	if err != nil {
		t.Fatal(err)
	}
	md2 := p.Steps[len(p.Steps)-1]
	if md2.Reducers == nil || md2.Observed == 0 || !slices.Contains(p.Rules, "group-reduce-observed") {
		t.Fatalf("auto's MD2 has reducers %v and observes MD%d:\n%s", md2.Reducers != nil, md2.Observed, p.Describe())
	}
	without := slices.DeleteFunc(slices.Clone(p.Rules), func(r string) bool { return r == "group-reduce-observed" })
	q, err := compileFlow(reducedObservedQuery(), flowCatalog(4), 4, SelectRules(without...))
	if err != nil {
		t.Fatal(err)
	}
	if p.Estimate.Compare(q.Estimate) >= 0 {
		t.Errorf("with the observed reduction %s, without it %s: want strictly cheaper", p.Estimate, q.Estimate)
	}
}

// Under sync-skip a filtered base folds into MD1 with a witness: the local
// round's reply carries the keys, MD1's physical columns and an 8 B count,
// and MD2 observes the local round when it links every key, but not when a
// key is left unlinked.
func TestSyncSkipWitnessPlan(t *testing.T) {
	model := DefaultCostModel(stats.NetModel{})
	p, err := Compile(example1Flow(), flowSchemas, nil, 4, SelectAll(), model)
	if err != nil {
		t.Fatal(err)
	}
	if stepNames(p) != "base+MD1,MD2" || !p.Steps[0].Witness || p.Steps[1].Observed != 1 {
		t.Fatalf("steps %+v", p.Steps)
	}
	d := p.Describe()
	for _, frag := range []string{
		"sync reduction: base sync folded into MD1 (Prop. 2), σ counted by a witness",
		"rule sync-skip          applied: base sync folded into MD1 (Prop. 2), σ counted by a witness",
		"MD2: coordinator-side group reduction: false, site-side guard: true, observed reduction: from MD1, keys derived at the site",
	} {
		if !strings.Contains(d, frag) {
			t.Errorf("Describe missing %q:\n%s", frag, d)
		}
	}
	// DAS, then cnt and avg's sum and count — avg itself is derived — then
	// the witness count: 1 + 8 + 3×8 + 8 B per row from each site.
	sites := int64(4)
	if got, want := p.Estimate.PerRound[0].BytesUp, sites*model.DefaultGroups*(1+8+3*8+8); got != want {
		t.Errorf("base+MD1 est %d B up, want %d", got, want)
	}
	// MD2 derives its keys at the sites, so each row down is avg alone,
	// 1 + 8 B, for the observed share of every site's groups.
	if _, ok := p.DerivedFrom(p.Steps[1]); !ok {
		t.Error("MD2 does not derive its keys from the local round")
	}
	if got, want := p.Estimate.PerRound[1].BytesDown, sites*model.MsgOverhead+int64(model.GuardSelectivity*float64(sites*model.DefaultGroups))*(1+8); got != want {
		t.Errorf("MD2 est %d B down, want %d", got, want)
	}

	q := gmdj.Query{
		Base: gmdj.BaseQuery{Detail: "Flow", Cols: []string{"SAS", "DAS"}, Where: expr.MustParse("R.NB >= 0")},
		Ops: []gmdj.Operator{
			opWith("c1", "B.SAS = R.SAS && B.DAS = R.DAS"),
			opWith("c2", "B.DAS = R.DAS && R.NB >= B.c1"),
		},
	}
	p, err = Compile(q, flowSchemas, nil, 4, SelectAll(), model)
	if err != nil {
		t.Fatal(err)
	}
	last := p.Trace[len(p.Trace)-1]
	if stepNames(p) != "base+MD1,MD2" || p.Steps[1].Observed != 0 ||
		last.Applied || last.Detail != "no operator round links every base key after the local round" {
		t.Errorf("MD2 links DAS alone: steps %+v, trace %+v", p.Steps, last)
	}

	// A filtered base with grouping sets keeps its base round.
	q.Base.GroupingSets = [][]string{{"SAS", "DAS"}, {"SAS"}}
	q.Ops = q.Ops[:1]
	p, err = Compile(q, flowSchemas, nil, 4, SelectRules("sync-skip"), model)
	if err != nil {
		t.Fatal(err)
	}
	if stepNames(p) != "base,MD1" || p.Trace[0].Detail != "filtered base with grouping sets: the witness pass does not cover it" {
		t.Errorf("grouping sets under a filter: steps %s, trace %+v", stepNames(p), p.Trace[0])
	}
}
