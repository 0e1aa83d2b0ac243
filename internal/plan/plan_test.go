package plan

import (
	"strings"
	"testing"

	"skalla/internal/agg"
	"skalla/internal/distrib"
	"skalla/internal/expr"
	"skalla/internal/gmdj"
	"skalla/internal/relation"
	"skalla/internal/stats"
)

var flowSchemas = gmdj.Schemas{
	"Flow": relation.MustSchema(
		relation.Column{Name: "SAS", Kind: relation.KindInt},
		relation.Column{Name: "DAS", Kind: relation.KindInt},
		relation.Column{Name: "NB", Kind: relation.KindInt},
	),
}

func flowCatalog(n int) *distrib.Catalog {
	filters := make([]distrib.SiteFilter, n)
	for i := range filters {
		filters[i] = distrib.IntRange{Lo: int64(i * 100), Hi: int64(i*100 + 99)}
	}
	return distrib.NewCatalog(&distrib.Distribution{
		Relation: "Flow",
		NumSites: n,
		Attrs:    []distrib.AttrInfo{{Attr: "SAS", Filters: filters, Disjoint: true}},
	})
}

func compileFlow(q gmdj.Query, cat *distrib.Catalog, numSites int, sel Selection) (*Plan, error) {
	return Compile(q, flowSchemas, cat, numSites, sel, DefaultCostModel(stats.DefaultLAN()))
}

func opWith(name, cond string) gmdj.Operator {
	return gmdj.Operator{Detail: "Flow", Vars: []gmdj.GroupVar{{
		Aggs: []agg.Spec{{Func: agg.Count, As: name}},
		Cond: expr.MustParse(cond),
	}}}
}

// chainQuery: MD2 depends on MD1's output (non-coalescible), both linked on
// the partition attribute.
func chainQuery() gmdj.Query {
	return gmdj.Query{
		Base: gmdj.BaseQuery{Detail: "Flow", Cols: []string{"SAS", "DAS"}},
		Ops: []gmdj.Operator{
			opWith("c1", "B.SAS = R.SAS && B.DAS = R.DAS"),
			opWith("c2", "B.SAS = R.SAS && B.DAS = R.DAS && R.NB >= B.c1"),
		},
	}
}

// independentQuery: MD2 independent of MD1 (coalescible).
func independentQuery() gmdj.Query {
	return gmdj.Query{
		Base: gmdj.BaseQuery{Detail: "Flow", Cols: []string{"SAS", "DAS"}},
		Ops: []gmdj.Operator{
			opWith("c1", "B.SAS = R.SAS && B.DAS = R.DAS"),
			opWith("c2", "B.SAS = R.SAS && B.DAS = R.DAS && R.NB > 5"),
		},
	}
}

// stepNames lists the plan's rounds by name.
func stepNames(p *Plan) string {
	names := make([]string, len(p.Steps))
	for i, r := range p.Steps {
		names[i] = r.Name
	}
	return strings.Join(names, ",")
}

func TestBaselinePlan(t *testing.T) {
	p, err := compileFlow(chainQuery(), nil, 4, SelectNone())
	if err != nil {
		t.Fatal(err)
	}
	if p.Rounds() != 3 { // base + 2 operators
		t.Errorf("Rounds = %d, want 3", p.Rounds())
	}
	if stepNames(p) != "base,MD1,MD2" || p.Merges != 0 || p.Steps[1].Reducers != nil || p.Steps[2].Guard {
		t.Errorf("baseline plan has optimizations: %+v", p)
	}
	if len(p.XSchemas) != 3 {
		t.Errorf("XSchemas = %d", len(p.XSchemas))
	}
}

func TestCoalescePlan(t *testing.T) {
	p, err := compileFlow(independentQuery(), nil, 4, SelectRules("coalesce"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Merges != 1 || len(p.Query.Ops) != 1 {
		t.Errorf("coalescing: merges=%d ops=%d", p.Merges, len(p.Query.Ops))
	}
	if p.Rounds() != 2 { // base + 1 coalesced operator
		t.Errorf("Rounds = %d", p.Rounds())
	}
	// Dependent chain must not merge.
	p, err = compileFlow(chainQuery(), nil, 4, SelectRules("coalesce"))
	if err != nil || p.Merges != 0 {
		t.Errorf("dependent chain merged: %d, %v", p.Merges, err)
	}
}

func TestSyncReducePlan(t *testing.T) {
	cat := flowCatalog(4)
	p, err := compileFlow(chainQuery(), cat, 4, SelectRules("local-prefix", "sync-skip"))
	if err != nil {
		t.Fatal(err)
	}
	if stepNames(p) != "local-all" || p.Rounds() != 1 {
		t.Errorf("rounds %s, want the full-local single round", stepNames(p))
	}
	// Without a catalog, Cor. 1 cannot apply, but Prop. 2 still folds the
	// base sync (its test is distribution-independent).
	p, err = compileFlow(chainQuery(), nil, 4, SelectRules("local-prefix", "sync-skip"))
	if err != nil {
		t.Fatal(err)
	}
	if stepNames(p) != "base+MD1,MD2" || p.Steps[0].Kind != RoundBaseMD1 || p.Rounds() != 2 {
		t.Errorf("no-catalog sync reduce: rounds %s", stepNames(p))
	}
	// A query not keyed on partition-linked columns gets no reduction.
	q := gmdj.Query{
		Base: gmdj.BaseQuery{Detail: "Flow", Cols: []string{"DAS"}},
		Ops:  []gmdj.Operator{opWith("c1", "B.DAS = R.NB")},
	}
	p, err = compileFlow(q, cat, 4, SelectRules("local-prefix", "sync-skip"))
	if err != nil {
		t.Fatal(err)
	}
	if stepNames(p) != "base,MD1" {
		t.Errorf("unaligned query must not sync-reduce: rounds %s", stepNames(p))
	}
}

func TestGroupReducePlan(t *testing.T) {
	cat := flowCatalog(4)
	p, err := compileFlow(chainQuery(), cat, 4, SelectRules("group-reduce-coord"))
	if err != nil {
		t.Fatal(err)
	}
	md1, md2 := p.Steps[1], p.Steps[2]
	if md1.Reducers == nil || md2.Reducers == nil {
		t.Fatalf("reducers missing: %+v", p.Steps)
	}
	if len(md1.Reducers) != 4 {
		t.Errorf("reducers per site = %d", len(md1.Reducers))
	}
	// Site 0 holds SAS in [0,99]: keeps 50, drops 150.
	keep, err := md1.Reducers[0](relation.Tuple{relation.NewInt(50), relation.NewInt(0)})
	if err != nil || !keep {
		t.Errorf("reducer keep: %v %v", keep, err)
	}
	keep, _ = md1.Reducers[0](relation.Tuple{relation.NewInt(150), relation.NewInt(0)})
	if keep {
		t.Error("reducer must drop out-of-range group")
	}
	// FullLocal plans skip reducer computation.
	p, err = compileFlow(chainQuery(), cat, 4, SelectAll())
	if err != nil {
		t.Fatal(err)
	}
	if stepNames(p) != "local-all" || p.Steps[0].Reducers != nil {
		t.Errorf("full-local plan should not compute reducers: %+v", p.Steps)
	}
	// Without distribution knowledge, no reducers.
	p, err = compileFlow(chainQuery(), nil, 4, SelectRules("group-reduce-coord"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Steps[1].Reducers != nil {
		t.Error("no catalog must mean no reducers")
	}
}

func TestPlanErrors(t *testing.T) {
	if _, err := compileFlow(chainQuery(), nil, 0, SelectNone()); err == nil {
		t.Error("zero sites must error")
	}
	// Catalog/deployment mismatch.
	if _, err := compileFlow(chainQuery(), flowCatalog(8), 4, SelectNone()); err == nil {
		t.Error("site-count mismatch must error")
	}
	// Invalid query.
	bad := chainQuery()
	bad.Base.Cols = []string{"zz"}
	if _, err := compileFlow(bad, nil, 4, SelectNone()); err == nil {
		t.Error("invalid query must error")
	}
}

func TestDescribe(t *testing.T) {
	cat := flowCatalog(4)
	p, err := compileFlow(chainQuery(), cat, 4, SelectAll())
	if err != nil {
		t.Fatal(err)
	}
	d := p.Describe()
	for _, frag := range []string{"4 site(s)", "full local", "rounds: 1"} {
		if !strings.Contains(d, frag) {
			t.Errorf("Describe missing %q:\n%s", frag, d)
		}
	}
	p, _ = compileFlow(chainQuery(), nil, 4, SelectRules("local-prefix", "sync-skip", "group-reduce-site"))
	d = p.Describe()
	if !strings.Contains(d, "Prop. 2") || !strings.Contains(d, "guard: true") {
		t.Errorf("Describe:\n%s", d)
	}
	// An operator evaluated in the base+MD1 local round is neither reduced
	// nor guarded, whatever the rules did for the operator rounds.
	for _, tc := range []struct {
		cat   *distrib.Catalog
		rules []string
		want  []string
	}{
		{nil, []string{"sync-skip", "group-reduce-site"}, []string{
			"MD1: coordinator-side group reduction: false, site-side guard: false",
			"MD2: coordinator-side group reduction: false, site-side guard: true",
		}},
		{cat, []string{"sync-skip", "group-reduce-coord"}, []string{
			"MD1: coordinator-side group reduction: false, site-side guard: false",
			"MD2: coordinator-side group reduction: true, site-side guard: false",
			"reduction predicates for 1 of 2 operator round(s)",
		}},
	} {
		p, err := compileFlow(chainQuery(), tc.cat, 4, SelectRules(tc.rules...))
		if err != nil {
			t.Fatal(err)
		}
		d := p.Describe()
		for _, frag := range tc.want {
			if !strings.Contains(d, frag) {
				t.Errorf("%v: Describe missing %q:\n%s", tc.rules, frag, d)
			}
		}
	}
}

func TestKeys(t *testing.T) {
	p, err := compileFlow(chainQuery(), nil, 2, SelectNone())
	if err != nil {
		t.Fatal(err)
	}
	if k := p.Keys(); len(k) != 2 || k[0] != "SAS" {
		t.Errorf("Keys = %v", k)
	}
}

// Conditions are simplified before analysis: a redundant "true &&" prefix
// must not hide the key links from the sync-reduction analysis.
func TestPlanSimplifiesConditions(t *testing.T) {
	q := gmdj.Query{
		Base: gmdj.BaseQuery{Detail: "Flow", Cols: []string{"SAS", "DAS"}},
		Ops: []gmdj.Operator{{Detail: "Flow", Vars: []gmdj.GroupVar{{
			Aggs: []agg.Spec{{Func: agg.Count, As: "c"}},
			Cond: expr.MustParse("true && (B.SAS = R.SAS && (false || B.DAS = R.DAS))"),
		}}}},
	}
	cat := flowCatalog(4)
	p, err := compileFlow(q, cat, 4, SelectRules("local-prefix", "sync-skip"))
	if err != nil {
		t.Fatal(err)
	}
	if stepNames(p) != "local-all" {
		t.Errorf("simplification must expose the key links; plan:\n%s", p.Describe())
	}
	if got := p.Query.Ops[0].Vars[0].Cond.String(); got != "((B.SAS = R.SAS) && (B.DAS = R.DAS))" {
		t.Errorf("condition not simplified: %s", got)
	}
	// The caller's query is untouched.
	if q.Ops[0].Vars[0].Cond.String() == p.Query.Ops[0].Vars[0].Cond.String() {
		t.Error("input query was mutated")
	}
}

// TestOperatorRoundEstimateIsTheExchange: an operator round is priced at what
// it ships — down, the keys and the columns its conditions read; up, the row
// ordinal and the operator's physical columns — not at the widths of X.
func TestOperatorRoundEstimateIsTheExchange(t *testing.T) {
	// Example 1's shape: MD1 leaves cnt, avg_sum, avg_cnt, avg in X; MD2's
	// condition reads the key and avg only.
	q := gmdj.Query{
		Base: gmdj.BaseQuery{Detail: "Flow", Cols: []string{"DAS"}},
		Ops: []gmdj.Operator{
			{Detail: "Flow", Vars: []gmdj.GroupVar{{
				Aggs: []agg.Spec{{Func: agg.Count, As: "cnt"}, {Func: agg.Avg, Arg: "NB", As: "avg"}},
				Cond: expr.MustParse("B.DAS = R.DAS"),
			}}},
			opWith("above", "B.DAS = R.DAS && R.NB >= B.avg"),
		},
	}
	model := DefaultCostModel(stats.NetModel{})
	p, err := Compile(q, flowSchemas, nil, 4, SelectNone(), model)
	if err != nil {
		t.Fatal(err)
	}
	const num, row = 8, 1 // rowBytes: 8 per number, 1 per row
	groups, sites := model.DefaultGroups, int64(4)
	want := []RoundEstimate{
		{Name: "base", BytesDown: sites * model.MsgOverhead, BytesUp: sites * groups * (row + num)},
		// MD1 ships DAS, gets back ordinal + cnt, avg_sum, avg_cnt.
		{Name: "MD1", BytesDown: sites * (model.MsgOverhead + groups*(row+num)), BytesUp: sites * groups * (row + 4*num)},
		// MD2 ships DAS and avg of X's five columns, gets back ordinal + above.
		{Name: "MD2", BytesDown: sites * (model.MsgOverhead + groups*(row+2*num)), BytesUp: sites * groups * (row + 2*num)},
	}
	if len(p.Estimate.PerRound) != len(want) {
		t.Fatalf("rounds = %+v", p.Estimate.PerRound)
	}
	for i, w := range want {
		if got := p.Estimate.PerRound[i]; got != w {
			t.Errorf("round %d = %+v, want %+v", i, got, w)
		}
	}
}

// A selection renders in one canonical form: its rules in registry order
// without duplicates, the full registry as all and the empty set as none.
// The text parses back to a selection that renders the same, and a compiled
// plan's Mode is that text.
func TestSelectionStringIsCanonical(t *testing.T) {
	for _, tc := range []struct {
		sel  Selection
		want string
	}{
		{SelectRules("sync-skip", "coalesce"), "rules=coalesce,sync-skip"},
		{SelectRules("coalesce", "sync-skip", "coalesce"), "rules=coalesce,sync-skip"},
		{SelectRules(RuleNames()...), "all"},
		{SelectRules(), "none"},
		{SelectAll(), "all"},
		{SelectNone(), "none"},
		{SelectAuto(), "auto"},
	} {
		if got := tc.sel.String(); got != tc.want {
			t.Errorf("%#v renders %q, want %q", tc.sel, got, tc.want)
		}
		back, err := ParseSelection(tc.sel.String())
		if err != nil || back.String() != tc.want {
			t.Errorf("ParseSelection(%q) = %v, %v", tc.want, back, err)
		}
		p, err := compileFlow(chainQuery(), nil, 4, tc.sel)
		if err != nil {
			t.Fatal(err)
		}
		if p.Mode != tc.want {
			t.Errorf("%#v compiles a plan of mode %q, want %q", tc.sel, p.Mode, tc.want)
		}
	}
}
