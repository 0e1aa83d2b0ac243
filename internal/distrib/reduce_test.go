package distrib

import (
	"testing"

	"skalla/internal/agg"
	"skalla/internal/expr"
	"skalla/internal/gmdj"
	"skalla/internal/relation"
)

var flowSchema = relation.MustSchema(
	relation.Column{Name: "SourceAS", Kind: relation.KindInt},
	relation.Column{Name: "DestAS", Kind: relation.KindInt},
	relation.Column{Name: "NB", Kind: relation.KindInt},
)

// flowDist partitions Flow on SourceAS into ranges of 25: site 0 holds
// [1,25], site 1 holds [26,50] — the paper's Example 2 setup.
func flowDist() *Distribution {
	return &Distribution{
		Relation: "Flow",
		NumSites: 2,
		Attrs: []AttrInfo{{
			Attr:     "SourceAS",
			Disjoint: true,
			Filters:  []SiteFilter{IntRange{1, 25}, IntRange{26, 50}},
		}},
	}
}

func countVar(cond string) gmdj.GroupVar {
	return gmdj.GroupVar{
		Aggs: []agg.Spec{{Func: agg.Count, As: "c"}},
		Cond: expr.MustParse(cond),
	}
}

func baseTuple(sas, das int64) relation.Tuple {
	return relation.Tuple{relation.NewInt(sas), relation.NewInt(das)}
}

var reduceBaseSchema = relation.MustSchema(
	relation.Column{Name: "SourceAS", Kind: relation.KindInt},
	relation.Column{Name: "DestAS", Kind: relation.KindInt},
)

// Example 2 of the paper: with θ containing Flow.SourceAS = B.SourceAS and
// site 0 holding SourceAS in [1,25], ¬ψ_0(b) is b.SourceAS ∈ [1,25].
func TestGroupReducersEquality(t *testing.T) {
	op := gmdj.Operator{Detail: "Flow", Vars: []gmdj.GroupVar{
		countVar("B.SourceAS = R.SourceAS && B.DestAS = R.DestAS"),
	}}
	preds, ok, err := GroupReducers(op, reduceBaseSchema, flowDist())
	if err != nil || !ok {
		t.Fatalf("GroupReducers: ok=%v err=%v", ok, err)
	}
	if len(preds) != 2 {
		t.Fatalf("preds len = %d", len(preds))
	}
	keep, err := preds[0](baseTuple(10, 99))
	if err != nil || !keep {
		t.Errorf("site 0 must keep SourceAS=10: %v %v", keep, err)
	}
	keep, _ = preds[0](baseTuple(30, 99))
	if keep {
		t.Error("site 0 must drop SourceAS=30")
	}
	keep, _ = preds[1](baseTuple(30, 99))
	if !keep {
		t.Error("site 1 must keep SourceAS=30")
	}
	keep, _ = preds[1](baseTuple(10, 99))
	if keep {
		t.Error("site 1 must drop SourceAS=10")
	}
}

// The paper's revised Example 2 condition: B.DestAS + B.SourceAS <
// Flow.SourceAS*2 relaxes at site 0 ([1,25]) to B.DestAS + B.SourceAS < 50.
func TestGroupReducersAffine(t *testing.T) {
	op := gmdj.Operator{Detail: "Flow", Vars: []gmdj.GroupVar{
		countVar("B.DestAS + B.SourceAS < R.SourceAS * 2"),
	}}
	preds, ok, err := GroupReducers(op, reduceBaseSchema, flowDist())
	if err != nil || !ok {
		t.Fatalf("GroupReducers: ok=%v err=%v", ok, err)
	}
	keep, _ := preds[0](baseTuple(20, 29)) // 49 < 50
	if !keep {
		t.Error("site 0 must keep sum 49")
	}
	keep, _ = preds[0](baseTuple(20, 30)) // 50 not < 50
	if keep {
		t.Error("site 0 must drop sum 50")
	}
	keep, _ = preds[1](baseTuple(20, 79)) // site 1 bound: < 100
	if !keep {
		t.Error("site 1 must keep sum 99")
	}
}

func TestGroupReducersFlippedComparison(t *testing.T) {
	// Detail side on the left: R.SourceAS * 2 > B.DestAS is the mirrored form.
	op := gmdj.Operator{Detail: "Flow", Vars: []gmdj.GroupVar{
		countVar("R.SourceAS * 2 > B.DestAS"),
	}}
	preds, ok, err := GroupReducers(op, reduceBaseSchema, flowDist())
	if err != nil || !ok {
		t.Fatalf("GroupReducers: ok=%v err=%v", ok, err)
	}
	keep, _ := preds[0](baseTuple(0, 49)) // 49 < 2*25
	if !keep {
		t.Error("site 0 must keep DestAS=49")
	}
	keep, _ = preds[0](baseTuple(0, 50))
	if keep {
		t.Error("site 0 must drop DestAS=50")
	}
}

func TestGroupReducersNoInfo(t *testing.T) {
	// Condition on an unconstrained attribute: no reduction.
	op := gmdj.Operator{Detail: "Flow", Vars: []gmdj.GroupVar{
		countVar("B.DestAS = R.DestAS"),
	}}
	_, ok, err := GroupReducers(op, reduceBaseSchema, flowDist())
	if err != nil || ok {
		t.Errorf("unconstrained attr: ok=%v err=%v, want no reduction", ok, err)
	}
	// Nil distribution: no reduction.
	if _, ok, _ := GroupReducers(op, reduceBaseSchema, nil); ok {
		t.Error("nil distribution must not reduce")
	}
}

func TestGroupReducersMultiVarOr(t *testing.T) {
	// ψ uses the OR over all variables: a tuple needed by either variable
	// must be kept.
	op := gmdj.Operator{Detail: "Flow", Vars: []gmdj.GroupVar{
		countVar("B.SourceAS = R.SourceAS"),
		countVar("B.DestAS = R.SourceAS"),
	}}
	preds, ok, err := GroupReducers(op, reduceBaseSchema, flowDist())
	if err != nil || !ok {
		t.Fatalf("GroupReducers: ok=%v err=%v", ok, err)
	}
	// SourceAS outside site 0, but DestAS inside: second variable needs it.
	keep, _ := preds[0](baseTuple(40, 10))
	if !keep {
		t.Error("site 0 must keep tuple needed by second variable")
	}
	keep, _ = preds[0](baseTuple(40, 40))
	if keep {
		t.Error("site 0 must drop tuple needed by neither variable")
	}
	// One variable without information poisons the whole operator.
	op.Vars = append(op.Vars, countVar("R.NB > 5"))
	if _, ok, _ := GroupReducers(op, reduceBaseSchema, flowDist()); ok {
		t.Error("uninformative variable must disable reduction")
	}
}

func TestGroupReducersBaseOnlyConjunct(t *testing.T) {
	// A base-only conjunct narrows every site's predicate.
	op := gmdj.Operator{Detail: "Flow", Vars: []gmdj.GroupVar{
		countVar("B.SourceAS = R.SourceAS && B.DestAS < 5"),
	}}
	preds, ok, err := GroupReducers(op, reduceBaseSchema, flowDist())
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	keep, _ := preds[0](baseTuple(10, 10)) // in range but DestAS >= 5
	if keep {
		t.Error("base-only conjunct must filter")
	}
	keep, _ = preds[0](baseTuple(10, 2))
	if !keep {
		t.Error("satisfying tuple must be kept")
	}
}

func queryWithConds(conds ...string) gmdj.Query {
	q := gmdj.Query{Base: gmdj.BaseQuery{Detail: "Flow", Cols: []string{"SourceAS", "DestAS"}}}
	for i, c := range conds {
		q.Ops = append(q.Ops, gmdj.Operator{Detail: "Flow", Vars: []gmdj.GroupVar{{
			Aggs: []agg.Spec{{Func: agg.Count, As: "c" + string(rune('a'+i))}},
			Cond: expr.MustParse(c),
		}}})
	}
	return q
}

func TestCanSkipBaseSync(t *testing.T) {
	// Both keys self-linked: skip.
	q := queryWithConds("B.SourceAS = R.SourceAS && B.DestAS = R.DestAS")
	if !CanSkipBaseSync(q) {
		t.Error("self-linked keys must allow base-sync skip")
	}
	// Missing one key link: no skip.
	q = queryWithConds("B.SourceAS = R.SourceAS")
	if CanSkipBaseSync(q) {
		t.Error("missing key link must prevent skip")
	}
	// Key linked to a different detail column: no skip.
	q = queryWithConds("B.SourceAS = R.SourceAS && B.DestAS = R.NB")
	if CanSkipBaseSync(q) {
		t.Error("cross-column link must prevent skip")
	}
	// Different detail relation for the base: no skip.
	q = queryWithConds("B.SourceAS = R.SourceAS && B.DestAS = R.DestAS")
	q.Base.Detail = "Other"
	if CanSkipBaseSync(q) {
		t.Error("different base detail must prevent skip")
	}
	// No operators: no skip.
	if CanSkipBaseSync(gmdj.Query{Base: gmdj.BaseQuery{Detail: "Flow", Cols: []string{"SourceAS"}}}) {
		t.Error("no ops must prevent skip")
	}
	// Filtered base: skip, with a witness counting the filter's rows at the
	// sites — unless grouping sets ask for more than the witness pass covers.
	q = queryWithConds("B.SourceAS = R.SourceAS && B.DestAS = R.DestAS")
	q.Base.Where = expr.MustParse("R.NB > 10")
	if !CanSkipBaseSync(q) {
		t.Error("a base WHERE counted by a witness must allow skip")
	}
	q.Base.GroupingSets = [][]string{{"SourceAS", "DestAS"}, {"SourceAS"}}
	if CanSkipBaseSync(q) {
		t.Error("a base WHERE with grouping sets must prevent skip")
	}
}

func TestFullLocal(t *testing.T) {
	cat := NewCatalog(flowDist())
	// Every operator links the partition attribute: fully local.
	q := queryWithConds(
		"B.SourceAS = R.SourceAS && B.DestAS = R.DestAS",
		"B.SourceAS = R.SourceAS && R.NB > 3",
	)
	ok, err := FullLocal(q, cat)
	if err != nil || !ok {
		t.Errorf("FullLocal = %v, %v, want true", ok, err)
	}
	// Second operator does not link the partition attribute: not local.
	q = queryWithConds(
		"B.SourceAS = R.SourceAS",
		"B.DestAS = R.DestAS",
	)
	if ok, _ := FullLocal(q, cat); ok {
		t.Error("unlinked operator must prevent FullLocal")
	}
	// Partition attribute not among base keys: not local.
	q = queryWithConds("B.DestAS = R.DestAS")
	q.Base.Cols = []string{"DestAS"}
	if ok, _ := FullLocal(q, cat); ok {
		t.Error("no partition key in base must prevent FullLocal")
	}
	// Unknown relation: not local.
	q = queryWithConds("B.SourceAS = R.SourceAS")
	q.Base.Detail = "Other"
	q.Ops[0].Detail = "Other"
	if ok, _ := FullLocal(q, cat); ok {
		t.Error("unknown distribution must prevent FullLocal")
	}
	// FD-derived partition attribute qualifies.
	d := flowDist()
	d.Attrs[0].Attr = "RouterId"
	d.FDs = []FD{{From: "SourceAS", To: "RouterId"}}
	cat2 := NewCatalog(d)
	q = queryWithConds("B.SourceAS = R.SourceAS")
	ok, err = FullLocal(q, cat2)
	if err != nil || !ok {
		t.Errorf("FD-derived partition attr: FullLocal = %v, %v", ok, err)
	}
	// Empty query.
	if ok, _ := FullLocal(gmdj.Query{Base: gmdj.BaseQuery{Detail: "Flow"}}, cat); ok {
		t.Error("empty query must not be FullLocal")
	}
}

func TestOwnership(t *testing.T) {
	cat := NewCatalog(flowDist())
	q := queryWithConds("B.SourceAS = R.SourceAS")
	owner, err := Ownership(q, cat, reduceBaseSchema)
	if err != nil {
		t.Fatal(err)
	}
	if got := owner(baseTuple(10, 0)); got != 0 {
		t.Errorf("owner(10) = %d", got)
	}
	if got := owner(baseTuple(30, 0)); got != 1 {
		t.Errorf("owner(30) = %d", got)
	}
	if got := owner(baseTuple(99, 0)); got != -1 {
		t.Errorf("owner(99) = %d, want -1", got)
	}
	// No distribution: error.
	if _, err := Ownership(q, NewCatalog(), reduceBaseSchema); err == nil {
		t.Error("missing distribution must error")
	}
	_ = flowSchema // keep the shared schema referenced
}
