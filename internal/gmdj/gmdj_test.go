package gmdj

import (
	"context"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"skalla/internal/agg"
	"skalla/internal/expr"
	"skalla/internal/relation"
)

func flowRelation() *relation.Relation {
	r := relation.New(relation.MustSchema(
		relation.Column{Name: "SAS", Kind: relation.KindInt},
		relation.Column{Name: "DAS", Kind: relation.KindInt},
		relation.Column{Name: "NB", Kind: relation.KindInt},
	))
	rows := [][3]int64{
		{1, 1, 10}, {1, 1, 20}, {1, 1, 30},
		{1, 2, 5},
		{2, 1, 7}, {2, 1, 9},
	}
	for _, x := range rows {
		r.MustAppend(relation.Tuple{relation.NewInt(x[0]), relation.NewInt(x[1]), relation.NewInt(x[2])})
	}
	return r
}

// example1 is the paper's Example 1: per (SourceAS, DestAS), the total number
// of flows and the number of flows whose NB exceeds the group average.
func example1() Query {
	return Query{
		Base: BaseQuery{Detail: "Flow", Cols: []string{"SAS", "DAS"}},
		Ops: []Operator{
			{Detail: "Flow", Vars: []GroupVar{{
				Aggs: []agg.Spec{
					{Func: agg.Count, As: "cnt1"},
					{Func: agg.Sum, Arg: "NB", As: "sum1"},
				},
				Cond: expr.MustParse("B.SAS = R.SAS && B.DAS = R.DAS"),
			}}},
			{Detail: "Flow", Vars: []GroupVar{{
				Aggs: []agg.Spec{{Func: agg.Count, As: "cnt2"}},
				Cond: expr.MustParse("B.SAS = R.SAS && B.DAS = R.DAS && R.NB >= B.sum1 / B.cnt1"),
			}}},
		},
	}
}

func findRow(t *testing.T, r *relation.Relation, sas, das int64) relation.Tuple {
	t.Helper()
	si, di := r.Schema.MustIndex("SAS"), r.Schema.MustIndex("DAS")
	for _, tp := range r.Rows() {
		if tp[si].Int == sas && tp[di].Int == das {
			return tp
		}
	}
	t.Fatalf("no row for (%d,%d) in\n%s", sas, das, r)
	return nil
}

func TestExample1Centralized(t *testing.T) {
	data := Data{"Flow": flowRelation()}
	for _, useHash := range []bool{true, false} {
		res, err := EvalCentral(example1(), data, useHash)
		if err != nil {
			t.Fatalf("useHash=%v: %v", useHash, err)
		}
		if res.Len() != 3 {
			t.Fatalf("useHash=%v: %d groups, want 3\n%s", useHash, res.Len(), res)
		}
		wantCols := []string{"SAS", "DAS", "cnt1", "sum1", "cnt2"}
		if got := strings.Join(res.Schema.Names(), ","); got != strings.Join(wantCols, ",") {
			t.Fatalf("schema = %s", got)
		}
		check := func(sas, das, cnt1, sum1, cnt2 int64) {
			row := findRow(t, res, sas, das)
			if row[2].Int != cnt1 || row[3].Int != sum1 || row[4].Int != cnt2 {
				t.Errorf("useHash=%v group(%d,%d) = cnt1=%v sum1=%v cnt2=%v, want %d %d %d",
					useHash, sas, das, row[2], row[3], row[4], cnt1, sum1, cnt2)
			}
		}
		check(1, 1, 3, 60, 2) // avg 20; NB>=20 are 20 and 30
		check(1, 2, 1, 5, 1)
		check(2, 1, 2, 16, 1) // avg 8; NB>=8 is 9
	}
}

func TestExample1WithAvgColumnReference(t *testing.T) {
	// Same query but computing AVG(NB) and referencing the derived average
	// column in the second operator's condition.
	q := Query{
		Base: BaseQuery{Detail: "Flow", Cols: []string{"SAS", "DAS"}},
		Ops: []Operator{
			{Detail: "Flow", Vars: []GroupVar{{
				Aggs: []agg.Spec{
					{Func: agg.Count, As: "cnt1"},
					{Func: agg.Avg, Arg: "NB", As: "avgNB"},
				},
				Cond: expr.MustParse("B.SAS = R.SAS && B.DAS = R.DAS"),
			}}},
			{Detail: "Flow", Vars: []GroupVar{{
				Aggs: []agg.Spec{{Func: agg.Count, As: "cnt2"}},
				Cond: expr.MustParse("B.SAS = R.SAS && B.DAS = R.DAS && R.NB >= B.avgNB"),
			}}},
		},
	}
	res, err := EvalCentral(q, Data{"Flow": flowRelation()}, true)
	if err != nil {
		t.Fatal(err)
	}
	row := findRow(t, res, 1, 1)
	avgIdx := res.Schema.MustIndex("avgNB")
	cnt2Idx := res.Schema.MustIndex("cnt2")
	if row[avgIdx].Float != 20.0 || row[cnt2Idx].Int != 2 {
		t.Errorf("avg/cnt2 = %v/%v", row[avgIdx], row[cnt2Idx])
	}
}

func TestEvalBaseWithWhere(t *testing.T) {
	bq := BaseQuery{Detail: "Flow", Cols: []string{"SAS"}, Where: expr.MustParse("R.NB > 6")}
	b, err := EvalBase(context.Background(), bq, SourceOf(flowRelation()))
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 { // SAS 1 (NB 10,20,30) and SAS 2 (7,9); SAS=1 NB=5 filtered but 1 still present
		t.Fatalf("base rows = %d\n%s", b.Len(), b)
	}
	bq2 := BaseQuery{Detail: "Flow", Cols: []string{"SAS"}, Where: expr.MustParse("R.NB > 1000")}
	b2, _ := EvalBase(context.Background(), bq2, SourceOf(flowRelation()))
	if b2.Len() != 0 {
		t.Errorf("empty filter should give 0 base rows, got %d", b2.Len())
	}
	bq3 := BaseQuery{Detail: "Flow", Cols: []string{"SAS"}, Where: expr.MustParse("R.NB + 1")}
	if _, err := EvalBase(context.Background(), bq3, SourceOf(flowRelation())); err == nil {
		t.Error("non-boolean filter must error")
	}
}

func TestOverlappingRanges(t *testing.T) {
	// RNG sets for different base tuples may overlap (the paper stresses that
	// conventional group-by cannot express this). Every detail row with
	// NB >= B.SAS*10 counts for the group: groups with smaller SAS see more
	// rows; totals across groups exceed the table size.
	q := Query{
		Base: BaseQuery{Detail: "Flow", Cols: []string{"SAS"}},
		Ops: []Operator{{Detail: "Flow", Vars: []GroupVar{{
			Aggs: []agg.Spec{{Func: agg.Count, As: "c"}},
			Cond: expr.MustParse("R.NB >= B.SAS * 10"),
		}}}},
	}
	res, err := EvalCentral(q, Data{"Flow": flowRelation()}, true)
	if err != nil {
		t.Fatal(err)
	}
	ci := res.Schema.MustIndex("c")
	si := res.Schema.MustIndex("SAS")
	for _, row := range res.Rows() {
		switch row[si].Int {
		case 1:
			if row[ci].Int != 3 { // NB in {10,20,30}
				t.Errorf("SAS=1 count = %v", row[ci])
			}
		case 2:
			if row[ci].Int != 2 { // NB in {20,30}
				t.Errorf("SAS=2 count = %v", row[ci])
			}
		}
	}
}

func TestValidateErrors(t *testing.T) {
	src := Data{"Flow": flowRelation()}
	cases := []struct {
		name string
		q    Query
	}{
		{"no base cols", Query{Base: BaseQuery{Detail: "Flow"}}},
		{"unknown detail", Query{Base: BaseQuery{Detail: "Nope", Cols: []string{"SAS"}}}},
		{"unknown base col", Query{Base: BaseQuery{Detail: "Flow", Cols: []string{"zz"}}}},
		{"bad filter", Query{Base: BaseQuery{Detail: "Flow", Cols: []string{"SAS"}, Where: expr.MustParse("R.zz = 1")}}},
		{"base ref in filter", Query{Base: BaseQuery{Detail: "Flow", Cols: []string{"SAS"}, Where: expr.MustParse("B.SAS = 1")}}},
		{"op without vars", Query{
			Base: BaseQuery{Detail: "Flow", Cols: []string{"SAS"}},
			Ops:  []Operator{{Detail: "Flow"}},
		}},
		{"var without aggs", Query{
			Base: BaseQuery{Detail: "Flow", Cols: []string{"SAS"}},
			Ops:  []Operator{{Detail: "Flow", Vars: []GroupVar{{Cond: expr.MustParse("true")}}}},
		}},
		{"var without cond", Query{
			Base: BaseQuery{Detail: "Flow", Cols: []string{"SAS"}},
			Ops:  []Operator{{Detail: "Flow", Vars: []GroupVar{{Aggs: []agg.Spec{{Func: agg.Count, As: "c"}}}}}},
		}},
		{"cond references future column", Query{
			Base: BaseQuery{Detail: "Flow", Cols: []string{"SAS"}},
			Ops: []Operator{{Detail: "Flow", Vars: []GroupVar{{
				Aggs: []agg.Spec{{Func: agg.Count, As: "c"}},
				Cond: expr.MustParse("B.c > 0"), // produced by this very operator
			}}}},
		}},
		{"duplicate output names", Query{
			Base: BaseQuery{Detail: "Flow", Cols: []string{"SAS"}},
			Ops: []Operator{
				{Detail: "Flow", Vars: []GroupVar{{Aggs: []agg.Spec{{Func: agg.Count, As: "c"}}, Cond: expr.MustParse("true")}}},
				{Detail: "Flow", Vars: []GroupVar{{Aggs: []agg.Spec{{Func: agg.Count, As: "c"}}, Cond: expr.MustParse("true")}}},
			},
		}},
		{"agg name collides with base col", Query{
			Base: BaseQuery{Detail: "Flow", Cols: []string{"SAS"}},
			Ops: []Operator{{Detail: "Flow", Vars: []GroupVar{{
				Aggs: []agg.Spec{{Func: agg.Count, As: "SAS"}},
				Cond: expr.MustParse("true"),
			}}}},
		}},
	}
	for _, c := range cases {
		if err := c.q.Validate(src); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
	if err := example1().Validate(src); err != nil {
		t.Errorf("example1 must validate: %v", err)
	}
}

func TestXSchemasAndFinalColumns(t *testing.T) {
	src := Data{"Flow": flowRelation()}
	xs, err := XSchemas(example1(), src)
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != 3 {
		t.Fatalf("XSchemas len = %d", len(xs))
	}
	if xs[0].String() != "(SAS INT, DAS INT)" {
		t.Errorf("X0 = %s", xs[0])
	}
	if !xs[1].Has("cnt1") || !xs[1].Has("sum1") || xs[1].Has("cnt2") {
		t.Errorf("X1 = %s", xs[1])
	}
	if !xs[2].Has("cnt2") {
		t.Errorf("X2 = %s", xs[2])
	}
	cols := FinalColumns(example1())
	want := "SAS,DAS,cnt1,sum1,cnt2"
	if strings.Join(cols, ",") != want {
		t.Errorf("FinalColumns = %v", cols)
	}
}

func TestQueryString(t *testing.T) {
	s := example1().String()
	for _, frag := range []string{"BASE distinct SAS,DAS over Flow", "MD1 over Flow", "COUNT(*) -> cnt1", "MD2"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Query.String missing %q:\n%s", frag, s)
		}
	}
	q := example1()
	q.Base.Where = expr.MustParse("R.NB > 0")
	if !strings.Contains(q.String(), "where") {
		t.Error("Query.String missing filter")
	}
}

func TestCanCoalesce(t *testing.T) {
	src := Data{"Flow": flowRelation()}
	q := example1()
	// MD2 references B.sum1/B.cnt1 generated by MD1: not coalescible.
	ok, err := CanCoalesce(q.Ops[0], q.Ops[1], src)
	if err != nil || ok {
		t.Errorf("dependent ops: CanCoalesce = %v, %v", ok, err)
	}
	// Independent second operator: coalescible.
	indep := Operator{Detail: "Flow", Vars: []GroupVar{{
		Aggs: []agg.Spec{{Func: agg.Count, As: "cnt2"}},
		Cond: expr.MustParse("B.SAS = R.SAS && R.NB > 8"),
	}}}
	ok, err = CanCoalesce(q.Ops[0], indep, src)
	if err != nil || !ok {
		t.Errorf("independent ops: CanCoalesce = %v, %v", ok, err)
	}
	// Different detail relations: never coalescible.
	other := indep
	other.Detail = "Other"
	if ok, _ := CanCoalesce(q.Ops[0], other, src); ok {
		t.Error("different detail relations must not coalesce")
	}
	// AVG derived column reference also blocks coalescing.
	avgOp := Operator{Detail: "Flow", Vars: []GroupVar{{
		Aggs: []agg.Spec{{Func: agg.Avg, Arg: "NB", As: "a1"}},
		Cond: expr.MustParse("B.SAS = R.SAS"),
	}}}
	dep := Operator{Detail: "Flow", Vars: []GroupVar{{
		Aggs: []agg.Spec{{Func: agg.Count, As: "c2"}},
		Cond: expr.MustParse("R.NB >= B.a1"),
	}}}
	if ok, _ := CanCoalesce(avgOp, dep, src); ok {
		t.Error("reference to derived AVG column must block coalescing")
	}
}

func TestCoalescePreservesResults(t *testing.T) {
	src := Data{"Flow": flowRelation()}
	q := Query{
		Base: BaseQuery{Detail: "Flow", Cols: []string{"SAS", "DAS"}},
		Ops: []Operator{
			{Detail: "Flow", Vars: []GroupVar{{
				Aggs: []agg.Spec{{Func: agg.Count, As: "cnt1"}, {Func: agg.Sum, Arg: "NB", As: "sum1"}},
				Cond: expr.MustParse("B.SAS = R.SAS && B.DAS = R.DAS"),
			}}},
			{Detail: "Flow", Vars: []GroupVar{{
				Aggs: []agg.Spec{{Func: agg.Count, As: "cnt2"}},
				Cond: expr.MustParse("B.SAS = R.SAS && B.DAS = R.DAS && R.NB > 8"),
			}}},
		},
	}
	cq, merges, err := Coalesce(q, src)
	if err != nil || merges != 1 {
		t.Fatalf("Coalesce merges = %d, err = %v", merges, err)
	}
	if len(cq.Ops) != 1 || len(cq.Ops[0].Vars) != 2 {
		t.Fatalf("coalesced shape: %d ops, %d vars", len(cq.Ops), len(cq.Ops[0].Vars))
	}
	r1, err := EvalCentral(q, src, true)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := EvalCentral(cq, src, true)
	if err != nil {
		t.Fatal(err)
	}
	r1.Sort()
	r2.Sort()
	if !r1.EqualMultiset(r2) {
		t.Errorf("coalescing changed results:\n%s\nvs\n%s", r1, r2)
	}
	// Original query untouched.
	if len(q.Ops) != 2 {
		t.Error("Coalesce mutated input query")
	}
	// Dependent query must not be merged.
	_, merges, err = Coalesce(example1(), src)
	if err != nil || merges != 0 {
		t.Errorf("dependent query merges = %d, err=%v", merges, err)
	}
}

// Hash-path and nested-loop evaluation must agree on randomized data and a
// family of conditions with residual predicates.
func TestHashVsNestedLoopRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		r := relation.New(relation.MustSchema(
			relation.Column{Name: "g", Kind: relation.KindInt},
			relation.Column{Name: "h", Kind: relation.KindInt},
			relation.Column{Name: "v", Kind: relation.KindInt},
		))
		n := rng.Intn(60)
		for i := 0; i < n; i++ {
			r.MustAppend(relation.Tuple{
				relation.NewInt(int64(rng.Intn(5))),
				relation.NewInt(int64(rng.Intn(3))),
				relation.NewInt(int64(rng.Intn(100))),
			})
		}
		conds := []string{
			"B.g = R.g",
			"B.g = R.g && R.v > 50",
			"B.g = R.g && B.h = R.h",
			"B.g = R.g && R.v % 2 = 0",
		}
		q := Query{
			Base: BaseQuery{Detail: "T", Cols: []string{"g", "h"}},
			Ops: []Operator{{Detail: "T", Vars: []GroupVar{{
				Aggs: []agg.Spec{
					{Func: agg.Count, As: "c"},
					{Func: agg.Sum, Arg: "v", As: "s"},
					{Func: agg.Min, Arg: "v", As: "mn"},
					{Func: agg.Max, Arg: "v", As: "mx"},
				},
				Cond: expr.MustParse(conds[trial%len(conds)]),
			}}}},
		}
		src := Data{"T": r}
		a, err := EvalCentral(q, src, true)
		if err != nil {
			t.Fatal(err)
		}
		b, err := EvalCentral(q, src, false)
		if err != nil {
			t.Fatal(err)
		}
		if !a.EqualMultiset(b) {
			t.Fatalf("trial %d: hash and nested-loop disagree:\n%s\nvs\n%s", trial, a, b)
		}
	}
}

// TestScanErrorAborts checks that an error partway through a detail scan ends
// the evaluation with that error, on the hash path and the nested loop alike.
func TestScanErrorAborts(t *testing.T) {
	detail := relation.New(relation.MustSchema(
		relation.Column{Name: "SAS", Kind: relation.KindInt},
		relation.Column{Name: "NB", Kind: relation.KindString},
	))
	for i := 0; i < 8000; i++ {
		detail.MustAppend(relation.Tuple{relation.NewInt(1), relation.NewString(strconv.Itoa(i))})
	}
	base := relation.New(relation.MustSchema(relation.Column{Name: "SAS", Kind: relation.KindInt}))
	base.MustAppend(relation.Tuple{relation.NewInt(1)})
	op := Operator{Detail: "Flow", Vars: []GroupVar{{
		Aggs: []agg.Spec{{Func: agg.Sum, Arg: "NB", As: "s"}}, // SUM over a string column fails at accumulate
		Cond: expr.MustParse("B.SAS = R.SAS"),
	}}}
	for _, useHash := range []bool{true, false} {
		if _, err := AccumulateOperator(context.Background(), base, op, SourceOf(detail), useHash); err == nil {
			t.Errorf("useHash=%v: expected an accumulate error", useHash)
		}
	}
}

func TestDataSourceErrors(t *testing.T) {
	d := Data{}
	if _, err := d.DetailRelation("x"); err == nil {
		t.Error("missing relation must error")
	}
	if _, err := d.DetailSchema("x"); err == nil {
		t.Error("missing schema must error")
	}
	s := Schemas{}
	if _, err := s.DetailSchema("x"); err == nil {
		t.Error("missing schema must error")
	}
}
