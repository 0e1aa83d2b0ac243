package engine

import (
	"context"
	"strings"
	"testing"

	"skalla/internal/agg"
	"skalla/internal/expr"
	"skalla/internal/gmdj"
	"skalla/internal/relation"
)

func flowSchema() relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "SAS", Kind: relation.KindInt},
		relation.Column{Name: "DAS", Kind: relation.KindInt},
		relation.Column{Name: "NB", Kind: relation.KindInt},
	)
}

func flowRel(rows ...[3]int64) *relation.Relation {
	r := relation.New(flowSchema())
	for _, x := range rows {
		r.MustAppend(relation.Tuple{relation.NewInt(x[0]), relation.NewInt(x[1]), relation.NewInt(x[2])})
	}
	return r
}

func siteWithFlows(t *testing.T, rows ...[3]int64) *Site {
	t.Helper()
	s := NewSite(0)
	if err := s.Load(context.Background(), "Flow", flowRel(rows...)); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLoadAndLookup(t *testing.T) {
	s := NewSite(3)
	if s.ID() != 3 {
		t.Errorf("ID = %d", s.ID())
	}
	if err := s.Load(context.Background(), "", flowRel()); err == nil {
		t.Error("empty name must error")
	}
	if err := s.Load(context.Background(), "Flow", nil); err == nil {
		t.Error("nil relation must error")
	}
	if err := s.Load(context.Background(), "Flow", flowRel([3]int64{1, 1, 1})); err != nil {
		t.Fatal(err)
	}
	if err := s.Load(context.Background(), "Other", flowRel()); err != nil {
		t.Fatal(err)
	}
	names := s.TableNames()
	if len(names) != 2 || names[0] != "Flow" || names[1] != "Other" {
		t.Errorf("TableNames = %v", names)
	}
	if _, err := s.DetailSource("Missing"); err == nil {
		t.Error("missing relation must error")
	}
	if src, err := s.DetailSource("Flow"); err != nil || src.Len() != 1 {
		t.Errorf("DetailSource: %v %v", src, err)
	}
	if sch, err := s.DetailSchema(context.Background(), "Flow"); err != nil || !sch.Has("NB") {
		t.Errorf("DetailSchema: %v %v", sch, err)
	}
	if _, err := s.DetailSchema(context.Background(), "Missing"); err == nil {
		t.Error("missing schema must error")
	}
	bad := relation.New(relation.Schema{{Name: "", Kind: relation.KindInt}})
	if err := s.Load(context.Background(), "Bad", bad); err == nil {
		t.Error("invalid schema must be rejected")
	}
}

func TestEvalBase(t *testing.T) {
	s := siteWithFlows(t, [3]int64{1, 1, 5}, [3]int64{1, 1, 6}, [3]int64{2, 1, 7})
	b, err := s.EvalBase(context.Background(), gmdj.BaseQuery{Detail: "Flow", Cols: []string{"SAS"}})
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 {
		t.Errorf("base rows = %d", b.Len())
	}
	if _, err := s.EvalBase(context.Background(), gmdj.BaseQuery{Detail: "Nope", Cols: []string{"x"}}); err == nil {
		t.Error("missing detail must error")
	}
}

func baseFragment(sasVals ...int64) *relation.Relation {
	r := relation.New(relation.MustSchema(relation.Column{Name: "SAS", Kind: relation.KindInt}))
	for _, v := range sasVals {
		r.MustAppend(relation.Tuple{relation.NewInt(v)})
	}
	return r
}

func countOp(cond string) gmdj.Operator {
	return gmdj.Operator{Detail: "Flow", Vars: []gmdj.GroupVar{{
		Aggs: []agg.Spec{{Func: agg.Count, As: "c"}, {Func: agg.Sum, Arg: "NB", As: "s"}},
		Cond: expr.MustParse(cond),
	}}}
}

func TestEvalOperatorSubAggregates(t *testing.T) {
	s := siteWithFlows(t, [3]int64{1, 1, 5}, [3]int64{1, 2, 7}, [3]int64{2, 1, 11})
	base := baseFragment(1, 2, 3)
	h, err := s.EvalOperator(context.Background(), OperatorRequest{
		Base: base,
		Op:   countOp("B.SAS = R.SAS"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 3 {
		t.Fatalf("H rows = %d, want 3 (no guard)\n%s", h.Len(), h)
	}
	if got := strings.Join(h.Schema.Names(), ","); got != OrdinalColumn+",c,s" {
		t.Fatalf("H schema = %s", got)
	}
	byKey := map[int64][2]int64{}
	for _, row := range h.Tuples {
		var sum int64
		if !row[2].IsNull() {
			sum = row[2].Int
		}
		// A row names its base tuple by position in the shipped fragment.
		byKey[base.Tuples[row[0].Int][0].Int] = [2]int64{row[1].Int, sum}
	}
	if byKey[1] != [2]int64{2, 12} || byKey[2] != [2]int64{1, 11} || byKey[3] != [2]int64{0, 0} {
		t.Errorf("sub-aggregates = %v", byKey)
	}
	// SUM over an empty range must be NULL.
	for _, row := range h.Tuples {
		if row[0].Int == 2 && !row[2].IsNull() {
			t.Errorf("empty-range sum = %v, want NULL", row[2])
		}
	}
}

func TestEvalOperatorGuardReduction(t *testing.T) {
	s := siteWithFlows(t, [3]int64{1, 1, 5}, [3]int64{2, 1, 11})
	h, err := s.EvalOperator(context.Background(), OperatorRequest{
		Base:  baseFragment(1, 2, 3, 4),
		Op:    countOp("B.SAS = R.SAS"),
		Guard: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 2 {
		t.Errorf("guarded H rows = %d, want 2 (Prop. 1 drops untouched groups)\n%s", h.Len(), h)
	}
}

func TestEvalOperatorGuardUsesOrOfAllVars(t *testing.T) {
	// A base row touched by only the second variable must be kept.
	s := siteWithFlows(t, [3]int64{5, 1, 100})
	op := gmdj.Operator{Detail: "Flow", Vars: []gmdj.GroupVar{
		{Aggs: []agg.Spec{{Func: agg.Count, As: "c1"}}, Cond: expr.MustParse("B.SAS = R.SAS")},
		{Aggs: []agg.Spec{{Func: agg.Count, As: "c2"}}, Cond: expr.MustParse("B.SAS = R.DAS")},
	}}
	h, err := s.EvalOperator(context.Background(), OperatorRequest{
		Base:  baseFragment(1, 2),
		Op:    op,
		Guard: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 1 || h.Tuples[0][0].Int != 0 {
		t.Fatalf("guard OR semantics: %s", h)
	}
	// c1 = 0 but c2 = 1 for base value 1 (DAS = 1 matches).
	if h.Tuples[0][1].Int != 0 || h.Tuples[0][2].Int != 1 {
		t.Errorf("row = %v", h.Tuples[0])
	}
}

func TestEvalOperatorErrors(t *testing.T) {
	s := siteWithFlows(t, [3]int64{1, 1, 5})
	if _, err := s.EvalOperator(context.Background(), OperatorRequest{Op: countOp("true")}); err == nil {
		t.Error("nil base must error")
	}
	badOp := countOp("B.SAS = R.SAS")
	badOp.Detail = "Missing"
	if _, err := s.EvalOperator(context.Background(), OperatorRequest{Base: baseFragment(1), Op: badOp}); err == nil {
		t.Error("missing detail must error")
	}
	badCond := countOp("B.zz = R.SAS")
	if _, err := s.EvalOperator(context.Background(), OperatorRequest{Base: baseFragment(1), Op: badCond}); err == nil {
		t.Error("unbindable condition must error")
	}
}

func TestEvalLocalPrefix(t *testing.T) {
	s := siteWithFlows(t, [3]int64{1, 1, 10}, [3]int64{1, 1, 20}, [3]int64{2, 1, 6})
	q := gmdj.Query{
		Base: gmdj.BaseQuery{Detail: "Flow", Cols: []string{"SAS"}},
		Ops: []gmdj.Operator{
			{Detail: "Flow", Vars: []gmdj.GroupVar{{
				Aggs: []agg.Spec{{Func: agg.Count, As: "c1"}, {Func: agg.Sum, Arg: "NB", As: "s1"}},
				Cond: expr.MustParse("B.SAS = R.SAS"),
			}}},
			{Detail: "Flow", Vars: []gmdj.GroupVar{{
				Aggs: []agg.Spec{{Func: agg.Count, As: "c2"}},
				Cond: expr.MustParse("B.SAS = R.SAS && R.NB * B.c1 >= B.s1"),
			}}},
		},
	}
	// UpTo = 1: base + first operator only.
	x1, err := s.EvalLocal(context.Background(), LocalRequest{Query: q, UpTo: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !x1.Schema.Has("c1") || x1.Schema.Has("c2") {
		t.Errorf("X1 schema = %s", x1.Schema)
	}
	// UpTo = 2: whole chain; verify against the centralized oracle.
	x2, err := s.EvalLocal(context.Background(), LocalRequest{Query: q, UpTo: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := gmdj.EvalCentralX(q, s.Source(), true)
	if err != nil {
		t.Fatal(err)
	}
	if !x2.EqualMultiset(want) {
		t.Errorf("EvalLocal != centralized:\n%s\nvs\n%s", x2, want)
	}
	// Out-of-range prefix.
	if _, err := s.EvalLocal(context.Background(), LocalRequest{Query: q, UpTo: 3}); err == nil {
		t.Error("UpTo out of range must error")
	}
	// Invalid query.
	bad := q
	bad.Base.Cols = []string{"zz"}
	if _, err := s.EvalLocal(context.Background(), LocalRequest{Query: bad, UpTo: 1}); err == nil {
		t.Error("invalid query must error")
	}
}

func TestSetUseHashEquivalence(t *testing.T) {
	rows := [][3]int64{{1, 1, 5}, {1, 2, 7}, {2, 1, 11}, {2, 2, 13}, {3, 1, 17}}
	s1 := NewSite(0)
	s2 := NewSite(0)
	_ = s1.Load(context.Background(), "Flow", flowRel(rows...))
	_ = s2.Load(context.Background(), "Flow", flowRel(rows...))
	s2.SetUseHash(false)
	req := OperatorRequest{
		Base: baseFragment(1, 2, 3, 4),
		Op:   countOp("B.SAS = R.SAS && R.NB > 6"),
	}
	h1, err := s1.EvalOperator(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := s2.EvalOperator(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !h1.EqualMultiset(h2) {
		t.Errorf("hash vs nested-loop engine mismatch:\n%s\nvs\n%s", h1, h2)
	}
}
