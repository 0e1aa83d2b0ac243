package agg

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"skalla/internal/relation"
)

var detail = relation.MustSchema(
	relation.Column{Name: "qty", Kind: relation.KindInt},
	relation.Column{Name: "price", Kind: relation.KindFloat},
	relation.Column{Name: "name", Kind: relation.KindString},
)

func row(qty int64, price float64, name string) relation.Tuple {
	return relation.Tuple{relation.NewInt(qty), relation.NewFloat(price), relation.NewString(name)}
}

func TestSpecValidate(t *testing.T) {
	good := []Spec{
		{Func: Count, As: "c"},
		{Func: Count, Arg: "name", As: "c"},
		{Func: Sum, Arg: "qty", As: "s"},
		{Func: Avg, Arg: "price", As: "a"},
		{Func: Min, Arg: "name", As: "m"},
		{Func: Max, Arg: "qty", As: "m"},
	}
	for _, s := range good {
		if err := s.Validate(detail); err != nil {
			t.Errorf("Validate(%s): %v", s, err)
		}
	}
	bad := []Spec{
		{Func: Sum, As: "s"},              // missing arg
		{Func: Count, As: ""},             // missing name
		{Func: Sum, Arg: "zzz", As: "s"},  // unknown column
		{Func: Sum, Arg: "name", As: "s"}, // non-numeric sum
		{Func: Avg, Arg: "name", As: "a"}, // non-numeric avg
	}
	for _, s := range bad {
		if err := s.Validate(detail); err == nil {
			t.Errorf("Validate(%s): expected error", s)
		}
	}
}

func TestSpecString(t *testing.T) {
	if got := (Spec{Func: Count, As: "c"}).String(); got != "COUNT(*) -> c" {
		t.Errorf("String = %q", got)
	}
	if got := (Spec{Func: Avg, Arg: "price", As: "a"}).String(); got != "AVG(price) -> a" {
		t.Errorf("String = %q", got)
	}
}

func TestLayoutShapes(t *testing.T) {
	l, err := NewLayout([]Spec{
		{Func: Count, As: "cnt"},
		{Func: Avg, Arg: "price", As: "ap"},
		{Func: Min, Arg: "qty", As: "mq"},
	}, detail)
	if err != nil {
		t.Fatal(err)
	}
	ps := l.PhysSchema()
	wantPhys := "(cnt INT, ap_sum FLOAT, ap_cnt INT, mq INT)"
	if ps.String() != wantPhys {
		t.Errorf("PhysSchema = %s, want %s", ps, wantPhys)
	}
	if ds := l.DerivedSchema(); ds.String() != "(ap FLOAT)" {
		t.Errorf("DerivedSchema = %s", ds)
	}
	if fs := l.FinalSchema(); fs.String() != "(cnt INT, ap FLOAT, mq INT)" {
		t.Errorf("FinalSchema = %s", fs)
	}
	id := l.Identity()
	if id[0].Int != 0 || !id[1].IsNull() || id[2].Int != 0 || !id[3].IsNull() {
		t.Errorf("Identity = %v", id)
	}
}

func TestLayoutNameCollisions(t *testing.T) {
	if _, err := NewLayout([]Spec{{Func: Count, As: "x"}, {Func: Sum, Arg: "qty", As: "x"}}, detail); err == nil {
		t.Error("duplicate output name must fail")
	}
	if _, err := NewLayout([]Spec{{Func: Count, As: "a_sum"}, {Func: Avg, Arg: "qty", As: "a"}}, detail); err == nil {
		t.Error("AVG derived name collision must fail")
	}
}

func TestAccumulateAndFinalize(t *testing.T) {
	l, err := NewLayout([]Spec{
		{Func: Count, As: "cnt"},
		{Func: Sum, Arg: "qty", As: "sq"},
		{Func: Avg, Arg: "price", As: "ap"},
		{Func: Min, Arg: "price", As: "minp"},
		{Func: Max, Arg: "qty", As: "maxq"},
	}, detail)
	if err != nil {
		t.Fatal(err)
	}
	acc := l.Identity()
	rows := []relation.Tuple{
		row(2, 10.0, "a"),
		row(5, 20.0, "b"),
		row(3, 6.0, "c"),
	}
	for _, r := range rows {
		if err := l.Accumulate(acc, r); err != nil {
			t.Fatal(err)
		}
	}
	final := l.Finalize(acc)
	if final[0].Int != 3 {
		t.Errorf("cnt = %v", final[0])
	}
	if final[1].Int != 10 {
		t.Errorf("sum qty = %v", final[1])
	}
	if final[2].Float != 12.0 {
		t.Errorf("avg price = %v", final[2])
	}
	if final[3].Float != 6.0 {
		t.Errorf("min price = %v", final[3])
	}
	if final[4].Int != 5 {
		t.Errorf("max qty = %v", final[4])
	}
}

func TestEmptyRangeSemantics(t *testing.T) {
	l, _ := NewLayout([]Spec{
		{Func: Count, As: "cnt"},
		{Func: Sum, Arg: "qty", As: "sq"},
		{Func: Avg, Arg: "price", As: "ap"},
		{Func: Min, Arg: "price", As: "mp"},
	}, detail)
	final := l.Finalize(l.Identity())
	if final[0].Int != 0 {
		t.Errorf("COUNT of empty = %v, want 0", final[0])
	}
	for i := 1; i < 4; i++ {
		if !final[i].IsNull() {
			t.Errorf("aggregate %d of empty = %v, want NULL", i, final[i])
		}
	}
}

func TestCountColSkipsNulls(t *testing.T) {
	l, _ := NewLayout([]Spec{{Func: Count, Arg: "name", As: "c"}}, detail)
	acc := l.Identity()
	_ = l.Accumulate(acc, row(1, 1, "x"))
	_ = l.Accumulate(acc, relation.Tuple{relation.NewInt(1), relation.NewFloat(1), relation.Null})
	if acc[0].Int != 1 {
		t.Errorf("COUNT(col) with NULL = %v, want 1", acc[0])
	}
}

func TestSumSkipsNullsAndKeepsKind(t *testing.T) {
	l, _ := NewLayout([]Spec{{Func: Sum, Arg: "qty", As: "s"}}, detail)
	acc := l.Identity()
	_ = l.Accumulate(acc, row(2, 0, ""))
	_ = l.Accumulate(acc, relation.Tuple{relation.Null, relation.NewFloat(0), relation.NewString("")})
	_ = l.Accumulate(acc, row(3, 0, ""))
	if acc[0].Kind != relation.KindInt || acc[0].Int != 5 {
		t.Errorf("int sum = %v (%s)", acc[0], acc[0].Kind)
	}
}

func TestMergePhysMatchesSingleSite(t *testing.T) {
	// Merging per-partition sub-aggregates must equal aggregating the whole
	// (Theorem 1 at the value level). Property-checked with testing/quick.
	l, _ := NewLayout([]Spec{
		{Func: Count, As: "cnt"},
		{Func: Sum, Arg: "qty", As: "sq"},
		{Func: Avg, Arg: "price", As: "ap"},
		{Func: Min, Arg: "qty", As: "minq"},
		{Func: Max, Arg: "price", As: "maxp"},
	}, detail)
	prop := func(qs []int16, split uint8) bool {
		rows := make([]relation.Tuple, len(qs))
		for i, q := range qs {
			rows[i] = row(int64(q), float64(q)*1.5, "r")
		}
		// Whole.
		whole := l.Identity()
		for _, r := range rows {
			if err := l.Accumulate(whole, r); err != nil {
				return false
			}
		}
		// Split into two partitions and merge.
		cut := 0
		if len(rows) > 0 {
			cut = int(split) % (len(rows) + 1)
		}
		p1, p2 := l.Identity(), l.Identity()
		for _, r := range rows[:cut] {
			_ = l.Accumulate(p1, r)
		}
		for _, r := range rows[cut:] {
			_ = l.Accumulate(p2, r)
		}
		merged := l.Identity()
		if err := l.MergePhys(merged, p1); err != nil {
			return false
		}
		if err := l.MergePhys(merged, p2); err != nil {
			return false
		}
		fw, fm := l.Finalize(whole), l.Finalize(merged)
		for i := range fw {
			if !fw[i].Equal(fm[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestMergeIdentityIsNeutral(t *testing.T) {
	l, _ := NewLayout([]Spec{
		{Func: Count, As: "c"}, {Func: Sum, Arg: "price", As: "s"},
		{Func: Min, Arg: "qty", As: "mn"}, {Func: Max, Arg: "qty", As: "mx"},
	}, detail)
	acc := l.Identity()
	_ = l.Accumulate(acc, row(7, 2.5, "x"))
	before := acc.Clone()
	if err := l.MergePhys(acc, l.Identity()); err != nil {
		t.Fatal(err)
	}
	for i := range acc {
		if !acc[i].Equal(before[i]) {
			t.Errorf("identity merge changed col %d: %v -> %v", i, before[i], acc[i])
		}
	}
}

func TestComputeDerived(t *testing.T) {
	l, _ := NewLayout([]Spec{{Func: Avg, Arg: "price", As: "ap"}}, detail)
	phys := relation.Tuple{relation.NewFloat(30), relation.NewInt(4)}
	d := l.AppendDerived(nil, phys)
	if len(d) != 1 || d[0].Float != 7.5 {
		t.Errorf("derived = %v", d)
	}
	empty := l.AppendDerived(nil, l.Identity())
	if !empty[0].IsNull() {
		t.Errorf("derived of empty = %v, want NULL", empty[0])
	}
}

func TestMergeErrors(t *testing.T) {
	l, _ := NewLayout([]Spec{{Func: Sum, Arg: "qty", As: "s"}}, detail)
	into := relation.Tuple{relation.NewString("oops")}
	from := relation.Tuple{relation.NewInt(1)}
	if err := l.MergePhys(into, from); err == nil {
		t.Error("merging non-numeric sum must error")
	}
}

func TestFuncAndPhysOpStrings(t *testing.T) {
	for f, want := range map[Func]string{Count: "COUNT", Sum: "SUM", Avg: "AVG", Min: "MIN", Max: "MAX"} {
		if f.String() != want {
			t.Errorf("Func %d = %q", f, f.String())
		}
	}
	if !strings.HasPrefix(Func(200).String(), "Func(") {
		t.Error("unknown Func string")
	}
	for p, want := range map[PhysOp]string{PhysCount: "count", PhysSum: "sum", PhysMin: "min", PhysMax: "max"} {
		if p.String() != want {
			t.Errorf("PhysOp %d = %q", p, p.String())
		}
	}
}

func TestMinMaxStrings(t *testing.T) {
	l, _ := NewLayout([]Spec{{Func: Min, Arg: "name", As: "mn"}, {Func: Max, Arg: "name", As: "mx"}}, detail)
	acc := l.Identity()
	for _, n := range []string{"pear", "apple", "zuc"} {
		_ = l.Accumulate(acc, row(0, 0, n))
	}
	if acc[0].Str != "apple" || acc[1].Str != "zuc" {
		t.Errorf("min/max strings = %v", acc)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	l, err := NewLayout([]Spec{
		{Func: Variance, Arg: "qty", As: "vq"},
		{Func: StdDev, Arg: "price", As: "sp"},
	}, detail)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.PhysSchema().String(); got != "(vq_sum INT, vq_sumsq FLOAT, vq_cnt INT, sp_sum FLOAT, sp_sumsq FLOAT, sp_cnt INT)" {
		t.Errorf("PhysSchema = %s", got)
	}
	if got := l.FinalSchema().String(); got != "(vq FLOAT, sp FLOAT)" {
		t.Errorf("FinalSchema = %s", got)
	}
	acc := l.Identity()
	// qty: 2, 4, 6 → mean 4, variance ((4+0+4)/3) = 8/3.
	// price: 1, 1, 4 → mean 2, variance (1+1+4)/3 = 2 → stddev √2.
	for _, x := range []struct {
		q int64
		p float64
	}{{2, 1}, {4, 1}, {6, 4}} {
		if err := l.Accumulate(acc, row(x.q, x.p, "n")); err != nil {
			t.Fatal(err)
		}
	}
	final := l.Finalize(acc)
	if diff := final[0].Float - 8.0/3.0; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("variance = %v, want 8/3", final[0])
	}
	if diff := final[1].Float - math.Sqrt2; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("stddev = %v, want √2", final[1])
	}
	// Derived columns agree with Finalize.
	der := l.AppendDerived(nil, acc)
	if !der[0].Equal(final[0]) || !der[1].Equal(final[1]) {
		t.Errorf("derived %v vs final %v", der, final)
	}
	// Empty range → NULL; single value → 0.
	empty := l.Finalize(l.Identity())
	if !empty[0].IsNull() || !empty[1].IsNull() {
		t.Errorf("empty variance = %v", empty)
	}
	one := l.Identity()
	_ = l.Accumulate(one, row(5, 3, "x"))
	f1 := l.Finalize(one)
	if f1[0].Float != 0 || f1[1].Float != 0 {
		t.Errorf("single-value variance = %v, want 0", f1)
	}
}

// Variance must decompose: merging per-partition sub-aggregates equals the
// whole (the Theorem 1 property extended to the sum-of-squares columns).
func TestVarianceMergeProperty(t *testing.T) {
	l, _ := NewLayout([]Spec{{Func: Variance, Arg: "qty", As: "v"}}, detail)
	prop := func(qs []int16, split uint8) bool {
		rows := make([]relation.Tuple, len(qs))
		for i, q := range qs {
			rows[i] = row(int64(q), 0, "r")
		}
		whole := l.Identity()
		for _, r := range rows {
			if err := l.Accumulate(whole, r); err != nil {
				return false
			}
		}
		cut := 0
		if len(rows) > 0 {
			cut = int(split) % (len(rows) + 1)
		}
		p1, p2 := l.Identity(), l.Identity()
		for _, r := range rows[:cut] {
			_ = l.Accumulate(p1, r)
		}
		for _, r := range rows[cut:] {
			_ = l.Accumulate(p2, r)
		}
		merged := l.Identity()
		_ = l.MergePhys(merged, p1)
		_ = l.MergePhys(merged, p2)
		fw, fm := l.Finalize(whole), l.Finalize(merged)
		if fw[0].IsNull() != fm[0].IsNull() {
			return false
		}
		if fw[0].IsNull() {
			return true
		}
		diff := fw[0].Float - fm[0].Float
		if diff < 0 {
			diff = -diff
		}
		scale := fw[0].Float
		if scale < 1 {
			scale = 1
		}
		return diff/scale < 1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestVarianceNameCollision(t *testing.T) {
	if _, err := NewLayout([]Spec{{Func: Count, As: "v_sumsq"}, {Func: Variance, Arg: "qty", As: "v"}}, detail); err == nil {
		t.Error("sumsq name collision must fail")
	}
	if _, err := NewLayout([]Spec{{Func: StdDev, Arg: "name", As: "s"}}, detail); err == nil {
		t.Error("non-numeric stdev must fail")
	}
}
