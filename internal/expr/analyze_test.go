package expr

import (
	"reflect"
	"testing"
)

func TestConjunctsDisjuncts(t *testing.T) {
	e := MustParse("B.a = R.x && R.y > 1 && (B.b = 2 || B.c = 3)")
	cs := Conjuncts(e)
	if len(cs) != 3 {
		t.Fatalf("Conjuncts: %d, want 3", len(cs))
	}
	ds := Disjuncts(cs[2])
	if len(ds) != 2 {
		t.Fatalf("Disjuncts: %d, want 2", len(ds))
	}
	// Single atom.
	if n := len(Conjuncts(MustParse("B.a = 1"))); n != 1 {
		t.Errorf("single conjunct: %d", n)
	}
}

func TestAttrs(t *testing.T) {
	e := MustParse("B.a + B.b < R.x * 2 && !(R.y = B.a)")
	b, d := Attrs(e)
	wantB := map[string]struct{}{"a": {}, "b": {}}
	wantD := map[string]struct{}{"x": {}, "y": {}}
	if !reflect.DeepEqual(b, wantB) || !reflect.DeepEqual(d, wantD) {
		t.Errorf("Attrs = %v / %v", b, d)
	}
	if !ReferencesBase(e) {
		t.Error("ReferencesBase")
	}
	if ReferencesBase(MustParse("R.x = 1")) {
		t.Error("ReferencesBase on detail-only")
	}
	if !ReferencesBaseColumns(e, []string{"zz", "b"}) {
		t.Error("ReferencesBaseColumns hit")
	}
	if ReferencesBaseColumns(e, []string{"zz"}) {
		t.Error("ReferencesBaseColumns miss")
	}
}

func TestSideOnly(t *testing.T) {
	if !SideOnly(MustParse("B.a + 1 < B.b"), SideBase) {
		t.Error("base-only expr")
	}
	if SideOnly(MustParse("B.a < R.x"), SideBase) {
		t.Error("mixed expr is not base-only")
	}
	if !SideOnly(MustParse("R.x = 1"), SideDetail) {
		t.Error("detail-only expr")
	}
	if !SideOnly(MustParse("1 + 1"), SideBase) || !SideOnly(MustParse("1 + 1"), SideDetail) {
		t.Error("constant qualifies for both sides")
	}
}

func TestEqualityLinks(t *testing.T) {
	e := MustParse("B.k1 = R.a && R.b = B.k2 && R.c > 1 && B.k1 = 5 && R.a = R.c && B.k1 = B.k2")
	links := EqualityLinks(e)
	want := []EqualityLink{{Base: "k1", Detail: "a"}, {Base: "k2", Detail: "b"}}
	if !reflect.DeepEqual(links, want) {
		t.Errorf("EqualityLinks = %v, want %v", links, want)
	}
	// Equality nested under OR must not count as a conjunct link.
	e2 := MustParse("B.k1 = R.a || R.b = B.k2")
	if links := EqualityLinks(e2); len(links) != 0 {
		t.Errorf("links under OR: %v", links)
	}
}

func TestKeyLinkage(t *testing.T) {
	e := MustParse("B.k1 = R.a && B.k2 = R.b && R.x > 0")
	m, ok := KeyLinkage(e, []string{"k1", "k2"})
	if !ok || m["k1"] != "a" || m["k2"] != "b" {
		t.Errorf("KeyLinkage = %v, %v", m, ok)
	}
	if _, ok := KeyLinkage(e, []string{"k1", "k3"}); ok {
		t.Error("missing key link must fail")
	}
	if m, ok := KeyLinkage(e, nil); !ok || len(m) != 0 {
		t.Error("empty key list trivially links")
	}
}

func TestDetailAffine(t *testing.T) {
	cases := []struct {
		src  string
		want Affine
		ok   bool
	}{
		{"R.x", Affine{Col: "x", C: 1, D: 0}, true},
		{"R.x * 2", Affine{Col: "x", C: 2, D: 0}, true},
		{"2 * R.x + 3", Affine{Col: "x", C: 2, D: 3}, true},
		{"(R.x + 1) / 2", Affine{Col: "x", C: 0.5, D: 0.5}, true},
		{"-R.x", Affine{Col: "x", C: -1, D: 0}, true},
		{"3 - R.x", Affine{Col: "x", C: -1, D: 3}, true},
		{"R.x + R.x", Affine{Col: "x", C: 2, D: 0}, true},
		{"R.x * R.x", Affine{}, false}, // quadratic
		{"R.x + R.y", Affine{}, false}, // two columns
		{"B.a + R.x", Affine{}, false}, // base reference
		{"5", Affine{}, false},         // constant only
		{"1 / R.x", Affine{}, false},   // division by column
		{"R.x * 0", Affine{}, false},   // zero coefficient degenerates to constant
	}
	for _, c := range cases {
		got, ok := DetailAffine(MustParse(c.src))
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("DetailAffine(%q) = %+v,%v want %+v,%v", c.src, got, ok, c.want, c.ok)
		}
	}
}

func TestAffineRange(t *testing.T) {
	a := Affine{Col: "x", C: 2, D: 1}
	lo, hi := a.Range(1, 25)
	if lo != 3 || hi != 51 {
		t.Errorf("Range = %v,%v", lo, hi)
	}
	neg := Affine{Col: "x", C: -1, D: 0}
	lo, hi = neg.Range(1, 25)
	if lo != -25 || hi != -1 {
		t.Errorf("negative coefficient Range = %v,%v", lo, hi)
	}
}

func TestRelaxComparison(t *testing.T) {
	// The paper's example: B.DestAS + B.SourceAS < Flow.SourceAS*2 with
	// SourceAS ∈ [1,25] relaxes to base < 50.
	baseE := MustParse("B.DestAS + B.SourceAS")
	a := Affine{Col: "SourceAS", C: 2, D: 0}
	relaxed, ok := RelaxComparison(OpLt, baseE, a, 1, 25)
	if !ok {
		t.Fatal("RelaxComparison failed")
	}
	if got := relaxed.String(); got != "((B.DestAS + B.SourceAS) < 50.0)" {
		t.Errorf("relaxed = %s", got)
	}
	// Eq becomes a range check.
	relaxed, ok = RelaxComparison(OpEq, baseE, Affine{Col: "x", C: 1}, 10, 20)
	if !ok {
		t.Fatal("Eq relaxation failed")
	}
	cs := Conjuncts(relaxed)
	if len(cs) != 2 {
		t.Errorf("Eq relaxation should be a 2-conjunct range, got %s", relaxed)
	}
	if _, ok := RelaxComparison(OpNe, baseE, a, 1, 25); ok {
		t.Error("!= must not be relaxable")
	}
	// Ge uses the minimum.
	relaxed, _ = RelaxComparison(OpGe, baseE, Affine{Col: "x", C: 1}, 5, 9)
	if got := relaxed.String(); got != "((B.DestAS + B.SourceAS) >= 5.0)" {
		t.Errorf("Ge relaxation = %s", got)
	}
}

func TestFlipComparison(t *testing.T) {
	flips := map[Op]Op{OpLt: OpGt, OpLe: OpGe, OpGt: OpLt, OpGe: OpLe, OpEq: OpEq, OpNe: OpNe}
	for in, want := range flips {
		got, ok := FlipComparison(in)
		if !ok || got != want {
			t.Errorf("FlipComparison(%s) = %s,%v", in, got, ok)
		}
	}
	if _, ok := FlipComparison(OpAdd); ok {
		t.Error("FlipComparison(+) must fail")
	}
}

func TestConstOf(t *testing.T) {
	v, ok := ConstOf(MustParse("2 * 3 + 1"))
	if !ok || v.Int != 7 {
		t.Errorf("ConstOf = %v,%v", v, ok)
	}
	if _, ok := ConstOf(MustParse("B.a + 1")); ok {
		t.Error("ConstOf with column must fail")
	}
}
