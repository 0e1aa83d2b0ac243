package relation

import (
	"strings"
	"testing"
)

func testRel(t *testing.T) *Relation {
	t.Helper()
	r := New(MustSchema(
		Column{"a", KindInt},
		Column{"b", KindString},
		Column{"c", KindFloat},
	))
	rows := []Tuple{
		{NewInt(1), NewString("x"), NewFloat(1.5)},
		{NewInt(2), NewString("y"), NewFloat(2.5)},
		{NewInt(1), NewString("x"), NewFloat(3.5)},
		{NewInt(3), NewString("z"), NewFloat(4.5)},
	}
	for _, row := range rows {
		r.MustAppend(row)
	}
	return r
}

func TestSchemaBasics(t *testing.T) {
	s := MustSchema(Column{"a", KindInt}, Column{"b", KindString})
	if s.Index("a") != 0 || s.Index("b") != 1 || s.Index("zz") != -1 {
		t.Errorf("Index wrong: %d %d %d", s.Index("a"), s.Index("b"), s.Index("zz"))
	}
	if !s.Has("a") || s.Has("zz") {
		t.Error("Has wrong")
	}
	if got := s.MustIndex("b"); got != 1 {
		t.Errorf("MustIndex(b) = %d", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustIndex on missing column must panic")
			}
		}()
		s.MustIndex("zz")
	}()
	if _, err := NewSchema(Column{"a", KindInt}, Column{"a", KindInt}); err == nil {
		t.Error("duplicate column names must be rejected")
	}
	if _, err := NewSchema(Column{"", KindInt}); err == nil {
		t.Error("empty column name must be rejected")
	}
	if got := s.String(); got != "(a INT, b STRING)" {
		t.Errorf("String() = %q", got)
	}
	if names := s.Names(); names[0] != "a" || names[1] != "b" {
		t.Errorf("Names() = %v", names)
	}
}

func TestSchemaConcat(t *testing.T) {
	a := MustSchema(Column{"x", KindInt})
	b := MustSchema(Column{"y", KindFloat})
	c, err := a.Concat(b)
	if err != nil || len(c) != 2 || c[1].Name != "y" {
		t.Fatalf("Concat: %v %v", c, err)
	}
	if _, err := a.Concat(a); err == nil {
		t.Error("Concat with duplicate names must fail")
	}
	// Concat must not alias the receiver's backing array.
	if len(a) != 1 {
		t.Error("Concat mutated receiver")
	}
}

func TestSchemaEqualClone(t *testing.T) {
	a := MustSchema(Column{"x", KindInt}, Column{"y", KindFloat})
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone not equal")
	}
	b[0].Name = "z"
	if a.Equal(b) || a[0].Name != "x" {
		t.Error("clone aliases original")
	}
	if a.Equal(MustSchema(Column{"x", KindInt})) {
		t.Error("length mismatch must not be equal")
	}
}

func TestAppendArity(t *testing.T) {
	r := New(MustSchema(Column{"a", KindInt}))
	if err := r.Append(Tuple{NewInt(1), NewInt(2)}); err == nil {
		t.Error("arity mismatch must error")
	}
	if err := r.Append(Tuple{NewInt(1)}); err != nil || r.Len() != 1 {
		t.Errorf("valid append failed: %v", err)
	}
}

func TestProject(t *testing.T) {
	r := testRel(t)
	p, err := r.Project([]string{"b", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 4 {
		t.Fatalf("Project len = %d", p.Len())
	}
	if !p.Schema.Equal(MustSchema(Column{"b", KindString}, Column{"a", KindInt})) {
		t.Errorf("Project schema = %s", p.Schema)
	}
	if !p.Tuples[0][0].Equal(NewString("x")) || !p.Tuples[0][1].Equal(NewInt(1)) {
		t.Errorf("Project row = %v", p.Tuples[0])
	}
	if _, err := r.Project([]string{"nope"}); err == nil {
		t.Error("Project with unknown column must error")
	}
}

func TestDistinctProject(t *testing.T) {
	r := testRel(t)
	d, err := r.DistinctProject([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 {
		t.Fatalf("DistinctProject len = %d, want 3", d.Len())
	}
	// First-seen order.
	if !d.Tuples[0][0].Equal(NewInt(1)) || !d.Tuples[1][0].Equal(NewInt(2)) || !d.Tuples[2][0].Equal(NewInt(3)) {
		t.Errorf("DistinctProject order: %v", d.Tuples)
	}
}

func TestFilterUnionDedup(t *testing.T) {
	r := testRel(t)
	f := r.Filter(func(tp Tuple) bool { return tp[0].Int >= 2 })
	if f.Len() != 2 {
		t.Errorf("Filter len = %d", f.Len())
	}
	u := r.Clone()
	if err := u.Union(f); err != nil || u.Len() != 6 {
		t.Fatalf("Union: len=%d err=%v", u.Len(), err)
	}
	other := New(MustSchema(Column{"zzz", KindInt}))
	if err := u.Union(other); err == nil {
		t.Error("Union with mismatched schema must error")
	}
	if err := u.DedupBy([]string{"a", "b"}); err != nil || u.Len() != 3 {
		t.Fatalf("DedupBy: len=%d err=%v", u.Len(), err)
	}
	if err := u.DedupBy([]string{"nope"}); err == nil {
		t.Error("DedupBy unknown column must error")
	}
}

func TestCloneIndependence(t *testing.T) {
	r := testRel(t)
	c := r.Clone()
	c.Tuples[0][0] = NewInt(99)
	if r.Tuples[0][0].Int == 99 {
		t.Error("Clone aliases tuples")
	}
}

func TestSortDeterministic(t *testing.T) {
	r := New(MustSchema(Column{"a", KindInt}))
	for _, v := range []int64{3, 1, 2, 1} {
		r.MustAppend(Tuple{NewInt(v)})
	}
	r.Sort()
	got := []int64{r.Tuples[0][0].Int, r.Tuples[1][0].Int, r.Tuples[2][0].Int, r.Tuples[3][0].Int}
	want := []int64{1, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sort: got %v want %v", got, want)
		}
	}
}

func TestSortMixedKinds(t *testing.T) {
	r := New(MustSchema(Column{"a", KindString}))
	r.Tuples = []Tuple{{NewString("b")}, {Null}, {NewString("a")}}
	r.Sort()
	if !r.Tuples[0][0].IsNull() || r.Tuples[1][0].Str != "a" {
		t.Errorf("Sort with NULLs: %v", r.Tuples)
	}
}

func TestEqualMultiset(t *testing.T) {
	a := testRel(t)
	b := testRel(t)
	// Shuffle b.
	b.Tuples[0], b.Tuples[3] = b.Tuples[3], b.Tuples[0]
	if !a.EqualMultiset(b) {
		t.Error("order must not matter")
	}
	b.Tuples[0][0] = NewInt(77)
	if a.EqualMultiset(b) {
		t.Error("changed value must break equality")
	}
	c := testRel(t)
	c.Tuples = c.Tuples[:3]
	if a.EqualMultiset(c) {
		t.Error("length mismatch must break equality")
	}
	// Duplicate counting: {x,x,y} != {x,y,y}.
	d1 := New(MustSchema(Column{"a", KindInt}))
	d2 := New(MustSchema(Column{"a", KindInt}))
	for _, v := range []int64{1, 1, 2} {
		d1.MustAppend(Tuple{NewInt(v)})
	}
	for _, v := range []int64{1, 2, 2} {
		d2.MustAppend(Tuple{NewInt(v)})
	}
	if d1.EqualMultiset(d2) {
		t.Error("multiset counts must matter")
	}
}

func TestFormat(t *testing.T) {
	r := testRel(t)
	s := r.Format(2)
	if !strings.Contains(s, "a") || !strings.Contains(s, "more rows") {
		t.Errorf("Format output unexpected:\n%s", s)
	}
	full := r.String()
	if strings.Contains(full, "more rows") {
		t.Errorf("String() should show all 4 rows:\n%s", full)
	}
}

func TestKeyIndex(t *testing.T) {
	r := testRel(t)
	ki, err := BuildKeyIndex(r, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if ki.Len() != 3 {
		t.Errorf("distinct keys = %d, want 3", ki.Len())
	}
	probe := Tuple{NewString("pad"), NewInt(1), NewString("x")}
	rows := ki.Lookup(probe, []int{1, 2})
	if len(rows) != 2 || rows[0] != 0 || rows[1] != 2 {
		t.Errorf("Lookup = %v", rows)
	}
	if _, err := ki.Unique(probe, []int{1, 2}); err == nil {
		t.Error("Unique with 2 matches must error")
	}
	probe2 := Tuple{NewInt(3), NewString("z")}
	row, err := ki.Unique(probe2, []int{0, 1})
	if err != nil || row != 3 {
		t.Errorf("Unique = %d, %v", row, err)
	}
	probe3 := Tuple{NewInt(42), NewString("none")}
	if _, err := ki.Unique(probe3, []int{0, 1}); err == nil {
		t.Error("Unique with 0 matches must error")
	}
	if got := ki.Lookup(probe3, []int{0, 1}); got != nil {
		t.Errorf("Lookup missing = %v", got)
	}
	if _, err := BuildKeyIndex(r, []string{"missing"}); err == nil {
		t.Error("BuildKeyIndex unknown column must error")
	}
}

func TestEqualMultisetApprox(t *testing.T) {
	mk := func(f float64) *Relation {
		r := New(MustSchema(Column{"k", KindInt}, Column{"f", KindFloat}))
		r.MustAppend(Tuple{NewInt(1), NewFloat(f)})
		r.MustAppend(Tuple{NewInt(2), NewFloat(2 * f)})
		return r
	}
	a, b := mk(1.0), mk(1.0+1e-13)
	if !a.EqualMultisetApprox(b, 1e-9) {
		t.Error("tiny float drift must be tolerated")
	}
	if a.EqualMultisetApprox(mk(1.1), 1e-9) {
		t.Error("real differences must be detected")
	}
	if a.EqualMultisetApprox(mk(1.0+1e-13), 0) {
		t.Error("zero tolerance must require exact equality")
	}
	// Shape mismatches fail.
	c := mk(1.0)
	c.Tuples = c.Tuples[:1]
	if a.EqualMultisetApprox(c, 1e-9) {
		t.Error("row-count mismatch must fail")
	}
	d := New(MustSchema(Column{"k", KindInt}))
	if a.EqualMultisetApprox(d, 1e-9) {
		t.Error("schema mismatch must fail")
	}
	// Non-float differences are never tolerated.
	e := mk(1.0)
	e.Tuples[0][0] = NewInt(9)
	if a.EqualMultisetApprox(e, 1e9) {
		t.Error("int differences must fail regardless of tolerance")
	}
}
