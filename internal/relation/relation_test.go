package relation

import (
	"bytes"
	"math"
	"sort"
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
	if row := p.AppendRow(nil, 0); !row[0].Equal(NewString("x")) || !row[1].Equal(NewInt(1)) {
		t.Errorf("Project row = %v", row)
	}
	if _, err := r.Project([]string{"nope"}); err == nil {
		t.Error("Project with unknown column must error")
	}
}

func TestFilterUnion(t *testing.T) {
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
}

func TestCloneIndependence(t *testing.T) {
	r := testRel(t)
	c := r.Clone()
	c.Columns().Vecs[0].Set(0, c.Len(), NewInt(99))
	if r.Value(0, 0).Int == 99 {
		t.Error("Clone aliases vectors")
	}
}

func TestSortDeterministic(t *testing.T) {
	r := New(MustSchema(Column{"a", KindInt}))
	for _, v := range []int64{3, 1, 2, 1} {
		r.MustAppend(Tuple{NewInt(v)})
	}
	r.Sort()
	got := []int64{r.Value(0, 0).Int, r.Value(1, 0).Int, r.Value(2, 0).Int, r.Value(3, 0).Int}
	want := []int64{1, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sort: got %v want %v", got, want)
		}
	}
}

func TestSortMixedKinds(t *testing.T) {
	r := New(MustSchema(Column{"a", KindString}))
	for _, v := range []Value{NewString("b"), Null, NewString("a")} {
		r.MustAppend(Tuple{v})
	}
	r.Sort()
	if !r.Value(0, 0).IsNull() || r.Value(1, 0).Str != "a" {
		t.Errorf("Sort with NULLs: %v", r)
	}
}

func TestEqualMultiset(t *testing.T) {
	a := testRel(t)
	b := testRel(t)
	// Shuffle b.
	b.KeepRows([]int32{3, 1, 2, 0})
	if !a.EqualMultiset(b) {
		t.Error("order must not matter")
	}
	b.Columns().Vecs[0].Set(0, b.Len(), NewInt(77))
	if a.EqualMultiset(b) {
		t.Error("changed value must break equality")
	}
	c := testRel(t)
	c.KeepRows([]int32{0, 1, 2})
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
	ki := BuildKeyIndex(r.Rows(), []int{0, 1})
	probe := Tuple{NewString("pad"), NewInt(1), NewString("x")}
	rows := ki.Lookup(probe, []int{1, 2})
	if len(rows) != 2 || rows[0] != 0 || rows[1] != 2 {
		t.Errorf("Lookup = %v", rows)
	}
	if got := ki.Lookup(Tuple{NewInt(3), NewString("z")}, []int{0, 1}); len(got) != 1 || got[0] != 3 {
		t.Errorf("Lookup unique = %v", got)
	}
	if got := ki.Lookup(Tuple{NewInt(42), NewString("none")}, []int{0, 1}); got != nil {
		t.Errorf("Lookup missing = %v", got)
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
	c.KeepRows([]int32{0})
	if a.EqualMultisetApprox(c, 1e-9) {
		t.Error("row-count mismatch must fail")
	}
	d := New(MustSchema(Column{"k", KindInt}))
	if a.EqualMultisetApprox(d, 1e-9) {
		t.Error("schema mismatch must fail")
	}
	// Non-float differences are never tolerated.
	e := mk(1.0)
	e.Columns().Vecs[0].Set(0, e.Len(), NewInt(9))
	if a.EqualMultisetApprox(e, 1e9) {
		t.Error("int differences must fail regardless of tolerance")
	}
	// NaN (SUM(+Inf, −Inf)) matches NaN, whatever the row order; it still
	// differs from a number.
	nan := New(MustSchema(Column{"k", KindInt}, Column{"f", KindFloat}))
	nan.MustAppend(Tuple{NewInt(1), NewFloat(math.NaN())})
	nan.MustAppend(Tuple{NewInt(2), NewFloat(1)})
	nan.MustAppend(Tuple{NewInt(1), NewFloat(0.5)})
	if !nan.EqualMultisetApprox(nan.Clone(), 1e-9) {
		t.Error("a relation holding NaN must equal its clone")
	}
	perm := nan.Clone()
	perm.KeepRows([]int32{2, 0, 1})
	if !nan.EqualMultisetApprox(perm, 1e-9) || !perm.EqualMultisetApprox(nan, 1e-9) {
		t.Error("a relation holding NaN must equal its permutation")
	}
	one := nan.Clone()
	one.Columns().Vecs[1].Set(0, one.Len(), NewFloat(1))
	if nan.EqualMultisetApprox(one, 1e9) || one.EqualMultisetApprox(nan, 1e9) {
		t.Error("NaN must not match 1.0 under any tolerance")
	}
	// −0 and +0 are equal, as they always were.
	if !mk(0).EqualMultisetApprox(mk(math.Copysign(0, -1)), 0) {
		t.Error("−0 must match +0")
	}
}

// TestMethodsMatchRowReference: every method that builds, reorders or copies
// a relation holds, cell for cell, what a plain row reference holds, and
// encodes to the frame of those rows. The columns cover BOOL, INT, FLOAT
// with NaN and −0, STRING, and NULL, with NULLs in every column.
func TestMethodsMatchRowReference(t *testing.T) {
	schema := MustSchema(Column{"b", KindBool}, Column{"i", KindInt}, Column{"f", KindFloat}, Column{"s", KindString}, Column{"n", KindNull})
	rows := []Tuple{
		{NewBool(true), NewInt(3), NewFloat(math.NaN()), NewString("b"), Null},
		{Null, NewInt(2), NewFloat(math.Copysign(0, -1)), NewString("a"), Null},
		{NewBool(false), NewInt(-1), NewFloat(0), Null, Null},
		{NewBool(true), Null, Null, NewString("b"), Null},
		{NewBool(true), NewInt(3), NewFloat(math.NaN()), NewString("b"), Null},
		{NewBool(false), NewInt(7), NewFloat(1), NewString(""), Null},
	}
	build := func(schema Schema, rows []Tuple) *Relation {
		r := New(schema)
		for _, row := range rows {
			r.MustAppend(row)
		}
		return r
	}
	// The row reference of each method.
	keep := func(t Tuple) bool { return t[0].Bool() || t[3].IsNull() }
	var filtered, selected, projected []Tuple
	for _, row := range rows {
		if keep(row) {
			filtered = append(filtered, row)
		}
		projected = append(projected, Tuple{row[3], row[0], row[2]})
	}
	sel := []int32{5, 0, 0, 3}
	for _, i := range sel {
		selected = append(selected, rows[i])
	}
	sorted := append([]Tuple(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool { return rowLess(sorted[i], sorted[j]) })

	cases := []struct {
		name string
		got  func() *Relation
		want []Tuple
	}{
		{"Append", func() *Relation { return build(schema, rows) }, rows},
		{"Union", func() *Relation {
			r := build(schema, rows[:2])
			if err := r.Union(build(schema, rows[2:])); err != nil {
				t.Fatal(err)
			}
			return r
		}, rows},
		{"Union with itself", func() *Relation {
			r := build(schema, rows[:3])
			if err := r.Union(r); err != nil {
				t.Fatal(err)
			}
			return r
		}, append(append([]Tuple(nil), rows[:3]...), rows[:3]...)},
		{"Sort", func() *Relation {
			r := build(schema, rows)
			r.Sort()
			return r
		}, sorted},
		{"Filter", func() *Relation { return build(schema, rows).Filter(keep) }, filtered},
		{"Filter keeping nothing", func() *Relation { return build(schema, rows).Filter(func(Tuple) bool { return false }) }, nil},
		{"KeepRows", func() *Relation {
			r := build(schema, rows)
			r.KeepRows(sel)
			return r
		}, selected},
		{"Project", func() *Relation {
			p, err := build(schema, rows).Project([]string{"s", "b", "f"})
			if err != nil {
				t.Fatal(err)
			}
			return p
		}, projected},
		{"Clone", func() *Relation { return build(schema, rows).Clone() }, rows},
	}
	for _, c := range cases {
		got := c.got()
		if !rowsIdentical(got.Rows(), c.want) {
			t.Errorf("%s holds\n%s", c.name, got)
		}
		if a, b := mustMarshal(t, got), mustMarshal(t, build(got.Schema, c.want)); !bytes.Equal(a, b) {
			t.Errorf("%s: the frame differs from its rows'", c.name)
		}
	}
	// A clone shares nothing it could write.
	r := build(schema, rows)
	c := r.Clone()
	for j := range c.Columns().Vecs {
		c.Columns().Vecs[j].Set(0, c.Len(), Null)
	}
	c.MustAppend(rows[0])
	if !rowsIdentical(r.Rows(), rows) {
		t.Error("writing a clone changed the original")
	}
	if !rowLess(Tuple{NewFloat(math.Inf(1))}, Tuple{NewFloat(math.NaN())}) || rowLess(Tuple{NewFloat(math.NaN())}, Tuple{NewFloat(math.Inf(1))}) {
		t.Error("NaN must sort after every number")
	}
}
