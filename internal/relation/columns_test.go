package relation

import (
	"math"
	"reflect"
	"testing"
)

func TestBuildColumns(t *testing.T) {
	r := New(MustSchema(
		Column{Name: "I", Kind: KindInt},
		Column{Name: "F", Kind: KindFloat},
		Column{Name: "S", Kind: KindString},
		Column{Name: "B", Kind: KindBool},
		Column{Name: "N", Kind: KindInt}, // never NULL
	))
	rows := []Tuple{
		{NewInt(7), NewFloat(1.5), NewString("b"), NewBool(true), NewInt(1)},
		{Null, NewFloat(math.Copysign(0, -1)), NewString("a"), NewBool(false), NewInt(2)},
		{NewInt(-3), Null, Null, Null, NewInt(3)},
		{NewInt(7), NewFloat(1.5), NewString("b"), NewBool(true), NewInt(4)},
	}
	for _, row := range rows {
		r.MustAppend(row)
	}
	c := BuildColumns(r)
	if c.Rows != len(rows) || len(c.Vecs) != 5 {
		t.Fatalf("image is %d rows × %d columns", c.Rows, len(c.Vecs))
	}
	// Typed columns rebuild every value to the bit, -0.0 included.
	for j := range []int{0, 1, 2} {
		for i, row := range rows {
			got := c.Vecs[j].Value(i)
			if got != row[j] || math.Signbit(got.Float) != math.Signbit(row[j].Float) {
				t.Errorf("column %d row %d: %#v, want %#v", j, i, got, row[j])
			}
			if c.Vecs[j].Null(i) != row[j].IsNull() {
				t.Errorf("column %d row %d: Null = %v", j, i, c.Vecs[j].Null(i))
			}
		}
	}
	s := &c.Vecs[2]
	if !reflect.DeepEqual(s.Dict, []string{"b", "a"}) || !reflect.DeepEqual(s.Codes, []uint32{0, 1, 0, 0}) {
		t.Errorf("dictionary %v codes %v: want first-occurrence order", s.Dict, s.Codes)
	}
	if code, ok := s.Code("a"); !ok || code != 1 {
		t.Errorf(`Code("a") = %d, %v`, code, ok)
	}
	if _, ok := s.Code("zz"); ok {
		t.Error(`Code("zz") found a string no row holds`)
	}
	if !c.Vecs[3].Boxed {
		t.Error("BOOL column must stay boxed")
	}
	if c.Vecs[4].Nulls != nil {
		t.Error("a column without NULLs must not carry a bitmap")
	}
}

func TestBuildColumnsBoxes(t *testing.T) {
	schema := MustSchema(Column{Name: "I", Kind: KindInt}, Column{Name: "F", Kind: KindFloat}, Column{Name: "S", Kind: KindString})
	clean := Tuple{NewInt(1), NewFloat(2), NewString("x")}
	cases := []struct {
		name string
		col  int
		val  Value
	}{
		{"float in an INT column", 0, NewFloat(1)},
		{"string in a FLOAT column", 1, NewString("2")},
		{"int in a STRING column", 2, NewInt(3)},
		{"NaN", 1, NewFloat(math.NaN())},
		{"stray payload", 0, Value{Kind: KindInt, Int: 1, Str: "junk"}},
		{"NULL with a payload", 2, Value{Kind: KindNull, Int: 9}},
	}
	for _, c := range cases {
		r := New(schema)
		r.MustAppend(clean.Clone())
		bad := clean.Clone()
		bad[c.col] = c.val
		r.MustAppend(bad)
		r.MustAppend(clean.Clone())
		cols := BuildColumns(r)
		for j := range cols.Vecs {
			if got := cols.Vecs[j].Boxed; got != (j == c.col) {
				t.Errorf("%s: column %d boxed = %v", c.name, j, got)
			}
		}
	}

	short := New(schema)
	short.Tuples = append(short.Tuples, clean.Clone(), Tuple{NewInt(1)})
	if BuildColumns(short) != nil {
		t.Error("a tuple of the wrong arity must decline the image")
	}
	if empty := BuildColumns(New(schema)); empty == nil || empty.Rows != 0 {
		t.Error("an empty relation images to zero rows")
	}
}
