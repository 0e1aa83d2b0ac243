package relation

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"sync"
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
	c, err := BuildColumns(r)
	if err != nil {
		t.Fatal(err)
	}
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

// TestBuildColumnsBoxes: a column holding a cell a typed vector cannot
// reproduce exactly — an off-kind cell, NaN, a stray payload, a NULL with a
// payload — is boxed, as a BOOL column always is, and a boxed column returns
// every cell as it was loaded.
func TestBuildColumnsBoxes(t *testing.T) {
	schema := MustSchema(Column{Name: "I", Kind: KindInt}, Column{Name: "F", Kind: KindFloat}, Column{Name: "S", Kind: KindString}, Column{Name: "B", Kind: KindBool})
	clean := Tuple{NewInt(1), NewFloat(2), NewString("x"), NewBool(true)}
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
		{"int in a BOOL column", 3, NewInt(1)},
	}
	for _, c := range cases {
		r := New(schema)
		r.MustAppend(clean.Clone())
		bad := clean.Clone()
		bad[c.col] = c.val
		r.MustAppend(bad)
		r.MustAppend(Tuple{Null, Null, Null, Null})
		r.MustAppend(clean.Clone())
		cols, err := BuildColumns(r)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for j := range cols.Vecs {
			v := &cols.Vecs[j]
			if got := v.Boxed; got != (j == c.col || j == 3) {
				t.Errorf("%s: column %d boxed = %v", c.name, j, got)
			}
			for i, row := range r.Tuples {
				got := v.Value(i)
				if !got.Identical(row[j]) || v.Boxed && got != row[j] && !(got.Float != got.Float && row[j].Float != row[j].Float) {
					t.Errorf("%s: column %d row %d reads %#v, want %#v", c.name, j, i, got, row[j])
				}
				if v.Null(i) != row[j].IsNull() {
					t.Errorf("%s: column %d row %d: Null = %v", c.name, j, i, v.Null(i))
				}
			}
		}
		if got := FromColumns(schema, cols); !bytes.Equal(mustMarshal(t, got), mustMarshal(t, r)) {
			t.Errorf("%s: the image encodes to other bytes than its rows", c.name)
		}
	}

	short := New(schema)
	short.Tuples = append(short.Tuples, clean.Clone(), Tuple{NewInt(1)})
	if _, err := BuildColumns(short); err == nil {
		t.Error("a tuple of the wrong arity must refuse the image")
	}
	if empty, err := BuildColumns(New(schema)); err != nil || empty.Rows != 0 {
		t.Error("an empty relation images to zero rows")
	}
}

func mustMarshal(t *testing.T, r *Relation) []byte {
	t.Helper()
	b, err := Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestColumnarBodyReadsLikeRows: a uniform frame decodes to a columnar body,
// and every method that reads a relation reads it as the rows it encodes.
func TestColumnarBodyReadsLikeRows(t *testing.T) {
	rows := codecCases()["uniform"]
	frame, err := Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	col, err := Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	if col.Columns() == nil || col.Tuples != nil {
		t.Fatal("a uniform frame did not decode to a columnar body")
	}
	if col.Len() != rows.Len() || !relIdentical(col, rows) || col.Format(-1) != rows.Format(-1) {
		t.Fatalf("columnar body reads\n%s\nwant\n%s", col, rows)
	}
	if !col.EqualMultiset(rows) || !rows.EqualMultiset(col) {
		t.Error("comparators disagree across bodies")
	}
	if got := col.AppendRow(nil, 2); !reflect.DeepEqual(got, rows.Tuples[2]) {
		t.Errorf("AppendRow(2) = %v, want %v", got, rows.Tuples[2])
	}
	clone := col.Clone()
	if clone.Columns() == nil || &clone.Columns().Vecs[0].Ints[0] == &col.Columns().Vecs[0].Ints[0] || !relIdentical(clone, rows) {
		t.Error("Clone of a columnar body must copy its slabs and keep the form")
	}
	proj, err := col.Project([]string{"s", "i"})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := rows.Project([]string{"s", "i"})
	if proj.Columns() == nil || !relIdentical(proj, want) {
		t.Error("Project of a columnar body must share its vectors")
	}
	// Exact slab sizes: 4 rows of INT (32), FLOAT (32), STRING codes (16)
	// with 3 dictionary entries (48) of 2 bytes, a one-word bitmap for each
	// column (every one holds a NULL), and the schema headers.
	if got, want := col.MemBytes(), int64(4*TupleMemBytes+32+32+16+48+2+4*8); got != want {
		t.Errorf("MemBytes = %d, want %d", got, want)
	}
	// A finished columnar relation ships one frame, the row body's bytes.
	col.ShareFrame()
	a, _ := col.Frame()
	b, _ := col.View().Frame()
	if !bytes.Equal(a, frame) || &a[0] != &b[0] {
		t.Error("a shared columnar frame must be the row body's frame, encoded once")
	}
	// Changing the rows switches to a row body first.
	if err := col.Union(rows); err != nil {
		t.Fatal(err)
	}
	if col.Columns() != nil || col.Len() != 2*rows.Len() {
		t.Errorf("Union left %d rows, columnar %v", col.Len(), col.Columns() != nil)
	}
}

// TestMixedAndBoolFramesKeepTheRowBody: a frame with a mixed or BOOL column
// decodes to rows, as a stream Decoder's frames always do.
func TestMixedAndBoolFramesKeepTheRowBody(t *testing.T) {
	for _, name := range []string{"mixed-kinds", "bool-packing", "all-kinds"} {
		frame, err := Marshal(codecCases()[name])
		if err != nil {
			t.Fatal(err)
		}
		rel, err := Unmarshal(frame)
		if err != nil {
			t.Fatal(err)
		}
		if rel.Columns() != nil || rel.Tuples == nil {
			t.Errorf("%s decoded to a columnar body", name)
		}
	}
	for _, name := range []string{"uniform", "all-null-col", "all-null-string", "empty", "no-cols-rows", "single-string"} {
		frame, _ := Marshal(codecCases()[name])
		if rel, err := Unmarshal(frame); err != nil || rel.Columns() == nil {
			t.Errorf("%s: columnar %v, err %v", name, rel != nil && rel.Columns() != nil, err)
		}
	}
}

// TestGatherColumns: gathered vectors encode to the rows' frame, and a column
// with a cell no typed vector holds — off-kind, a stray payload, a BOOL — is
// gathered boxed, every cell as it is.
func TestGatherColumns(t *testing.T) {
	rows := codecCases()["uniform"]
	c := GatherColumns(rows.Schema, []Tuple{rows.Tuples[3], rows.Tuples[0], rows.Tuples[0]}, []int{2, 0, 3})
	schema := rows.Schema.Project([]int{2, 0, 3})
	want := New(schema)
	for _, i := range []int{3, 0, 0} {
		want.MustAppend(Tuple{rows.Tuples[i][2], rows.Tuples[i][0], rows.Tuples[i][3]})
	}
	got := FromColumns(schema, c)
	if !bytes.Equal(mustMarshal(t, got), mustMarshal(t, want)) || !relIdentical(got, want) {
		t.Error("gathered image differs from its rows")
	}
	for name, bad := range map[string]Value{
		"off-kind":      NewFloat(1),
		"stray payload": {Kind: KindInt, Int: 1, Str: "junk"},
	} {
		r := rows.Clone()
		r.Tuples[1][0] = bad
		c := GatherColumns(r.Schema, r.Tuples, nil)
		if !c.Vecs[0].Boxed || c.Vecs[1].Boxed || c.Vecs[0].Value(1) != bad {
			t.Errorf("%s: column 0 boxed %v, column 1 boxed %v, cell %#v", name, c.Vecs[0].Boxed, c.Vecs[1].Boxed, c.Vecs[0].Value(1))
		}
		if g := FromColumns(r.Schema, c); !bytes.Equal(mustMarshal(t, g), mustMarshal(t, r)) || !relIdentical(g, r) {
			t.Errorf("%s: boxed image differs from its rows", name)
		}
	}
	for _, name := range []string{"bool-packing", "mixed-kinds", "all-kinds"} {
		r := codecCases()[name]
		if g := FromColumns(r.Schema, GatherColumns(r.Schema, r.Tuples, nil)); !bytes.Equal(mustMarshal(t, g), mustMarshal(t, r)) || !relIdentical(g, r) {
			t.Errorf("%s: boxed image differs from its rows", name)
		}
	}
}

// TestSelectSetAppend: vectors grown with Append and rewritten with Set hold
// the rows written, Select gathers rows and columns of them, and KeepRows
// narrows either body to the same rows — each encoding to the frame of the
// rows it holds.
func TestSelectSetAppend(t *testing.T) {
	rows := codecCases()["uniform"]
	c := &Columns{Vecs: make([]Vector, len(rows.Schema))}
	for j, col := range rows.Schema {
		c.Vecs[j].Kind = col.Kind
	}
	for i, row := range rows.Tuples {
		for j := range c.Vecs {
			c.Vecs[j].Append(i, row[j])
			if c.Vecs[j].Boxed {
				t.Fatalf("row %d column %d: a canonical cell boxed the vector", i, j)
			}
		}
		c.Rows++
	}
	built := FromColumns(rows.Schema, c)
	if !relIdentical(built, rows) {
		t.Fatal("appended vectors differ from their rows")
	}
	// Rewrite row 1 with row 0's cells and row 0 with NULLs.
	want := rows.Clone()
	for j := range c.Vecs {
		c.Vecs[j].Set(1, c.Rows, rows.Tuples[0][j])
		c.Vecs[j].Set(0, c.Rows, Null)
		want.Tuples[1][j], want.Tuples[0][j] = rows.Tuples[0][j], Null
	}
	if !relIdentical(built, want) {
		t.Fatalf("Set wrote\n%s\nwant\n%s", built.Format(-1), want.Format(-1))
	}
	// A cell an INT vector cannot hold boxes a copy of it in place: the rows
	// it held read as before, the new cells exactly as written.
	for name, bad := range map[string]Value{"off-kind": NewFloat(1), "bool": NewBool(false), "stray payload": {Kind: KindInt, Str: "junk"}} {
		v := c.Vecs[0]
		v.Nulls = slices.Clone(v.Nulls)
		v.Set(2, c.Rows, bad)
		v.Append(c.Rows, bad)
		if !v.Boxed || v.Value(2) != bad || v.Value(c.Rows) != bad || v.Null(2) || v.Null(c.Rows) {
			t.Errorf("%s: boxed %v, rows 2 and %d read %#v and %#v", name, v.Boxed, c.Rows, v.Value(2), v.Value(c.Rows))
		}
		for _, i := range []int{0, 1, 3} {
			if !v.Value(i).Identical(want.Tuples[i][0]) || v.Null(i) != want.Tuples[i][0].IsNull() {
				t.Errorf("%s: boxing moved row %d to %v", name, i, v.Value(i))
			}
		}
	}

	sel, cols := []int32{3, 0, 0}, []int{2, 0, 3}
	got := FromColumns(rows.Schema.Project(cols), c.Select(sel, cols))
	wantSel := New(rows.Schema.Project(cols))
	for _, i := range sel {
		wantSel.MustAppend(Tuple{want.Tuples[i][2], want.Tuples[i][0], want.Tuples[i][3]})
	}
	a, errA := Marshal(got)
	b, errB := Marshal(wantSel)
	if errA != nil || errB != nil || !bytes.Equal(a, b) || !relIdentical(got, wantSel) {
		t.Errorf("selected image differs from its rows (%v, %v)", errA, errB)
	}

	rowView, colView := want.View(), built.View()
	rowView.KeepRows(sel)
	colView.KeepRows(sel)
	if colView.Columns() == nil || !relIdentical(rowView, colView) || rowView.Len() != len(sel) {
		t.Error("KeepRows narrowed the bodies differently")
	}
	if !relIdentical(built, want) {
		t.Error("KeepRows on a view moved the rows it shares")
	}
	for i := range sel {
		for j := range want.Schema {
			if !colView.Value(i, j).Identical(want.Tuples[sel[i]][j]) {
				t.Errorf("Value(%d, %d) = %v, want %v", i, j, colView.Value(i, j), want.Tuples[sel[i]][j])
			}
		}
	}
}

// TestUnmarshalReadsItsArgumentInPlace: Unmarshal of an N-byte frame
// allocates what it decodes into, and no N-byte copy of the frame besides.
// The frames are made of 10-byte varints, so a copy would show.
func TestUnmarshalReadsItsArgumentInPlace(t *testing.T) {
	const n = 1 << 16
	columnar := New(MustSchema(Column{"i", KindInt}))
	mixed := New(MustSchema(Column{"i", KindFloat}))
	for i := 0; i < n; i++ {
		columnar.MustAppend(Tuple{NewInt(math.MinInt64 + int64(i))})
		mixed.MustAppend(Tuple{NewInt(math.MinInt64 + int64(i))})
	}
	for _, c := range []struct {
		name    string
		rel     *Relation
		decoded uint64 // the body's own slabs
	}{
		{"columnar", columnar, 8 * n},
		{"rows", mixed, (ValueMemBytes + TupleMemBytes) * n},
	} {
		frame, err := Marshal(c.rel)
		if err != nil {
			t.Fatal(err)
		}
		var got *Relation
		grew := allocatedBy(func() { got, err = Unmarshal(frame) })
		if err != nil || got.Len() != n {
			t.Fatalf("%s: %v", c.name, err)
		}
		if limit := c.decoded + uint64(len(frame))/2; grew > limit {
			t.Errorf("%s: Unmarshal of a %d-byte frame allocated %d bytes, want ≤ %d", c.name, len(frame), grew, limit)
		}
	}
}

// TestColumnarBodyConcurrentReaders: a finished columnar relation is read by
// several goroutines at once — the sites of an in-process cluster handed one
// fragment — and every reader boxes its own rows. Run under -race.
func TestColumnarBodyConcurrentReaders(t *testing.T) {
	frame, err := Marshal(codecCases()["uniform"])
	if err != nil {
		t.Fatal(err)
	}
	shared, err := Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	shared.ShareFrame()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows := shared.Rows()
			rows[0][0] = NewInt(99) // a reader's own copy
			if b, err := shared.Frame(); err != nil || !bytes.Equal(b, frame) {
				t.Errorf("frame changed under concurrent readers (%v)", err)
			}
			if got := shared.View().AppendRow(nil, 0); got[0] != NewInt(-3) || shared.Clone().Len() != 4 {
				t.Errorf("row 0 reads %v", got)
			}
		}()
	}
	wg.Wait()
}
