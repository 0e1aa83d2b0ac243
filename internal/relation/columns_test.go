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
			for i, row := range r.Rows() {
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

	short := FromColumns(schema, &Columns{Rows: 0, Vecs: New(schema).Columns().Vecs[:1]})
	if _, err := BuildColumns(short); err == nil {
		t.Error("vectors that disagree with the schema must refuse the image")
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

// TestDecodedBodyReadsLikeRows: a uniform frame decodes to typed vectors,
// and every method that reads a relation reads it as the rows it encodes.
func TestDecodedBodyReadsLikeRows(t *testing.T) {
	rows := codecCases()["uniform"]
	frame, err := Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	col, err := Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range col.Columns().Vecs {
		if v.Boxed {
			t.Fatalf("uniform column %d decoded boxed", j)
		}
	}
	if col.Len() != rows.Len() || !relIdentical(col, rows) || col.Format(-1) != rows.Format(-1) {
		t.Fatalf("decoded body reads\n%s\nwant\n%s", col, rows)
	}
	if !col.EqualMultiset(rows) || !rows.EqualMultiset(col) {
		t.Error("comparators disagree across decoded and appended vectors")
	}
	if got, want := col.AppendRow(nil, 2), rows.Rows()[2]; !reflect.DeepEqual(got, want) {
		t.Errorf("AppendRow(2) = %v, want %v", got, want)
	}
	clone := col.Clone()
	if &clone.Columns().Vecs[0].Ints[0] == &col.Columns().Vecs[0].Ints[0] || !relIdentical(clone, rows) {
		t.Error("Clone must copy the slabs")
	}
	proj, err := col.Project([]string{"s", "i"})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := rows.Project([]string{"s", "i"})
	if &proj.Columns().Vecs[1].Ints[0] != &col.Columns().Vecs[0].Ints[0] || !relIdentical(proj, want) {
		t.Error("Project must share the vectors")
	}
	// Exact slab sizes: 4 rows of INT (32), FLOAT (32), STRING codes (16)
	// with 3 dictionary entries (48) of 2 bytes, a one-word bitmap for each
	// column (every one holds a NULL), and the schema headers.
	if got, want := col.MemBytes(), int64(4*TupleMemBytes+32+32+16+48+2+4*8); got != want {
		t.Errorf("MemBytes = %d, want %d", got, want)
	}
	// A finished relation ships one frame, the rows' bytes.
	col.ShareFrame()
	a, _ := col.Frame()
	b, _ := col.View().Frame()
	if !bytes.Equal(a, frame) || &a[0] != &b[0] {
		t.Error("a shared frame must be the rows' frame, encoded once")
	}
	// Union appends to the vectors.
	u := col.Clone()
	if err := u.Union(rows); err != nil {
		t.Fatal(err)
	}
	if u.Len() != 2*rows.Len() || !rowsIdentical(u.Rows(), append(rows.Rows(), rows.Rows()...)) {
		t.Errorf("Union left\n%s", u)
	}
}

// TestMixedAndBoolFramesDecodeToBoxedVectors: a frame's mixed or BOOL column
// decodes, through Unmarshal and the stream Decoder alike, to a boxed vector
// holding every cell as it was encoded, a uniform INT, FLOAT, STRING or NULL
// column to a typed one; either re-encodes to the frame byte for byte.
func TestMixedAndBoolFramesDecodeToBoxedVectors(t *testing.T) {
	for name, r := range codecCases() {
		frame := mustMarshal(t, r)
		streamed, err := NewDecoder(bytes.NewReader(frame)).Decode(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		unmarshalled, err := Unmarshal(frame)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rows := r.Rows()
		for _, rel := range []*Relation{unmarshalled, streamed} {
			for j, col := range r.Schema {
				offKind := false
				for _, row := range rows {
					offKind = offKind || !row[j].IsNull() && row[j].Kind != col.Kind
				}
				if boxed := rel.Columns().Vecs[j].Boxed; boxed != (offKind || col.Kind == KindBool) {
					t.Errorf("%s: column %s (off-kind %v) decoded boxed %v", name, col.Name, offKind, boxed)
				}
			}
			if !relIdentical(rel, r) || !bytes.Equal(mustMarshal(t, rel), frame) {
				t.Errorf("%s: the decoded relation does not hold and re-encode its frame", name)
			}
		}
	}
}

// TestAppendBoxesOnlyTheColumnThatNeedsIt: rows appended encode to the frame
// of the rows, and a cell no typed vector holds — off-kind, a stray payload,
// a BOOL — boxes its own column only, every cell kept as it is.
func TestAppendBoxesOnlyTheColumnThatNeedsIt(t *testing.T) {
	rows := codecCases()["uniform"]
	for name, bad := range map[string]Value{
		"off-kind":      NewFloat(1),
		"stray payload": {Kind: KindInt, Int: 1, Str: "junk"},
		"bool":          NewBool(true),
	} {
		want := rows.Rows()
		want[1][0] = bad
		r := New(rows.Schema)
		for _, row := range want {
			r.MustAppend(row)
		}
		c := r.Columns()
		if !c.Vecs[0].Boxed || c.Vecs[1].Boxed || c.Vecs[2].Boxed || c.Vecs[0].Value(1) != bad {
			t.Errorf("%s: column 0 boxed %v, column 1 boxed %v, cell %#v", name, c.Vecs[0].Boxed, c.Vecs[1].Boxed, c.Vecs[0].Value(1))
		}
		if !rowsIdentical(r.Rows(), want) {
			t.Errorf("%s: the appended rows read differently", name)
		}
		if back, err := Unmarshal(mustMarshal(t, r)); err != nil || !rowsIdentical(back.Rows(), want) {
			t.Errorf("%s: the boxed column does not round-trip (%v)", name, err)
		}
	}
}

// TestSelectSetAppend: vectors grown with Append and rewritten with Set hold
// the rows written, Select gathers rows and columns of them, and KeepRows
// narrows a view to the same rows — each encoding to the frame of the rows
// it holds.
func TestSelectSetAppend(t *testing.T) {
	rows := codecCases()["uniform"]
	c := &Columns{Vecs: make([]Vector, len(rows.Schema))}
	for j, col := range rows.Schema {
		c.Vecs[j].Kind = col.Kind
	}
	for i, row := range rows.Rows() {
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
		c.Vecs[j].Set(1, c.Rows, rows.Value(0, j))
		c.Vecs[j].Set(0, c.Rows, Null)
		want.Columns().Vecs[j].Set(1, want.Len(), rows.Value(0, j))
		want.Columns().Vecs[j].Set(0, want.Len(), Null)
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
			if !v.Value(i).Identical(want.Value(i, 0)) || v.Null(i) != want.Value(i, 0).IsNull() {
				t.Errorf("%s: boxing moved row %d to %v", name, i, v.Value(i))
			}
		}
	}

	sel, cols := []int32{3, 0, 0}, []int{2, 0, 3}
	got := FromColumns(rows.Schema.Project(cols), c.Select(sel, cols))
	wantSel := New(rows.Schema.Project(cols))
	for _, i := range sel {
		wantSel.MustAppend(Tuple{want.Value(int(i), 2), want.Value(int(i), 0), want.Value(int(i), 3)})
	}
	a, errA := Marshal(got)
	b, errB := Marshal(wantSel)
	if errA != nil || errB != nil || !bytes.Equal(a, b) || !relIdentical(got, wantSel) {
		t.Errorf("selected image differs from its rows (%v, %v)", errA, errB)
	}

	wantView, builtView := want.View(), built.View()
	wantView.KeepRows(sel)
	builtView.KeepRows(sel)
	if !relIdentical(wantView, builtView) || wantView.Len() != len(sel) {
		t.Error("KeepRows narrowed equal relations differently")
	}
	if !relIdentical(built, want) {
		t.Error("KeepRows on a view moved the rows it shares")
	}
	for i := range sel {
		for j := range want.Schema {
			if !builtView.Value(i, j).Identical(want.Value(int(sel[i]), j)) {
				t.Errorf("Value(%d, %d) = %v, want %v", i, j, builtView.Value(i, j), want.Value(int(sel[i]), j))
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
		{"boxed", mixed, ValueMemBytes * n},
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
