package relation

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"strings"
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
	// Every column rebuilds every value to the bit, -0.0 included.
	for j := 0; j < 4; j++ {
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
	if !reflect.DeepEqual(c.Vecs[3].Ints, []int64{1, 0, 0, 1}) {
		t.Errorf("BOOL column images as %v, want 0s and 1s", c.Vecs[3].Ints)
	}
	if c.Vecs[4].Nulls != nil {
		t.Error("a column without NULLs must not carry a bitmap")
	}
}

// TestBuildColumnsKeepsNaNTyped: a FLOAT column holding NaNs of two
// payloads, ±0 and ±Inf images to its typed Floats, each cell bit for bit,
// and the image encodes to its rows' bytes.
func TestBuildColumnsKeepsNaNTyped(t *testing.T) {
	r := New(MustSchema(Column{Name: "F", Kind: KindFloat}))
	for _, f := range []float64{math.NaN(), math.Float64frombits(0x7ff8_0000_0000_0001), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)} {
		r.MustAppend(Tuple{NewFloat(f)})
	}
	r.MustAppend(Tuple{Null})
	c, err := BuildColumns(r)
	if err != nil {
		t.Fatal(err)
	}
	v := &c.Vecs[0]
	if len(v.Floats) != r.Len() {
		t.Fatalf("the column images to %d floats, want %d", len(v.Floats), r.Len())
	}
	for i, row := range r.Rows() {
		if got := v.Value(i); !got.Identical(row[0]) || v.Null(i) != row[0].IsNull() {
			t.Errorf("row %d reads %#v, want %#v", i, got, row[0])
		}
	}
	if !bytes.Equal(mustMarshal(t, FromColumns(r.Schema, c)), mustMarshal(t, r)) {
		t.Error("the image encodes to other bytes than its rows")
	}
}

// TestAppendRefusesOffKindCells: Append is where a cell is held to its
// column's kind. An exact INT in a FLOAT column is stored as that FLOAT; any
// other off-kind cell, or a Value that is not its kind's canonical one, is
// refused with an *ErrOffKind naming the column and the row, the relation
// left as it was. ReadCSV refuses a cell that does not parse as its column's
// kind the same way, and BuildColumns and the encoder a BOOL vector holding
// neither 0 nor 1, which only a hand-built vector can.
func TestAppendRefusesOffKindCells(t *testing.T) {
	schema := MustSchema(Column{"I", KindInt}, Column{"F", KindFloat}, Column{"S", KindString}, Column{"B", KindBool}, Column{"N", KindNull})
	clean := Tuple{NewInt(1), NewFloat(2), NewString("x"), NewBool(true), Null}
	for _, c := range []struct {
		name string
		col  int
		val  Value
	}{
		{"float in an INT column", 0, NewFloat(1)},
		{"inexact int in a FLOAT column", 1, NewInt(1<<53 + 1)},
		{"int that rounds to 2^63", 1, NewInt(math.MaxInt64)},
		{"string in a FLOAT column", 1, NewString("2")},
		{"int in a STRING column", 2, NewInt(3)},
		{"int in a BOOL column", 3, NewInt(1)},
		{"BOOL of 2", 3, Value{Kind: KindBool, Int: 2}},
		{"stray payload", 0, Value{Kind: KindInt, Int: 1, Str: "junk"}},
		{"NULL with a payload", 2, Value{Kind: KindNull, Int: 9}},
		{"int in a NULL column", 4, NewInt(0)},
	} {
		r := New(schema)
		r.MustAppend(clean)
		before := mustMarshal(t, r)
		bad := clean.Clone()
		bad[c.col] = c.val
		var off *ErrOffKind
		if err := r.Append(bad); !errors.As(err, &off) || *off != (ErrOffKind{Column: schema[c.col].Name, Row: 1, Kind: schema[c.col].Kind, Cell: c.val}) {
			t.Errorf("%s: Append = %v, want an *ErrOffKind naming column %s row 1", c.name, err, schema[c.col].Name)
		}
		if !bytes.Equal(mustMarshal(t, r), before) {
			t.Errorf("%s: the refused tuple changed the relation", c.name)
		}
	}

	r := New(schema)
	r.MustAppend(Tuple{Null, NewInt(math.MinInt64), Null, Null, Null})
	if got := r.Value(0, 1); got != NewFloat(-1<<63) {
		t.Errorf("an exact INT in a FLOAT column reads %#v", got)
	}

	var off *ErrOffKind
	_, err := ReadCSV(strings.NewReader("a:INT,b:FLOAT\n1,2\n3,x\n"))
	if !errors.As(err, &off) || off.Column != "b" || off.Row != 1 || off.Cell != NewString("x") {
		t.Errorf("ReadCSV = %v, want an *ErrOffKind naming column b row 1", err)
	}
	raw := FromColumns(MustSchema(Column{"B", KindBool}), &Columns{Rows: 2, Vecs: []Vector{{Kind: KindBool, Ints: []int64{1, 2}}}})
	_, errBuild := BuildColumns(raw)
	_, errMarshal := Marshal(raw)
	for _, err := range []error{errBuild, errMarshal} {
		if !errors.As(err, &off) || off.Column != "B" || off.Row != 1 {
			t.Errorf("a BOOL vector holding 2: %v, want an *ErrOffKind naming column B row 1", err)
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

// mixedFrame is a frame as protocol versions before 7 wrote an INT column
// holding a FLOAT: the column's encoding mixed (0x01), each value tagged with
// its kind.
func mixedFrame() []byte {
	body := AppendSchema([]byte{frameInline}, MustSchema(Column{"m", KindInt}))
	body = append(body, 2, 0x00, 0x01) // two rows, no NULL, mixed
	body = AppendValue(AppendValue(body, NewInt(2)), NewFloat(1.5))
	return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
}

// TestMixedFramesAreRefused: a frame holding a mixed column is refused by
// Unmarshal, the stream Decoder and Cursor.Relation alike, and a BOOL column
// decodes to Ints of 0 and 1 that re-encode to its frame.
func TestMixedFramesAreRefused(t *testing.T) {
	for _, frame := range [][]byte{mixedFrame(), mixedKindsFrame()} {
		_, errU := Unmarshal(frame)
		_, errD := NewDecoder(bytes.NewReader(frame)).Decode(nil)
		_, errC := NewCursor(frame).Relation(nil)
		for name, err := range map[string]error{"Unmarshal": errU, "Decoder": errD, "Cursor.Relation": errC} {
			if err == nil || !strings.Contains(err.Error(), "encoding 0x01") {
				t.Errorf("%s = %v, want the mixed column refused", name, err)
			}
		}
	}
	bools := codecCases()["bool-packing"]
	frame := mustMarshal(t, bools)
	got, err := Unmarshal(frame)
	if err != nil || !reflect.DeepEqual(got.Columns().Vecs[0].Ints, bools.Columns().Vecs[0].Ints) || !bytes.Equal(mustMarshal(t, got), frame) {
		t.Errorf("a BOOL frame decodes to %v (%v)", got, err)
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
	// A cell an INT vector cannot hold panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Set wrote a FLOAT to an INT vector")
			}
		}()
		c.Vecs[0].Set(2, c.Rows, NewFloat(1))
	}()

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
	for i := 0; i < n; i++ {
		columnar.MustAppend(Tuple{NewInt(math.MinInt64 + int64(i))})
	}
	frame, err := Marshal(columnar)
	if err != nil {
		t.Fatal(err)
	}
	var got *Relation
	grew := allocatedBy(func() { got, err = Unmarshal(frame) })
	if err != nil || got.Len() != n {
		t.Fatal(err)
	}
	if limit := 8*n + uint64(len(frame))/2; grew > limit { // the body's own slab, and no copy
		t.Errorf("Unmarshal of a %d-byte frame allocated %d bytes, want ≤ %d", len(frame), grew, limit)
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
