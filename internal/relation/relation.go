package relation

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Tuple is one row of a relation. Its length always matches the relation's
// schema.
type Tuple []Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Key returns the canonical grouping key of the tuple restricted to the
// given column positions. The hashed key layer (KeyHash/KeyIndex/KeyTable) is
// the allocation-free replacement on hot paths; Key remains for debugging and
// as the reference encoding the hashed layer must agree with.
func (t Tuple) Key(idx []int) string {
	buf := make([]byte, 0, 16*len(idx))
	for _, i := range idx {
		buf = t[i].appendKey(buf)
	}
	return string(buf)
}

// KeyHash returns the 64-bit FNV-1a hash of the tuple's canonical grouping
// key over the given column positions, without materializing the key bytes.
// Two tuples with equal Key strings always have equal KeyHash values.
func (t Tuple) KeyHash(idx []int) uint64 {
	h := uint64(fnvOffset64)
	for _, i := range idx {
		h = t[i].hashKeyInto(h)
	}
	return h
}

// keyColsEqual reports whether a restricted to aIdx and b restricted to bIdx
// encode the same grouping key (identity semantics, matching Tuple.Key
// equality).
func keyColsEqual(a Tuple, aIdx []int, b Tuple, bIdx []int) bool {
	if len(aIdx) != len(bIdx) {
		return false
	}
	for i := range aIdx {
		if !a[aIdx[i]].Identical(b[bIdx[i]]) {
			return false
		}
	}
	return true
}

// Relation is an in-memory relation (multiset of tuples): its schema and one
// vector per column (Columns), row i at position i of every vector. A decoded
// frame, an X fragment, an H block, the coordinator's X and every relation
// built with Append are the same body. Rows, AppendRow and Value are its boxed
// view; the methods that add rows (Append, Union) write its vectors, and
// Append is where a cell is held to its column's kind.
type Relation struct {
	Schema Schema

	// cols is the body; never nil.
	cols *Columns

	// frame, when set by ShareFrame, holds the relation's wire frame once a
	// consumer has encoded it; views share it.
	frame *sharedFrame
}

// New returns an empty relation with the given schema.
func New(schema Schema) *Relation {
	c := &Columns{Vecs: make([]Vector, len(schema))}
	for j, col := range schema {
		c.Vecs[j] = NewVector(col.Kind, 0)
	}
	return FromColumns(schema, c)
}

// FromColumns returns a relation whose body is c: one vector per schema
// column, of that column's kind. The relation's readers do not write c; its
// owner may, as the coordinator's merge writes X.
func FromColumns(schema Schema, c *Columns) *Relation {
	return &Relation{Schema: schema, cols: c}
}

// Columns returns the relation's vectors. Only the relation's owner writes
// them.
func (r *Relation) Columns() *Columns { return r.cols }

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.cols.Rows }

// Rows returns the relation's rows boxed into fresh rows carved from one
// Value slab. It boxes on every call and caches nothing, so concurrent
// readers never race; a caller that needs the rows twice keeps the slice.
func (r *Relation) Rows() []Tuple {
	n, w := r.cols.Rows, len(r.cols.Vecs)
	slab := make([]Value, n*w)
	rows := make([]Tuple, n)
	for i := range rows {
		rows[i] = slab[i*w : (i+1)*w : (i+1)*w]
	}
	for j := range r.cols.Vecs {
		v := &r.cols.Vecs[j]
		for i, row := range rows {
			row[j] = v.Value(i)
		}
	}
	return rows
}

// AppendRow appends row i's values to dst.
func (r *Relation) AppendRow(dst Tuple, i int) Tuple {
	for j := range r.cols.Vecs {
		dst = append(dst, r.cols.Vecs[j].Value(i))
	}
	return dst
}

// Value returns cell j of row i.
func (r *Relation) Value(i, j int) Value { return r.cols.Vecs[j].Value(i) }

// KeepRows points r at rows sel of its body, in that order, gathered into new
// vectors. Nothing r shares its body with is written, so a View of a shared
// result may be ordered or truncated this way.
func (r *Relation) KeepRows(sel []int32) {
	r.cols = r.cols.Select(sel, nil)
}

// TupleMemBytes estimates one slice header: MemBytes charges one per column.
const TupleMemBytes = 24

// MemBytes estimates the relation's in-memory footprint in bytes: a slice
// header per column plus the exact sizes of its slabs and strings.
// Admission control charges it at staging and merge boundaries.
func (r *Relation) MemBytes() int64 {
	if r == nil {
		return 0
	}
	return int64(TupleMemBytes)*int64(len(r.Schema)) + r.cols.memBytes()
}

// ErrOffKind is Append's refusal of a cell its column's kind does not hold:
// a value of another kind, or a Value that is not its kind's canonical one (a
// payload in a field its kind does not use, a BOOL other than 0 or 1). An
// INT cell in a FLOAT column is no such cell when its FLOAT is exact.
type ErrOffKind struct {
	Column string
	Row    int
	Kind   Kind // the column's
	Cell   Value
}

func (e *ErrOffKind) Error() string {
	return fmt.Sprintf("relation: column %s row %d: %s cell %v is not of the column's kind %s", e.Column, e.Row, e.Cell.Kind, e.Cell, e.Kind)
}

// Append adds a tuple as r's next row: each cell fits its column's kind
// (fits), or is an INT in a FLOAT column whose FLOAT is exact and is stored
// as that FLOAT. Any other cell, or a tuple of the wrong arity, is refused,
// an off-kind cell with an *ErrOffKind, and r is left unchanged. Append
// writes r's vectors, so r must not share them (View, Project).
func (r *Relation) Append(t Tuple) error {
	if len(t) != len(r.Schema) {
		return fmt.Errorf("relation: tuple arity %d does not match schema %s", len(t), r.Schema)
	}
	for j, col := range r.Schema {
		if _, ok := fit(t[j], col.Kind); !ok {
			return &ErrOffKind{Column: col.Name, Row: r.Len(), Kind: col.Kind, Cell: t[j]}
		}
	}
	c := r.cols
	for j := range c.Vecs {
		val, _ := fit(t[j], c.Vecs[j].Kind)
		c.Vecs[j].Append(c.Rows, val)
	}
	c.Rows++
	return nil
}

// fit is val as a vector of kind holds it, and whether it can: val itself
// when it fits, an exact INT as the FLOAT a FLOAT column holds.
func fit(val Value, kind Kind) (Value, bool) {
	if kind == KindFloat && val.Kind == KindInt && fits(val, KindInt) {
		f := float64(val.Int)
		return NewFloat(f), f < 1<<63 && int64(f) == val.Int
	}
	return val, fits(val, kind)
}

// MustAppend is Append but panics on a refused tuple.
func (r *Relation) MustAppend(t Tuple) {
	if err := r.Append(t); err != nil {
		panic(err)
	}
}

// Clone deep-copies the relation.
func (r *Relation) Clone() *Relation {
	return FromColumns(r.Schema.Clone(), r.cols.clone())
}

// Project returns a new relation restricted to the named columns, preserving
// duplicates and order. The projection shares r's vectors.
func (r *Relation) Project(names []string) (*Relation, error) {
	idx, err := r.Schema.Indexes(names)
	if err != nil {
		return nil, err
	}
	return FromColumns(r.Schema.Project(idx), r.cols.Select(nil, idx)), nil
}

// Filter returns the rows for which keep returns true. The row keep is given
// is valid only during the call.
func (r *Relation) Filter(keep func(Tuple) bool) *Relation {
	sel := []int32{} // not nil, which would Select every row
	var t Tuple
	for i := 0; i < r.Len(); i++ {
		if t = r.AppendRow(t[:0], i); keep(t) {
			sel = append(sel, int32(i))
		}
	}
	return FromColumns(r.Schema, r.cols.Select(sel, nil))
}

// Union appends all tuples of o (multiset union). Schemas must match. Like
// Append, it writes r's vectors.
func (r *Relation) Union(o *Relation) error {
	if !r.Schema.Equal(o.Schema) {
		return fmt.Errorf("relation: union schema mismatch: %s vs %s", r.Schema, o.Schema)
	}
	c, m := r.cols, o.Len()
	for j := range c.Vecs {
		for i := 0; i < m; i++ {
			c.Vecs[j].Append(c.Rows+i, o.cols.Vecs[j].Value(i))
		}
	}
	c.Rows += m
	return nil
}

// Sort orders the tuples lexicographically over all columns using the total
// sort order on values. It is used for deterministic output and result
// comparison.
func (r *Relation) Sort() {
	rows := r.Rows()
	sel := make([]int32, len(rows))
	for i := range sel {
		sel[i] = int32(i)
	}
	sort.SliceStable(sel, func(a, b int) bool { return rowLess(rows[sel[a]], rows[sel[b]]) })
	r.KeepRows(sel)
}

// rowLess orders rows lexicographically under the total sort order on values.
func rowLess(a, b Tuple) bool {
	for k := range a {
		if a[k].sortLess(b[k]) {
			return true
		}
		if b[k].sortLess(a[k]) {
			return false
		}
	}
	return false
}

// EqualMultiset reports whether two relations hold the same multiset of
// tuples under the same schema, ignoring row order. Cells compare by
// identity (Value.Identical).
func (r *Relation) EqualMultiset(o *Relation) bool {
	if !r.Schema.Equal(o.Schema) || r.Len() != o.Len() {
		return false
	}
	all := identityCols(len(r.Schema))
	a, b := r.Rows(), o.Rows()
	// counts[i], for the first row i of a holding its key, is how many rows of
	// a hold that key, less the rows of b matched to it so far.
	counts := make([]int, len(a))
	table := NewKeyTable(len(a))
	var probe Tuple
	same := func(i int) bool { return keyColsEqual(a[i], all, probe, all) }
	for i, t := range a {
		probe = t
		h := t.KeyHash(all)
		if first := table.Find(h, same); first >= 0 {
			counts[first]++
		} else {
			table.Insert(h, i)
			counts[i] = 1
		}
	}
	for _, t := range b {
		probe = t
		first := table.Find(t.KeyHash(all), same)
		if first < 0 || counts[first] == 0 {
			return false
		}
		counts[first]--
	}
	return true
}

// String renders the relation as an aligned text table (header + rows).
// Intended for examples and debugging; large relations are truncated.
func (r *Relation) String() string { return r.Format(50) }

// Format renders up to maxRows rows as an aligned text table.
func (r *Relation) Format(maxRows int) string {
	widths := make([]int, len(r.Schema))
	for i, c := range r.Schema {
		widths[i] = len(c.Name)
	}
	n := r.Len()
	shown := n
	if maxRows >= 0 && shown > maxRows {
		shown = maxRows
	}
	cells := make([][]string, shown)
	var t Tuple
	for i := 0; i < shown; i++ {
		row := make([]string, len(r.Schema))
		t = r.AppendRow(t[:0], i)
		for j, v := range t {
			row[j] = v.String()
			if len(row[j]) > widths[j] {
				widths[j] = len(row[j])
			}
		}
		cells[i] = row
	}
	last := len(r.Schema) - 1
	var b strings.Builder
	for j, c := range r.Schema {
		if j > 0 {
			b.WriteString("  ")
		}
		if j == last {
			b.WriteString(c.Name) // no trailing padding
		} else {
			fmt.Fprintf(&b, "%-*s", widths[j], c.Name)
		}
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for j, s := range row {
			if j > 0 {
				b.WriteString("  ")
			}
			if j == last {
				b.WriteString(s)
			} else {
				fmt.Fprintf(&b, "%-*s", widths[j], s)
			}
		}
		b.WriteByte('\n')
	}
	if shown < n {
		fmt.Fprintf(&b, "... (%d more rows)\n", n-shown)
	}
	return b.String()
}

// EqualMultisetApprox compares two relations like EqualMultiset but allows a
// relative tolerance on FLOAT values. Plans and evaluators group a float sum
// differently — per site, per worker, centrally — so float aggregates can
// differ in the last bits between plans, or between distributed and central
// evaluation; exact comparison is only appropriate for integer aggregates.
func (r *Relation) EqualMultisetApprox(o *Relation, relTol float64) bool {
	if !r.Schema.Equal(o.Schema) || r.Len() != o.Len() {
		return false
	}
	a, b := r.Rows(), o.Rows()
	for _, rows := range [][]Tuple{a, b} {
		sort.SliceStable(rows, func(i, j int) bool { return rowLess(rows[i], rows[j]) })
	}
	for i := range a {
		for j := range a[i] {
			if !valueApproxEqual(a[i][j], b[i][j], relTol) {
				return false
			}
		}
	}
	return true
}

func valueApproxEqual(x, y Value, relTol float64) bool {
	if x.Equal(y) || x.Kind == KindFloat && y.Kind == KindFloat && math.IsNaN(x.Float) && math.IsNaN(y.Float) {
		return true
	}
	// Only FLOAT values earn tolerance: integer aggregates (COUNT, integer
	// SUM/MIN/MAX) are exact and must match exactly.
	if x.Kind != KindFloat || y.Kind != KindFloat {
		return false
	}
	xf, xok := x.AsFloat()
	yf, yok := y.AsFloat()
	if !xok || !yok {
		return false
	}
	diff := math.Abs(xf - yf)
	scale := math.Max(math.Abs(xf), math.Abs(yf))
	if scale < 1 {
		scale = 1
	}
	return diff/scale <= relTol
}
