package relation

import (
	"fmt"
	"math"
	"slices"
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
// given column positions. The hashed key layer (KeyHash/KeyIndex/KeySet) is
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

// Relation is an in-memory relation (multiset of tuples) with one of two
// bodies. The row body is Tuples. The columnar body — a decoded frame
// (Unmarshal, the stream Decoder), an X fragment, an H block, the
// coordinator's X — is a Columns image, and Tuples is nil while it is set. Len,
// Clone, MemBytes, KeepRows, the frame methods, the comparators and Format
// read either body; Rows, AppendRow and Value box a columnar one on demand;
// the methods that change the rows (Append, Union, DedupBy, Sort) switch it
// to a row body first.
type Relation struct {
	Schema Schema
	Tuples []Tuple

	// cols is the columnar body; nil for a row body.
	cols *Columns

	// frame, when set by ShareFrame, holds the relation's wire frame once a
	// consumer has encoded it; views share it.
	frame *sharedFrame
}

// New returns an empty relation with the given schema.
func New(schema Schema) *Relation {
	return &Relation{Schema: schema}
}

// FromColumns returns a relation whose body is c: one vector per schema
// column, of that column's kind. The relation's readers do not write c; its
// owner may, as the coordinator's merge writes X.
func FromColumns(schema Schema, c *Columns) *Relation {
	return &Relation{Schema: schema, cols: c}
}

// Columnar returns r with a columnar body: r itself when it has one, else a
// relation over the gathered image of its rows (GatherColumns). It refuses a
// row of the wrong arity.
func (r *Relation) Columnar() (*Relation, error) {
	if r.cols != nil {
		return r, nil
	}
	if err := checkArity(r); err != nil {
		return nil, err
	}
	return FromColumns(r.Schema, GatherColumns(r.Schema, r.Tuples, nil)), nil
}

// Columns returns the columnar body, or nil for a row body. The vectors are
// read-only.
func (r *Relation) Columns() *Columns { return r.cols }

// Len returns the number of tuples.
func (r *Relation) Len() int {
	if r.cols != nil {
		return r.cols.Rows
	}
	return len(r.Tuples)
}

// Rows returns the relation's rows: a row body's Tuples as they are, or a
// columnar body boxed into fresh rows carved from one Value slab. It boxes on
// every call and caches nothing, so concurrent readers of one columnar
// relation never race; a caller that needs the rows twice keeps the slice.
func (r *Relation) Rows() []Tuple {
	if r.cols == nil {
		return r.Tuples
	}
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

// AppendRow appends row i's values to dst, boxing them from a columnar body.
func (r *Relation) AppendRow(dst Tuple, i int) Tuple {
	if r.cols == nil {
		return append(dst, r.Tuples[i]...)
	}
	for j := range r.cols.Vecs {
		dst = append(dst, r.cols.Vecs[j].Value(i))
	}
	return dst
}

// Value returns cell j of row i, boxing it from a columnar body.
func (r *Relation) Value(i, j int) Value {
	if r.cols != nil {
		return r.cols.Vecs[j].Value(i)
	}
	return r.Tuples[i][j]
}

// KeepRows points r at rows sel of its body, in that order: a row body gets a
// new slice over the same rows, a columnar body vectors gathered from its own.
// Nothing r shares its body with is written, so a View of a shared result may
// be ordered or truncated this way.
func (r *Relation) KeepRows(sel []int32) {
	if r.cols != nil {
		r.cols = r.cols.Select(sel, nil)
		return
	}
	rows := make([]Tuple, len(sel))
	for i, s := range sel {
		rows[i] = r.Tuples[s]
	}
	r.Tuples = rows
}

// RowBody returns r itself when it has a row body, or a new relation over
// r's schema and boxed rows: for consumers that index or edit Tuples.
func (r *Relation) RowBody() *Relation {
	if r.cols == nil {
		return r
	}
	return &Relation{Schema: r.Schema, Tuples: r.Rows()}
}

// ownRows switches a columnar body to a row body, for the methods that
// change the rows.
func (r *Relation) ownRows() {
	if r.cols != nil {
		r.Tuples, r.cols = r.Rows(), nil
	}
}

// Approximate in-memory cost of one Value (Kind + Int + Float + string
// header, padded) and of one Tuple's slice header. Used by MemBytes and by
// the coordinator's memory budgeting; the numbers track the 64-bit layout of
// the structs, not exact allocator accounting.
const (
	// ValueMemBytes estimates one Value's in-memory size.
	ValueMemBytes = 48
	// TupleMemBytes estimates one Tuple's slice-header overhead.
	TupleMemBytes = 24
)

// MemBytes estimates the relation's in-memory footprint in bytes: for a row
// body, slice headers plus per-value storage plus string payloads, an O(rows)
// estimate for memory budgeting (admission control charges it at staging and
// merge boundaries), not an exact allocator measurement; for a columnar body,
// the exact sizes of its slabs and strings.
func (r *Relation) MemBytes() int64 {
	if r == nil {
		return 0
	}
	n := int64(TupleMemBytes) * int64(len(r.Schema))
	if r.cols != nil {
		return n + r.cols.memBytes()
	}
	for _, t := range r.Tuples {
		n += t.MemBytes()
	}
	return n
}

// MemBytes estimates one tuple's in-memory footprint (slice header, values,
// string payloads), matching Relation.MemBytes per-row accounting.
func (t Tuple) MemBytes() int64 {
	n := int64(TupleMemBytes) + ValueMemBytes*int64(len(t))
	for i := range t {
		if t[i].Kind == KindString {
			n += int64(len(t[i].Str))
		}
	}
	return n
}

// Append adds a tuple after checking arity.
func (r *Relation) Append(t Tuple) error {
	if len(t) != len(r.Schema) {
		return fmt.Errorf("relation: tuple arity %d does not match schema %s", len(t), r.Schema)
	}
	r.ownRows()
	r.Tuples = append(r.Tuples, t)
	return nil
}

// MustAppend is Append but panics on arity mismatch.
func (r *Relation) MustAppend(t Tuple) {
	if err := r.Append(t); err != nil {
		panic(err)
	}
}

// Clone deep-copies the relation, keeping its body's form.
func (r *Relation) Clone() *Relation {
	if r.cols != nil {
		return FromColumns(r.Schema.Clone(), r.cols.clone())
	}
	out := &Relation{Schema: r.Schema.Clone(), Tuples: make([]Tuple, len(r.Tuples))}
	for i, t := range r.Tuples {
		out.Tuples[i] = t.Clone()
	}
	return out
}

// Project returns a new relation restricted to the named columns, preserving
// duplicates and order.
func (r *Relation) Project(names []string) (*Relation, error) {
	idx, err := r.Schema.Indexes(names)
	if err != nil {
		return nil, err
	}
	if r.cols != nil {
		// The vectors are read-only, so the projection shares them.
		c := &Columns{Rows: r.cols.Rows, Vecs: make([]Vector, len(idx))}
		for j, k := range idx {
			c.Vecs[j] = r.cols.Vecs[k]
		}
		return FromColumns(r.Schema.Project(idx), c), nil
	}
	out := New(r.Schema.Project(idx))
	out.Tuples = make([]Tuple, len(r.Tuples))
	for i, t := range r.Tuples {
		nt := make(Tuple, len(idx))
		for j, k := range idx {
			nt[j] = t[k]
		}
		out.Tuples[i] = nt
	}
	return out, nil
}

// DistinctProject returns the set of distinct rows over the named columns,
// in first-seen order.
func (r *Relation) DistinctProject(names []string) (*Relation, error) {
	idx, err := r.Schema.Indexes(names)
	if err != nil {
		return nil, err
	}
	rows := r.Rows()
	out := New(r.Schema.Project(idx))
	seen := NewKeySet(len(rows))
	for _, t := range rows {
		if key, fresh := seen.Add(t, idx); fresh {
			out.Tuples = append(out.Tuples, key)
		}
	}
	return out, nil
}

// Filter returns the rows for which keep returns true.
func (r *Relation) Filter(keep func(Tuple) bool) *Relation {
	out := New(r.Schema)
	for _, t := range r.Rows() {
		if keep(t) {
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out
}

// Union appends all tuples of o (multiset union). Schemas must match.
func (r *Relation) Union(o *Relation) error {
	if !r.Schema.Equal(o.Schema) {
		return fmt.Errorf("relation: union schema mismatch: %s vs %s", r.Schema, o.Schema)
	}
	r.ownRows()
	r.Tuples = append(r.Tuples, o.Rows()...)
	return nil
}

// DedupBy removes duplicate rows with equal keys over the given columns,
// keeping the first occurrence.
func (r *Relation) DedupBy(names []string) error {
	idx, err := r.Schema.Indexes(names)
	if err != nil {
		return err
	}
	r.ownRows()
	seen := NewKeySet(len(r.Tuples))
	out := r.Tuples[:0]
	for _, t := range r.Tuples {
		if _, fresh := seen.Add(t, idx); fresh {
			out = append(out, t)
		}
	}
	r.Tuples = out
	return nil
}

// Sort orders the tuples lexicographically over all columns using the total
// sort order on values. It is used for deterministic output and result
// comparison.
func (r *Relation) Sort() {
	r.ownRows()
	sortRows(r.Tuples)
}

func sortRows(rows []Tuple) {
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := range a {
			if a[k].Equal(b[k]) {
				continue
			}
			return a[k].sortLess(b[k])
		}
		return false
	})
}

// sortedRows returns r's rows sorted, leaving r as it is.
func (r *Relation) sortedRows() []Tuple {
	rows := r.Rows()
	if r.cols == nil {
		rows = slices.Clone(rows)
	}
	sortRows(rows)
	return rows
}

// EqualMultiset reports whether two relations hold the same multiset of
// tuples under the same schema, ignoring row order.
func (r *Relation) EqualMultiset(o *Relation) bool {
	if !r.Schema.Equal(o.Schema) || r.Len() != o.Len() {
		return false
	}
	all := identityCols(len(r.Schema))
	counts := NewKeyCounter(r.Len())
	for _, t := range r.Rows() {
		counts.Inc(t, all)
	}
	for _, t := range o.Rows() {
		if counts.Dec(t, all) < 0 {
			return false
		}
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
	a, b := r.sortedRows(), o.sortedRows()
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
	if x.Equal(y) {
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
