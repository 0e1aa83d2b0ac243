package relation

import "math"

// Columns is a read-only columnar image of rows: one Vector per column, row i
// at position i of every vector. A site builds one (BuildColumns) of every
// partition it loads, so the compiled scan kernels of internal/gmdj read
// typed slices instead of 40-byte Values and the garbage collector has no
// per-row pointers to mark. It is also the body of a columnar Relation
// (FromColumns): a decoded frame, an X fragment, an H block a kernel emits.
type Columns struct {
	Rows int
	Vecs []Vector
}

// Vector is one column of a Columns image. A typed vector holds its declared
// kind's payload in exactly one of Ints (INT), Floats (FLOAT) or Codes
// (STRING, indexes into Dict); NULL rows hold the zero payload and have their
// bit set in Nulls. A NULL-kind vector has every row's bit set and no payload.
type Vector struct {
	// Kind is the column's declared kind.
	Kind Kind
	// Boxed marks a column without typed storage: it is declared BOOL, or
	// some value is neither NULL nor the canonical Value of the declared
	// kind. Its values live only in the row image, and anything that touches
	// it must evaluate over rows. Only BuildColumns images have boxed
	// vectors; a columnar Relation never does.
	Boxed  bool
	Ints   []int64
	Floats []float64
	Codes  []uint32
	// Dict holds the STRING values Codes index. In a BuildColumns image it
	// lists the distinct values in first-occurrence order, and Code finds
	// one. Any other vector — decoded, gathered, emitted by a kernel, built
	// with Set and Append — may repeat values and hold entries no row uses,
	// and has no Code index: Code is for BuildColumns images only.
	Dict []string
	// Nulls is the NULL bitmap (bit i = row i), nil when no row is NULL.
	Nulls []uint64

	//skallavet:allow stringkey -- dictionary lookup: filled once per Load, probed once per base row per request, never per detail row
	codeOf map[string]uint32
}

// BuildColumns images r. It returns nil when some tuple's arity does not
// match the schema: such a relation is served by the row path alone, which
// reports the malformed row when it meets it.
func BuildColumns(r *Relation) *Columns {
	rows := r.Rows()
	n := len(rows)
	c := &Columns{Rows: n, Vecs: make([]Vector, len(r.Schema))}
	for j, col := range r.Schema {
		v := &c.Vecs[j]
		v.Kind = col.Kind
		switch col.Kind {
		case KindInt:
			v.Ints = make([]int64, n)
		case KindFloat:
			v.Floats = make([]float64, n)
		case KindString:
			v.Codes = make([]uint32, n)
			//skallavet:allow stringkey -- dictionary lookup: filled once per Load, probed once per base row per request, never per detail row
			v.codeOf = make(map[string]uint32)
		default:
			v.Boxed = true
		}
	}
	for i, t := range rows {
		if len(t) != len(c.Vecs) {
			return nil
		}
		for j := range c.Vecs {
			v := &c.Vecs[j]
			if v.Boxed {
				continue
			}
			val := t[j]
			switch {
			case val == Null:
				v.SetNull(i, n)
			case val.Kind != v.Kind:
				v.box()
			case v.Kind == KindInt && val == NewInt(val.Int):
				v.Ints[i] = val.Int
			case v.Kind == KindFloat && val == NewFloat(val.Float):
				v.Floats[i] = val.Float
			case v.Kind == KindString && val == NewString(val.Str):
				code, ok := v.codeOf[val.Str]
				if !ok {
					code = uint32(len(v.Dict))
					v.Dict = append(v.Dict, val.Str)
					v.codeOf[val.Str] = code
				}
				v.Codes[i] = code
			default:
				// Right kind, stray payload (or NaN, which equals nothing,
				// itself included): not reproducible from typed storage.
				v.box()
			}
		}
	}
	return c
}

// GatherColumns images the cols cells (all of them when cols is nil) of
// rows, whose schema is schema, as typed vectors: row i of the image is
// rows[sel[i]], or rows[i] when sel is nil. It returns nil when a column is
// BOOL or a cell is neither NULL nor the canonical Value of its column's
// kind: only a row body carries those.
func GatherColumns(schema Schema, rows []Tuple, sel []int32, cols []int) *Columns {
	if cols == nil {
		cols = identityCols(len(schema))
	}
	n := len(rows)
	if sel != nil {
		n = len(sel)
	}
	c := &Columns{Rows: n, Vecs: make([]Vector, len(cols))}
	for j, col := range cols {
		if schema[col].Kind == KindBool {
			return nil
		}
		v := &c.Vecs[j]
		*v = NewVector(schema[col].Kind, n)
		if v.Kind == KindString {
			v.Dict = make([]string, 0, n)
		}
		for i := 0; i < n; i++ {
			row := i
			if sel != nil {
				row = int(sel[i])
			}
			if !v.Set(i, n, rows[row][col]) {
				return nil
			}
		}
	}
	return c
}

// Select returns the image of rows sel of c, in that order, restricted to
// the vectors cols (all of them when cols is nil). With sel nil it shares
// c's vectors; otherwise it gathers new ones, whose STRING codes index the
// source's Dict.
func (c *Columns) Select(sel []int32, cols []int) *Columns {
	if cols == nil {
		cols = identityCols(len(c.Vecs))
	}
	n := c.Rows
	if sel != nil {
		n = len(sel)
	}
	out := &Columns{Rows: n, Vecs: make([]Vector, len(cols))}
	for j, col := range cols {
		src := &c.Vecs[col]
		if sel == nil {
			out.Vecs[j] = *src
			continue
		}
		v := &out.Vecs[j]
		*v = NewVector(src.Kind, n)
		if v.Kind == KindString {
			v.Dict = src.Dict[:len(src.Dict):len(src.Dict)]
		}
		for i, s := range sel {
			switch {
			case src.Null(int(s)):
				v.SetNull(i, n)
			case v.Kind == KindInt:
				v.Ints[i] = src.Ints[s]
			case v.Kind == KindFloat:
				v.Floats[i] = src.Floats[s]
			case v.Kind == KindString:
				v.Codes[i] = src.Codes[s]
			}
		}
	}
	return out
}

// NewVector returns an n-row vector of kind with zeroed typed storage, none
// for a NULL or BOOL kind: the storage Set writes rows into.
func NewVector(kind Kind, n int) Vector {
	v := Vector{Kind: kind}
	switch kind {
	case KindInt:
		v.Ints = make([]int64, n)
	case KindFloat:
		v.Floats = make([]float64, n)
	case KindString:
		v.Codes = make([]uint32, n)
	}
	return v
}

// canonical reports whether val is the canonical Value of kind, the only
// non-NULL cell a typed vector of that kind can hold.
func canonical(val Value, kind Kind) bool {
	return val.Kind == kind && (val.Int == 0 || kind == KindInt) &&
		(math.Float64bits(val.Float) == 0 || kind == KindFloat) && (val.Str == "" || kind == KindString)
}

// Set writes val to row i of the n-row typed vector v and reports whether it
// could: val must be NULL or the canonical Value of v's kind, and v is
// unchanged otherwise. A STRING value is appended to Dict, never written over
// an entry, so the Dict must be v's own.
func (v *Vector) Set(i, n int, val Value) bool {
	if val.IsNull() {
		v.SetNull(i, n)
		return true
	}
	if v.Kind == KindBool || !canonical(val, v.Kind) {
		return false
	}
	switch v.Kind {
	case KindInt:
		v.Ints[i] = val.Int
	case KindFloat:
		v.Floats[i] = val.Float
	case KindString:
		v.Codes[i] = uint32(len(v.Dict))
		v.Dict = append(v.Dict, val.Str)
	}
	if v.Nulls != nil {
		v.Nulls[i>>6] &^= 1 << (uint(i) & 63)
	}
	return true
}

// Append adds val as row n of the n-row typed vector v, under Set's rules.
func (v *Vector) Append(n int, val Value) bool {
	if !val.IsNull() && (v.Kind == KindBool || !canonical(val, v.Kind)) {
		return false
	}
	switch v.Kind {
	case KindInt:
		v.Ints = append(v.Ints, 0)
	case KindFloat:
		v.Floats = append(v.Floats, 0)
	case KindString:
		v.Codes = append(v.Codes, 0)
	}
	if v.Nulls != nil && len(v.Nulls) <= n>>6 {
		v.Nulls = append(v.Nulls, 0)
	}
	return v.Set(n, n+1, val)
}

func (v *Vector) box() {
	*v = Vector{Kind: v.Kind, Boxed: true}
}

// SetNull marks row i of an n-row vector NULL, allocating the bitmap on first
// use. It is for building a vector, before anything reads it.
func (v *Vector) SetNull(i, n int) {
	if v.Nulls == nil {
		v.Nulls = make([]uint64, (n+63)/64)
	}
	v.Nulls[i>>6] |= 1 << (uint(i) & 63)
}

// Null reports whether row i is NULL.
func (v *Vector) Null(i int) bool {
	return v.Nulls != nil && v.Nulls[i>>6]>>(uint(i)&63)&1 != 0
}

// Code returns the dictionary code of s, or false when no row holds s. It
// answers for BuildColumns images only; any other vector holds no codes.
func (v *Vector) Code(s string) (uint32, bool) {
	code, ok := v.codeOf[s]
	return code, ok
}

// Value rebuilds row i of a typed vector as a Value, identical to the one the
// row image holds.
func (v *Vector) Value(i int) Value {
	if v.Null(i) {
		return Null
	}
	switch v.Kind {
	case KindInt:
		return NewInt(v.Ints[i])
	case KindFloat:
		return NewFloat(v.Floats[i])
	default:
		return NewString(v.Dict[v.Codes[i]])
	}
}

// memBytes is the image's exact payload size: every slab at its length, and
// the bytes of the strings its dictionaries hold.
func (c *Columns) memBytes() int64 {
	var n int64
	for j := range c.Vecs {
		v := &c.Vecs[j]
		n += 8*int64(len(v.Ints)+len(v.Floats)+len(v.Nulls)) + 4*int64(len(v.Codes)) + 16*int64(len(v.Dict))
		for _, s := range v.Dict {
			n += int64(len(s))
		}
	}
	return n
}

// clone copies every slab; strings and a BuildColumns dictionary index,
// neither of which is ever written, are shared.
func (c *Columns) clone() *Columns {
	out := &Columns{Rows: c.Rows, Vecs: make([]Vector, len(c.Vecs))}
	for j, v := range c.Vecs {
		v.Ints = cloneSlice(v.Ints)
		v.Floats = cloneSlice(v.Floats)
		v.Codes = cloneSlice(v.Codes)
		v.Dict = cloneSlice(v.Dict)
		v.Nulls = cloneSlice(v.Nulls)
		out.Vecs[j] = v
	}
	return out
}

// cloneSlice copies s, keeping nil nil.
func cloneSlice[T any](s []T) []T {
	if s == nil {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}
