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
	// one. Any other vector — decoded, gathered, emitted by a kernel — has a
	// row-ordered Dict, one entry per non-NULL row, repeats included, and no
	// Code index: Code is for BuildColumns images only.
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

// GatherColumns images the cols cells of rows, whose schema is schema, as
// typed vectors: row i of the image is rows[sel[i]], or rows[i] when sel is
// nil. STRING vectors get a row-ordered Dict. It returns nil when a column is
// BOOL or a cell is neither NULL nor the canonical Value of its column's
// kind: only a row body carries those.
func GatherColumns(schema Schema, rows []Tuple, sel []int32, cols []int) *Columns {
	n := len(rows)
	if sel != nil {
		n = len(sel)
	}
	c := &Columns{Rows: n, Vecs: make([]Vector, len(cols))}
	for j, col := range cols {
		v := &c.Vecs[j]
		v.Kind = schema[col].Kind
		switch v.Kind {
		case KindInt:
			v.Ints = make([]int64, n)
		case KindFloat:
			v.Floats = make([]float64, n)
		case KindString:
			v.Codes = make([]uint32, n)
			v.Dict = make([]string, 0, n)
		case KindBool:
			return nil
		}
		for i := 0; i < n; i++ {
			row := i
			if sel != nil {
				row = int(sel[i])
			}
			val := rows[row][col]
			switch {
			case val.IsNull():
				v.SetNull(i, n)
			case val.Kind != v.Kind || val.Int != 0 && v.Kind != KindInt ||
				math.Float64bits(val.Float) != 0 && v.Kind != KindFloat || val.Str != "" && v.Kind != KindString:
				return nil
			case v.Kind == KindInt:
				v.Ints[i] = val.Int
			case v.Kind == KindFloat:
				v.Floats[i] = val.Float
			default:
				v.Codes[i] = uint32(len(v.Dict))
				v.Dict = append(v.Dict, val.Str)
			}
		}
	}
	return c
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
