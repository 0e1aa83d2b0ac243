package relation

// Columns is a read-only columnar image of a relation: one Vector per schema
// column, row i of the relation at position i of every vector. A site builds
// it once when a partition is loaded; the compiled scan kernels of
// internal/gmdj then read typed slices instead of 40-byte Values, and the
// garbage collector has no per-row pointers to mark (only the dictionaries
// hold strings, one per distinct value).
type Columns struct {
	Schema Schema
	Rows   int
	Vecs   []Vector
}

// Vector is one column of a Columns image. A typed vector holds its declared
// kind's payload in exactly one of Ints (INT), Floats (FLOAT) or Codes
// (STRING, indexes into Dict); NULL rows hold the zero payload and have their
// bit set in Nulls.
type Vector struct {
	// Kind is the column's declared kind.
	Kind Kind
	// Boxed marks a column without typed storage: it is declared BOOL, or
	// some value is neither NULL nor the canonical Value of the declared
	// kind. Its values live only in the row image, and anything that touches
	// it must evaluate over rows.
	Boxed  bool
	Ints   []int64
	Floats []float64
	Codes  []uint32
	// Dict lists a STRING column's distinct values in first-occurrence order.
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
	n := len(r.Tuples)
	c := &Columns{Schema: r.Schema, Rows: n, Vecs: make([]Vector, len(r.Schema))}
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
	for i, t := range r.Tuples {
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
				if v.Nulls == nil {
					v.Nulls = make([]uint64, (n+63)/64)
				}
				v.Nulls[i>>6] |= 1 << (uint(i) & 63)
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

func (v *Vector) box() {
	*v = Vector{Kind: v.Kind, Boxed: true}
}

// Null reports whether row i is NULL.
func (v *Vector) Null(i int) bool {
	return v.Nulls != nil && v.Nulls[i>>6]>>(uint(i)&63)&1 != 0
}

// Code returns the dictionary code of s, or false when no row holds s.
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
