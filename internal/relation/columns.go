package relation

import (
	"fmt"
	"math"
)

// Columns is a columnar image of rows: one Vector per column, row i at
// position i of every vector. It is the body of every Relation — a decoded
// frame, an X fragment, an H block, the coordinator's X — and the one image
// a site holds of every partition it loads (BuildColumns), so the compiled
// scan kernels of internal/gmdj read typed slices instead of 40-byte Values
// and the garbage collector has no per-row pointers to mark.
type Columns struct {
	Rows int
	Vecs []Vector
}

// Vector is one column of a Columns image. It holds its declared kind's
// payload in exactly one of Ints (INT, and BOOL as 0 or 1), Floats (FLOAT) or
// Codes (STRING, indexes into Dict); NULL rows hold the zero payload and have
// their bit set in Nulls. A NULL-kind vector has every row's bit set and no
// payload.
type Vector struct {
	// Kind is the column's declared kind.
	Kind   Kind
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

// BuildColumns images r for the scan kernels, column by column: a slab is
// copied, and a STRING vector's dictionary lists each value once. It refuses
// vectors that disagree with r's schema (checkArity).
func BuildColumns(r *Relation) (*Columns, error) {
	if err := checkArity(r); err != nil {
		return nil, err
	}
	c := &Columns{Rows: r.Len(), Vecs: make([]Vector, len(r.Schema))}
	for j := range c.Vecs {
		c.Vecs[j] = imageOf(&r.cols.Vecs[j], c.Rows)
	}
	return c, nil
}

// imageOf is BuildColumns' image of the n-row vector src.
func imageOf(src *Vector, n int) Vector {
	kind := src.Kind
	v := Vector{Kind: kind, Nulls: cloneSlice(src.Nulls)}
	switch kind {
	case KindInt, KindBool:
		v.Ints = append(make([]int64, 0, n), src.Ints[:n]...)
	case KindFloat:
		v.Floats = append(make([]float64, 0, n), src.Floats[:n]...)
	case KindString:
		v.Codes = make([]uint32, n)
		//skallavet:allow stringkey -- dictionary lookup: filled once per Load, probed once per base row per request, never per detail row
		v.codeOf = make(map[string]uint32)
		for i, code := range src.Codes[:n] {
			if src.Null(i) {
				continue
			}
			s := src.Dict[code]
			code, ok := v.codeOf[s]
			if !ok {
				code = uint32(len(v.Dict))
				v.Dict = append(v.Dict, s)
				v.codeOf[s] = code
			}
			v.Codes[i] = code
		}
	}
	// A NULL row holds the zero payload.
	for i := 0; v.Nulls != nil && i < n; i++ {
		switch {
		case !v.Null(i):
		case kind == KindInt, kind == KindBool:
			v.Ints[i] = 0
		case kind == KindFloat:
			v.Floats[i] = 0
		}
	}
	return v
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
		if *v = NewVector(src.Kind, n); v.Kind == KindString {
			v.Dict = src.Dict[:len(src.Dict):len(src.Dict)]
		}
		for i, s := range sel {
			switch {
			case src.Null(int(s)):
				v.SetNull(i, n)
			case v.Kind == KindInt, v.Kind == KindBool:
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

// NewVector returns an n-row vector of kind with zeroed storage, the storage
// Set writes rows into: none for NULL.
func NewVector(kind Kind, n int) Vector {
	v := Vector{Kind: kind}
	switch kind {
	case KindInt, KindBool:
		v.Ints = make([]int64, n)
	case KindFloat:
		v.Floats = make([]float64, n)
	case KindString:
		v.Codes = make([]uint32, n)
	}
	return v
}

// fits reports whether a vector of kind holds val as it is: val is the
// canonical NULL, or the canonical Value of kind — its payload in the field
// kind uses, a BOOL's 0 or 1, nothing in the other fields.
func fits(val Value, kind Kind) bool {
	switch {
	case val == Null:
		return true
	case val.Kind != kind || val.Str != "" && kind != KindString || math.Float64bits(val.Float) != 0 && kind != KindFloat:
		return false
	case kind == KindBool:
		return val.Int>>1 == 0
	}
	return val.Int == 0 || kind == KindInt
}

// Set writes val, which fits v's kind, to row i of the n-row vector v. A
// STRING value is appended to Dict, never written over an entry, so the Dict
// must be v's own. A cell that does not fit panics: cells from outside come
// in through Relation.Append, which refuses them.
func (v *Vector) Set(i, n int, val Value) {
	if !fits(val, v.Kind) {
		panic(fmt.Sprintf("relation: %s cell %v written to a vector of kind %s", val.Kind, val, v.Kind))
	}
	if val.IsNull() {
		v.SetNull(i, n)
		return
	}
	if v.Nulls != nil {
		v.Nulls[i>>6] &^= 1 << (uint(i) & 63)
	}
	switch v.Kind {
	case KindInt, KindBool:
		v.Ints[i] = val.Int
	case KindFloat:
		v.Floats[i] = val.Float
	case KindString:
		v.Codes[i] = uint32(len(v.Dict))
		v.Dict = append(v.Dict, val.Str)
	}
}

// Append adds val as row n of the n-row vector v, under Set's rules.
func (v *Vector) Append(n int, val Value) {
	switch v.Kind {
	case KindInt, KindBool:
		v.Ints = append(v.Ints, 0)
	case KindFloat:
		v.Floats = append(v.Floats, 0)
	case KindString:
		v.Codes = append(v.Codes, 0)
	}
	if v.Nulls != nil && len(v.Nulls) <= n>>6 {
		v.Nulls = append(v.Nulls, 0)
	}
	v.Set(n, n+1, val)
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

// Indexed reports whether v is a BuildColumns image's STRING vector: its
// Dict lists each value its rows hold once, in first-occurrence order, and
// Code answers for it.
func (v *Vector) Indexed() bool { return v.codeOf != nil }

// Value returns row i's cell, rebuilt from its payload.
func (v *Vector) Value(i int) Value {
	switch {
	case v.Null(i):
		return Null
	case v.Kind == KindInt:
		return NewInt(v.Ints[i])
	case v.Kind == KindFloat:
		return NewFloat(v.Floats[i])
	case v.Kind == KindString:
		return NewString(v.Dict[v.Codes[i]])
	case v.Kind == KindBool:
		return NewBool(v.Ints[i] != 0)
	}
	return Null
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
