// Package relation provides the typed value, schema, tuple and relation model
// used throughout Skalla. Relations are in-memory row stores; they are the
// unit of data shipped between sites and the coordinator (base-result
// structures and sub-aggregate relations), and the unit stored at each local
// warehouse site.
package relation

import (
	"fmt"
	"math"
	"strconv"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

const (
	// KindNull is the SQL NULL marker. Aggregates over empty ranges (except
	// COUNT) produce it, and arithmetic involving it propagates it.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE float.
	KindFloat
	// KindString is an immutable string.
	KindString
	// KindBool is a boolean.
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed scalar. The zero Value is NULL.
//
// Value is a flat struct (no pointers besides the string header) so that
// tuples are cheap to copy.
type Value struct {
	Kind  Kind
	Int   int64
	Float float64
	Str   string
}

// Null is the NULL value.
var Null = Value{}

// NewInt returns an INT value.
func NewInt(v int64) Value { return Value{Kind: KindInt, Int: v} }

// NewFloat returns a FLOAT value.
func NewFloat(v float64) Value { return Value{Kind: KindFloat, Float: v} }

// NewString returns a STRING value.
func NewString(v string) Value { return Value{Kind: KindString, Str: v} }

// NewBool returns a BOOL value. Booleans are carried in the Int field.
func NewBool(v bool) Value {
	if v {
		return Value{Kind: KindBool, Int: 1}
	}
	return Value{Kind: KindBool}
}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// Bool returns the boolean payload. It is only meaningful for KindBool.
func (v Value) Bool() bool { return v.Kind == KindBool && v.Int != 0 }

// IsNumeric reports whether v is INT or FLOAT.
func (v Value) IsNumeric() bool { return v.Kind == KindInt || v.Kind == KindFloat }

// AsFloat converts a numeric value to float64. It returns false for
// non-numeric values.
func (v Value) AsFloat() (float64, bool) {
	switch v.Kind {
	case KindInt:
		return float64(v.Int), true
	case KindFloat:
		return v.Float, true
	default:
		return 0, false
	}
}

// String renders the value for display.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float, 'g', -1, 64)
	case KindString:
		return v.Str
	case KindBool:
		if v.Int != 0 {
			return "true"
		}
		return "false"
	default:
		return fmt.Sprintf("Value(kind=%d)", uint8(v.Kind))
	}
}

// Equal reports whether two values are identical. NULL equals NULL here
// (identity semantics, used for grouping keys and result comparison); SQL
// condition evaluation treats NULL comparisons as false, which is handled in
// Compare/the expression evaluator.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		// INT/FLOAT cross-kind numeric equality.
		if v.IsNumeric() && o.IsNumeric() {
			a, _ := v.AsFloat()
			b, _ := o.AsFloat()
			return a == b
		}
		return false
	}
	switch v.Kind {
	case KindNull:
		return true
	case KindInt, KindBool:
		return v.Int == o.Int
	case KindFloat:
		return v.Float == o.Float
	case KindString:
		return v.Str == o.Str
	default:
		return false
	}
}

// Compare orders two non-NULL values of comparable kinds. It returns
// (-1|0|+1, true) on success, or (0, false) when the values are not
// comparable (either is NULL, or kinds are incompatible). INT and FLOAT
// compare numerically.
func (v Value) Compare(o Value) (int, bool) {
	if v.IsNull() || o.IsNull() {
		return 0, false
	}
	if v.IsNumeric() && o.IsNumeric() {
		if v.Kind == KindInt && o.Kind == KindInt {
			switch {
			case v.Int < o.Int:
				return -1, true
			case v.Int > o.Int:
				return 1, true
			}
			return 0, true
		}
		a, _ := v.AsFloat()
		b, _ := o.AsFloat()
		switch {
		case a < b:
			return -1, true
		case a > b:
			return 1, true
		}
		return 0, true
	}
	if v.Kind != o.Kind {
		return 0, false
	}
	switch v.Kind {
	case KindString:
		switch {
		case v.Str < o.Str:
			return -1, true
		case v.Str > o.Str:
			return 1, true
		}
		return 0, true
	case KindBool:
		switch {
		case v.Int < o.Int:
			return -1, true
		case v.Int > o.Int:
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}

// sortLess is a total order over all values used for deterministic sorting:
// NULL < BOOL < INT/FLOAT (numeric) < NaN < STRING. NaN, which compares
// equal to no number, has a place of its own, so the order stays a strict
// weak order.
func (v Value) sortLess(o Value) bool {
	vr, or := v.sortRank(), o.sortRank()
	if vr != or {
		return vr < or
	}
	if c, ok := v.Compare(o); ok {
		return c < 0
	}
	return false
}

func (v Value) sortRank() int {
	switch v.Kind {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt:
		return 2
	case KindFloat:
		if math.IsNaN(v.Float) {
			return 3
		}
		return 2
	case KindString:
		return 4
	default:
		return 5
	}
}

// appendKey appends a canonical, collision-free binary encoding of v to dst.
// It is used to build grouping keys.
func (v Value) appendKey(dst []byte) []byte {
	dst = append(dst, byte(v.Kind))
	switch v.Kind {
	case KindNull:
	case KindInt, KindBool:
		dst = appendUint64(dst, uint64(v.Int))
	case KindFloat:
		// Normalize integral floats to compare equal to ints would break
		// collision-freedom; instead encode the raw bits. Grouping keys use
		// exact identity, which is what GROUP BY semantics require.
		dst = appendUint64(dst, math.Float64bits(v.Float))
	case KindString:
		dst = appendUint64(dst, uint64(len(v.Str)))
		dst = append(dst, v.Str...)
	}
	return dst
}

func appendUint64(dst []byte, u uint64) []byte {
	return append(dst,
		byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
		byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= fnvPrime64
	return h
}

func fnvUint64(h uint64, u uint64) uint64 {
	h = fnvByte(h, byte(u>>56))
	h = fnvByte(h, byte(u>>48))
	h = fnvByte(h, byte(u>>40))
	h = fnvByte(h, byte(u>>32))
	h = fnvByte(h, byte(u>>24))
	h = fnvByte(h, byte(u>>16))
	h = fnvByte(h, byte(u>>8))
	return fnvByte(h, byte(u))
}

// hashKeyInto extends a running FNV-1a hash with v's canonical key encoding,
// byte for byte the same stream appendKey produces, without materializing it.
func (v Value) hashKeyInto(h uint64) uint64 {
	h = fnvByte(h, byte(v.Kind))
	switch v.Kind {
	case KindNull:
	case KindInt, KindBool:
		h = fnvUint64(h, uint64(v.Int))
	case KindFloat:
		h = fnvUint64(h, math.Float64bits(v.Float))
	case KindString:
		h = fnvUint64(h, uint64(len(v.Str)))
		for i := 0; i < len(v.Str); i++ {
			h = fnvByte(h, v.Str[i])
		}
	}
	return h
}

// Hash64 returns a 64-bit FNV-1a hash of the value's canonical key encoding
// (kind-aware, so INT 1 and STRING "1" hash differently). It is the basis of
// hash partitioning and of the hashed key layer (KeyIndex, KeyTable).
func (v Value) Hash64() uint64 {
	return v.hashKeyInto(fnvOffset64)
}

// Identical reports whether two values have identical canonical key
// encodings: same kind, and payload compared by identity (floats by raw bits,
// so the comparison matches Tuple.Key string equality exactly — NaN groups
// with NaN, and -0.0 is a different key from +0.0). It is grouping-key
// equality.
func (v Value) Identical(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindNull:
		return true
	case KindInt, KindBool:
		return v.Int == o.Int
	case KindFloat:
		return math.Float64bits(v.Float) == math.Float64bits(o.Float)
	case KindString:
		return v.Str == o.Str
	default:
		return false
	}
}
