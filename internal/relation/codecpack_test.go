package relation

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// packCases are relations whose columns meet the packed INT and FLOAT,
// prefix STRING and digits STRING encodings at their edges, round-tripped
// with the other codecCases.
func packCases() map[string]*Relation {
	column := func(kind Kind, vals ...Value) *Relation {
		r := New(MustSchema(Column{"v", kind}))
		for _, v := range vals {
			r.MustAppend(Tuple{v})
		}
		return r
	}
	var extremes, repeated, identical, capped []Value
	for i := 0; i < 8; i++ {
		extremes = append(extremes, NewInt(math.MinInt64), Null, NewInt(math.MaxInt64))
		repeated = append(repeated, NewInt(1000), NewInt(1000))
		identical = append(identical, NewString("Clerk#000000042"))
		capped = append(capped, NewString(strings.Repeat("p", 300)+fmt.Sprint(i*7)))
	}
	clerks := New(MustSchema(Column{"Clerk", KindString}, Column{"cnt", KindInt}, Column{"#witness", KindInt}))
	for i := 0; i < 40; i++ {
		clerk := NewString(fmt.Sprintf("Clerk#%09d", 3*i+1))
		if i%9 == 4 {
			clerk = Null
		}
		clerks.MustAppend(Tuple{clerk, NewInt(int64(1 + i%5)), NewInt(int64(i % 2))})
	}
	floats := func(xs ...float64) []Value {
		var vals []Value
		for _, x := range xs {
			vals = append(vals, NewFloat(x))
		}
		return vals
	}
	strs := func(xs ...string) []Value {
		var vals []Value
		for _, x := range xs {
			vals = append(vals, NewString(x))
		}
		return vals
	}
	var nans, subnormals, posInf, negInf, signedZeros, infinities []Value
	for k := uint64(0); k < 8; k++ {
		nans = append(nans, NewFloat(math.Float64frombits(0x7ff8000000000001+k*k)))
		subnormals = append(subnormals, NewFloat(math.Float64frombits(k<<49|k)))
		posInf = append(posInf, NewFloat(math.Inf(1)), NewFloat(math.MaxFloat64))
		negInf = append(negInf, NewFloat(math.Inf(-1)), NewFloat(-math.MaxFloat64))
		signedZeros = append(signedZeros, NewFloat(math.Copysign(0, -1)), NewFloat(0))
		infinities = append(infinities, NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)))
	}
	// A signalling NaN: its payload's top bit clear.
	nans[3] = NewFloat(math.Float64frombits(0x7ff0000000000009))
	floatNulls := floats(1.5, 1.25, 1.75, 1.125, 1.0625, 1.5, 1.375, 1.625)
	for _, i := range []int{1, 3, 4, 7} {
		floatNulls = slices.Insert(floatNulls, i, Null)
	}
	var eighteen, nineteen []Value
	for _, x := range []uint64{100000000000000000, 234567890123456789, 999999999999999999, 512345678901234567} {
		eighteen = append(eighteen, NewString(fmt.Sprintf("k%018d", x)))
		nineteen = append(nineteen, NewString(fmt.Sprintf("k%019d", 10*x+3)))
	}

	return map[string]*Relation{
		"packed-extremes":   column(KindInt, extremes...),
		"packed-repeated":   column(KindInt, repeated...),
		"packed-nulls":      column(KindInt, NewInt(7), Null, NewInt(3), Null, Null, NewInt(9), NewInt(4), Null, NewInt(5), NewInt(3)),
		"empty-strings":     column(KindString, NewString(""), NewString(""), Null, NewString(""), NewString("")),
		"one-string":        column(KindString, Null, NewString("Clerk#000000001"), Null),
		"prefix-utf8":       column(KindString, NewString("héllo1"), NewString("hèllo2"), NewString("hêllo3"), NewString("hëllo4")),
		"prefix-varying":    column(KindString, NewString("Customer#1"), NewString("Customer#22"), NewString("Customer#333"), Null, NewString("Customer#4444")),
		"prefix-capped":     column(KindString, capped...),
		"prefix-identical":  column(KindString, identical...),
		"prefix-empty-head": column(KindString, NewString("ab"), NewString("cd"), NewString("ef"), NewString("gh")),
		"clerk-reply":       clerks,

		"float-nan-payloads": column(KindFloat, nans...),
		"float-signed-zeros": column(KindFloat, signedZeros...),
		"float-pos-inf":      column(KindFloat, posInf...),
		"float-neg-inf":      column(KindFloat, negInf...),
		"float-infinities":   column(KindFloat, infinities...),
		"float-subnormals":   column(KindFloat, subnormals...),
		"float-mixed-signs":  column(KindFloat, floats(-1.5, 2.5, -3.25, 4, 0.5, -100, 7, 8)...),
		"float-signs-apart": column(KindFloat, floats(math.Float64frombits(1), math.Float64frombits(2), math.Float64frombits(3), math.Float64frombits(4),
			-math.MaxFloat64, math.Inf(-1), -math.MaxFloat64, math.Inf(-1))...),
		"float-repeated":       column(KindFloat, floats(1234.5, 1234.5, 1234.5, 1234.5, 1234.5, 1234.5, 1234.5, 1234.5)...),
		"float-nulls":          column(KindFloat, floatNulls...),
		"digits-one":           column(KindString, strs("Brand#1", "Brand#2", "Brand#3", "Brand#4", "Brand#5", "Brand#6", "Brand#7", "Brand#8")...),
		"digits-eighteen":      column(KindString, eighteen...),
		"digits-nineteen":      column(KindString, nineteen...),
		"digits-leading-zeros": column(KindString, strs("Clerk#0042", "Clerk#1007", "Clerk#0100", "Clerk#0999", "Clerk#0001")...),
		"digits-non-digit":     column(KindString, strs("Clerk#0042", "Clerk#00A7", "Clerk#1100", "Clerk#0999", "Clerk#0001")...),
		"digits-empty-prefix":  column(KindString, strs("1234", "5678", "9012", "3456", "7890")...),
		"digits-varying":       column(KindString, strs("#1", "#22", "#333", "#4444")...),
	}
}

// The reference sizes below read the non-NULL cells of column j of rows in
// place: a row decode allocates no copy of a column.

// packedCode is the code a packed column packs the INT or FLOAT v as: the
// INT, or the int64 of the FLOAT's bits.
func packedCode(v Value) int64 {
	if v.Kind == KindFloat {
		return int64(math.Float64bits(v.Float))
	}
	return v.Int
}

// codeSpread is the least and greatest code of the INT or FLOAT column j of
// rows, and how many cells are not NULL.
func codeSpread(rows []Tuple, j int) (lo, hi int64, n int) {
	for _, t := range rows {
		if v := t[j]; !v.IsNull() {
			x := packedCode(v)
			if n == 0 {
				lo, hi = x, x
			}
			lo, hi, n = min(lo, x), max(hi, x), n+1
		}
	}
	return lo, hi, n
}

// refPackedSize is the bytes past its encoding byte of the INT or FLOAT
// column j of rows packed as Marshal packs it, or MaxInt when every cell is
// NULL.
func refPackedSize(rows []Tuple, j int) int {
	lo, hi, n := codeSpread(rows, j)
	if n == 0 {
		return math.MaxInt
	}
	w := bits.Len64(uint64(hi) - uint64(lo))
	return len(binary.AppendVarint(nil, lo)) + 1 + (n*w+7)/8
}

// refDigits is the digits shape of the STRING column j of rows: its prefix,
// suffix width and least and greatest suffix value, and false when its
// prefix is longer than maxDigitPrefix or its suffixes are not all decimal
// digits of one width from 1 to maxDigits.
func refDigits(rows []Tuple, j int) (prefix string, width int, lo, hi uint64, ok bool) {
	prefix, n := refPrefix(rows, j)
	if n == 0 || len(prefix) > maxDigitPrefix {
		return "", 0, 0, 0, false
	}
	width, lo = -1, math.MaxUint64
	for _, t := range rows {
		v := t[j]
		if v.IsNull() {
			continue
		}
		suffix := v.Str[len(prefix):]
		if width == -1 {
			width = len(suffix)
		}
		x, err := strconv.ParseUint(suffix, 10, 64)
		if len(suffix) != width || width == 0 || width > maxDigits || err != nil {
			return "", 0, 0, 0, false
		}
		lo, hi = min(lo, x), max(hi, x)
	}
	return prefix, width, lo, hi, true
}

// refDigitsSize is the bytes past its encoding byte of the STRING column j
// of rows written as a digits column, or MaxInt when it cannot be.
func refDigitsSize(rows []Tuple, j int) int {
	prefix, width, lo, hi, ok := refDigits(rows, j)
	if !ok {
		return math.MaxInt
	}
	n := 0
	for _, t := range rows {
		if !t[j].IsNull() {
			n++
		}
	}
	w := bits.Len64(hi - lo)
	return len(AppendString(nil, prefix)) + len(uvarint(uint64(width))) + len(varint(int64(lo))) + 1 + (n*w+7)/8
}

// refPrefix is the prefix Marshal gives the STRING column j of rows: the
// longest common prefix of its non-NULL cells, capped at maxPrefix bytes.
func refPrefix(rows []Tuple, j int) (prefix string, n int) {
	for _, t := range rows {
		v := t[j]
		if v.IsNull() {
			continue
		}
		if n == 0 {
			prefix = v.Str
		}
		k := 0
		for k < len(prefix) && k < len(v.Str) && prefix[k] == v.Str[k] {
			k++
		}
		prefix, n = prefix[:k], n+1
	}
	return prefix[:min(len(prefix), maxPrefix)], n
}

// refPrefixSize is the bytes past its encoding byte of the STRING column j
// of rows written as a prefix column, or MaxInt when every cell is NULL.
func refPrefixSize(rows []Tuple, j int) int {
	prefix, n := refPrefix(rows, j)
	if n == 0 {
		return math.MaxInt
	}
	p, width := len(prefix), -1
	for _, t := range rows {
		if v := t[j]; !v.IsNull() && width != 0 {
			if width == -1 {
				width = len(v.Str) - p
			}
			if len(v.Str)-p != width {
				width = 0
			}
		}
	}
	size := len(binary.AppendUvarint(nil, uint64(p))) + p + len(binary.AppendUvarint(nil, uint64(width)))
	for _, t := range rows {
		if v := t[j]; !v.IsNull() {
			if width == 0 {
				size += len(binary.AppendUvarint(nil, uint64(len(v.Str)-p)))
			}
			size += len(v.Str) - p
		}
	}
	return size
}

// uniformSize is the bytes past its encoding byte of the INT, FLOAT or
// STRING column j of rows written uniform.
func uniformSize(rows []Tuple, j int) int {
	size := 0
	for _, t := range rows {
		switch v := t[j]; v.Kind {
		case KindInt:
			size += len(binary.AppendVarint(nil, v.Int))
		case KindFloat:
			size += 8
		case KindString:
			size += len(binary.AppendUvarint(nil, uint64(len(v.Str)))) + len(v.Str)
		}
	}
	return size
}

// readCodeRows reads the packed codes of column j of rows bit by bit, and
// yields each non-NULL row's code x with its cell to set. It refuses a width
// above 64, a width of 0 unless zeroOK, and set padding bits, and returns the
// min and width read.
func readCodeRows(cur *Cursor, rows []Tuple, j int, bitmap []byte, zeroOK bool, set func(t Tuple, x uint64) error) (int64, int, error) {
	nonNull := 0
	for i := range rows {
		if !isNullAt(bitmap, i) {
			nonNull++
		}
	}
	lo, err := cur.Varint()
	if err != nil {
		return 0, 0, err
	}
	w, err := cur.Byte()
	if err != nil {
		return 0, 0, err
	}
	if w > 64 || w == 0 && !zeroOK {
		return 0, 0, fmt.Errorf("packed width %d", w)
	}
	raw, err := cur.Bytes((nonNull*int(w) + 7) / 8)
	if err != nil {
		return 0, 0, err
	}
	bit := func(k int) uint64 { return uint64(raw[k/8]>>(k%8)) & 1 }
	for k := nonNull * int(w); k < 8*len(raw); k++ {
		if bit(k) != 0 {
			return 0, 0, errors.New("packed padding bit set")
		}
	}
	k := 0
	for i, t := range rows {
		if isNullAt(bitmap, i) {
			t[j] = Null
			continue
		}
		var d uint64
		for b := 0; b < int(w); b++ {
			d |= bit(k) << b
			k++
		}
		if err := set(t, uint64(lo)+d); err != nil {
			return 0, 0, err
		}
	}
	return lo, int(w), nil
}

// readPackedRows reads the INT or FLOAT column j of rows, written packed,
// bit by bit, and refuses it unless it is what Marshal writes for the values
// read: its min the least of their codes, its width the fewest bits their
// spread needs, its padding bits zero and its size below uniform's.
func readPackedRows(cur *Cursor, rows []Tuple, j int, kind Kind, bitmap []byte) error {
	lo, w, err := readCodeRows(cur, rows, j, bitmap, true, func(t Tuple, x uint64) error {
		if t[j] = NewInt(int64(x)); kind == KindFloat {
			t[j] = NewFloat(math.Float64frombits(x))
		}
		return nil
	})
	if err != nil {
		return err
	}
	least, most, n := codeSpread(rows, j)
	switch {
	case n == 0:
		return errors.New("packed column without values")
	case least != lo:
		return fmt.Errorf("packed min %d, least value %d", lo, least)
	case bits.Len64(uint64(most)-uint64(least)) != w:
		return fmt.Errorf("packed width %d for a spread of %d bits", w, bits.Len64(uint64(most)-uint64(least)))
	case refPackedSize(rows, j) >= uniformSize(rows, j):
		return errors.New("packed column not smaller than uniform")
	}
	return nil
}

// readPrefixRows reads column j of rows, written as a prefix column, and
// refuses it unless it is what Marshal writes for the values read: its
// prefix their capped longest common one, its suffixes length-prefixed only
// when their widths differ or are all 0, and its size below uniform's and no
// larger than the digits form's.
func readPrefixRows(cur *Cursor, rows []Tuple, j int, bitmap []byte) error {
	start := cur.Len()
	p, err := cur.Count(maxPrefix, "prefix length")
	if err != nil {
		return err
	}
	prefix, err := cur.Bytes(p)
	if err != nil {
		return err
	}
	width, err := cur.Count(cur.Len(), "suffix width")
	if err != nil {
		return err
	}
	// The first suffix, and whether every suffix so far starts with its first
	// byte or has its nonzero width.
	var first []byte
	n, extendable, oneWidth := 0, p < maxPrefix, true
	for i, t := range rows {
		if isNullAt(bitmap, i) {
			t[j] = Null
			continue
		}
		ln := width
		if width == 0 {
			if ln, err = cur.Count(cur.Len(), "suffix length"); err != nil {
				return err
			}
		}
		s, err := cur.Bytes(ln)
		if err != nil {
			return err
		}
		if n == 0 {
			first = s
		}
		extendable = extendable && len(s) > 0 && s[0] == first[0]
		oneWidth = oneWidth && len(s) > 0 && len(s) == len(first)
		n++
		t[j] = NewString(string(prefix) + string(s))
	}
	if n == 0 {
		return errors.New("prefix column without values")
	}
	switch {
	case extendable:
		return errors.New("prefix shorter than the values' common one")
	case width == 0 && oneWidth:
		return errors.New("length-prefixed suffixes of one width")
	case start-cur.Len() >= uniformSize(rows, j):
		return errors.New("prefix column not smaller than uniform")
	case refDigitsSize(rows, j) < start-cur.Len():
		return errors.New("prefix column that digits write smaller")
	}
	return nil
}

// readDigitsRows reads column j of rows, written as a digits column, bit by
// bit, and refuses it unless it is what Marshal writes for the values read:
// its prefix their longest common one, at most maxDigitPrefix bytes, its
// width from 1 to maxDigits, every value below 10^width, its min and width
// in bits those of the suffixes' values, and its size below both uniform's
// and the prefix form's.
func readDigitsRows(cur *Cursor, rows []Tuple, j int, bitmap []byte) error {
	start := cur.Len()
	p, err := cur.Count(maxDigitPrefix, "prefix length")
	if err != nil {
		return err
	}
	prefix, err := cur.Bytes(p)
	if err != nil {
		return err
	}
	width, err := cur.Count(maxDigits, "digits width")
	if err != nil || width == 0 {
		return fmt.Errorf("digits width %d (%v)", width, err)
	}
	// Equal values would all be in the prefix: a width of 0 is refused.
	lo, w, err := readCodeRows(cur, rows, j, bitmap, false, func(t Tuple, x uint64) error {
		if s := strconv.FormatUint(x, 10); len(s) <= width {
			t[j] = NewString(string(prefix) + strings.Repeat("0", width-len(s)) + s)
			return nil
		}
		return fmt.Errorf("digits value %d wider than %d digits", x, width)
	})
	if err != nil {
		return err
	}
	want, wantWidth, least, most, ok := refDigits(rows, j)
	switch {
	case !ok || want != string(prefix) || wantWidth != width:
		return errors.New("digits prefix not the values' longest common one")
	case uint64(lo) != least:
		return fmt.Errorf("digits min %d, least value %d", lo, least)
	case bits.Len64(most-least) != w:
		return fmt.Errorf("digits width %d bits for a spread of %d bits", w, bits.Len64(most-least))
	case start-cur.Len() >= uniformSize(rows, j), start-cur.Len() >= refPrefixSize(rows, j):
		return errors.New("digits column not smaller than uniform and prefix")
	}
	return nil
}

// columnEncoding returns the encoding byte and payload of the single column
// of r's frame.
func columnEncoding(t *testing.T, r *Relation) (byte, []byte) {
	t.Helper()
	data, err := Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	cur := NewCursor(frameBody(data))
	if _, err := cur.Byte(); err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Schema(); err != nil {
		t.Fatal(err)
	}
	rows, err := cur.Uvarint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Bytes(int(rows+7) / 8); err != nil {
		t.Fatal(err)
	}
	enc, err := cur.Byte()
	if err != nil {
		t.Fatal(err)
	}
	rest, _ := cur.Bytes(cur.Len())
	return enc, rest
}

// TestCodecPacksAtTheEdges checks which encoding each single-column edge case
// gets, and the parameters it is written with.
func TestCodecPacksAtTheEdges(t *testing.T) {
	cases := packCases()
	head := func(p string, width int) []byte {
		return binary.AppendUvarint(AppendString(nil, p), uint64(width))
	}
	packed := func(min uint64, w byte) []byte { return append(varint(int64(min)), w) }
	digits := func(p string, width int, min uint64, w byte) []byte {
		return append(head(p, width), packed(min, w)...)
	}
	code := math.Float64bits
	for _, tc := range []struct {
		name string
		enc  byte
		head []byte // the payload's first bytes
	}{
		// w = 64: max−min overflows int64, and is computed in uint64.
		{"packed-extremes", encPacked, append(binary.AppendVarint(nil, math.MinInt64), 64)},
		// w = 0: the min and width are all there is.
		{"packed-repeated", encPacked, append(binary.AppendVarint(nil, 1000), 0)},
		{"packed-nulls", encPacked, append(binary.AppendVarint(nil, 3), 3)},
		{"empty-strings", encUniform, nil},
		{"one-string", encUniform, nil},
		// The prefix ends inside the two-byte runes é, è, ê and ë.
		{"prefix-utf8", encPrefix, head("h\xc3", 5)},
		{"prefix-varying", encPrefix, head("Customer#", 0)},
		{"prefix-capped", encPrefix, head(strings.Repeat("p", maxPrefix), 0)},
		// Identical values: every suffix is empty, and a fixed width of 0 is
		// not used.
		{"prefix-identical", encPrefix, head("Clerk#000000042", 0)},
		{"prefix-empty-head", encPrefix, head("", 2)},
		// A FLOAT packs the int64 of its bits: NaN payloads, infinities and
		// subnormals are codes like any other.
		{"float-nan-payloads", encPacked, packed(0x7ff0000000000009, 52)},
		{"float-pos-inf", encPacked, packed(code(math.MaxFloat64), 1)},
		{"float-neg-inf", encPacked, packed(code(-math.MaxFloat64), 1)},
		{"float-subnormals", encPacked, packed(0, 52)},
		{"float-repeated", encPacked, packed(code(1234.5), 0)},
		{"float-nulls", encPacked, packed(code(1.0625), 52)},
		// Codes of both signs, the positive ones no smaller in magnitude, are
		// 2^63 or more apart: w = 64, never smaller.
		{"float-signed-zeros", encUniform, binary.LittleEndian.AppendUint64(nil, code(math.Copysign(0, -1)))},
		{"float-infinities", encUniform, binary.LittleEndian.AppendUint64(nil, code(math.Inf(1)))},
		{"float-mixed-signs", encUniform, binary.LittleEndian.AppendUint64(nil, code(-1.5))},
		// Unless every positive value is smaller in magnitude than every
		// negative one: subnormals beside −Inf are 2^52 + 5 codes apart.
		{"float-signs-apart", encPacked, packed(code(-math.MaxFloat64), 53)},
		{"digits-one", encDigits, digits("Brand#", 1, 1, 3)},
		{"digits-eighteen", encDigits, digits("k", 18, 100000000000000000, 60)},
		{"digits-nineteen", encPrefix, head("k", 19)},
		{"digits-leading-zeros", encDigits, digits("Clerk#", 4, 1, 10)},
		{"digits-non-digit", encPrefix, head("Clerk#", 4)},
		{"digits-empty-prefix", encDigits, digits("", 4, 1234, 13)},
		{"digits-varying", encPrefix, head("#", 0)},
		{"clerk-reply", encDigits, digits("Clerk#000000", 3, 1, 7)},
	} {
		enc, payload := columnEncoding(t, cases[tc.name])
		if enc != tc.enc || !bytes.HasPrefix(payload, tc.head) {
			t.Errorf("%s: encoding %d, payload %x; want encoding %d, payload from %x", tc.name, enc, payload, tc.enc, tc.head)
		}
		// Every edge decodes, by vectors and by rows alike, and re-encodes to
		// its own bytes.
		data, err := Marshal(cases[tc.name])
		if err != nil {
			t.Fatal(err)
		}
		rel, err := Unmarshal(data)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if _, rows, err := rowDecode(data); err != nil || !rowsIdentical(rows, rel.Rows()) || !relIdentical(rel, cases[tc.name]) {
			t.Errorf("%s: row decode %v, or the rows differ", tc.name, err)
		}
		if again, err := Marshal(rel); err != nil || !bytes.Equal(again, data) {
			t.Errorf("%s: re-encoded to %x, want %x (%v)", tc.name, again, data, err)
		}
	}
	if enc, payload := columnEncoding(t, cases["prefix-identical"]); len(payload) != len(head("Clerk#000000042", 0))+8 || enc != encPrefix {
		t.Errorf("identical values: payload %x, want the prefix and 8 empty suffixes", payload)
	}
}

// oneColumn is a self-contained frame of a single column of kind: rows rows,
// then the bitmap, the encoding byte and the payload as given.
func oneColumn(kind Kind, rows int, bitmap []byte, enc byte, payload ...[]byte) []byte {
	body := AppendSchema([]byte{frameInline}, Schema{{Name: "c", Kind: kind}})
	body = append(binary.AppendUvarint(body, uint64(rows)), bitmap...)
	body = append(body, enc)
	for _, p := range payload {
		body = append(body, p...)
	}
	return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
}

// packBits lays out deltas at w bits each, least significant bit first,
// without Marshal's writer.
func packBits(w int, deltas ...uint64) []byte {
	out := make([]byte, (len(deltas)*w+7)/8)
	for i, d := range deltas {
		for b := 0; b < w; b++ {
			if d>>b&1 != 0 {
				k := i*w + b
				out[k/8] |= 1 << (k % 8)
			}
		}
	}
	return out
}

func varint(x int64) []byte   { return binary.AppendVarint(nil, x) }
func uvarint(x uint64) []byte { return binary.AppendUvarint(nil, x) }

// nonCanonicalFrames are frames the packed, prefix and digits encodings
// refuse, each against a frame Marshal writes (accepted) for the same or
// like values.
func nonCanonicalFrames() (refused map[string][]byte, accepted map[string][]byte) {
	eight := []byte{0}
	clerk := func(p string, width int, suffixes ...string) []byte {
		b := append(AppendString(nil, p), uvarint(uint64(width))...)
		for _, s := range suffixes {
			if width == 0 {
				b = append(b, uvarint(uint64(len(s)))...)
			}
			b = append(b, s...)
		}
		return b
	}
	var uniformInts, uniformClerks []byte
	for _, x := range []int64{10, 11, 12, 13, 10, 11, 12, 13} {
		uniformInts = append(uniformInts, varint(x)...)
	}
	for _, s := range []string{"Clerk#a", "Clerk#b", "Clerk#c", "Clerk#d"} {
		uniformClerks = append(uniformClerks, AppendString(nil, s)...)
	}
	// Two values a prefix column writes no smaller than uniform, 38 bytes, and
	// digits in 27.
	uniformDigits := slices.Concat(AppendString(nil, "500000000000000000"), AppendString(nil, "100000000000000000"))
	long := strings.Repeat("q", maxPrefix+1)
	padded := packBits(3, 0, 1, 2, 3, 4) // 15 bits: bit 15 pads
	padded[1] |= 0x80
	// FLOAT codes from that of 1.0 up.
	one := int64(math.Float64bits(1))
	var uniformFloats []byte
	for _, d := range []uint64{0, 1, 2, 3, 0, 1, 2, 3} {
		uniformFloats = binary.LittleEndian.AppendUint64(uniformFloats, uint64(one)+d)
	}
	digits := func(p string, width int, lo int64, w int, deltas ...uint64) []byte {
		return slices.Concat(AppendString(nil, p), uvarint(uint64(width)), varint(lo), []byte{byte(w)}, packBits(w, deltas...))
	}
	refused = map[string][]byte{
		"packed-min-not-attained":   oneColumn(KindInt, 8, eight, encPacked, varint(9), []byte{2}, packBits(2, 1, 2, 3, 3, 1, 2, 3, 3)),
		"packed-width-too-wide":     oneColumn(KindInt, 8, eight, encPacked, varint(10), []byte{3}, packBits(3, 0, 1, 2, 3, 0, 1, 2, 3)),
		"packed-width-above-64":     oneColumn(KindInt, 8, eight, encPacked, varint(10), []byte{65}, make([]byte, 65)),
		"packed-padding-set":        oneColumn(KindInt, 5, []byte{0}, encPacked, varint(10), []byte{3}, padded),
		"packed-wraps-past-max":     oneColumn(KindInt, 8, eight, encPacked, varint(math.MaxInt64-1), []byte{2}, packBits(2, 0, 1, 2, 3, 0, 1, 2, 3)),
		"packed-not-smaller":        oneColumn(KindInt, 2, []byte{0}, encPacked, varint(10), []byte{1}, packBits(1, 0, 1)),
		"uniform-int-packable":      oneColumn(KindInt, 8, eight, encUniform, uniformInts),
		"prefix-not-longest":        oneColumn(KindString, 4, []byte{0}, encPrefix, clerk("Clerk", 2, "#a", "#b", "#c", "#d")),
		"prefix-varying-one-width":  oneColumn(KindString, 4, []byte{0}, encPrefix, clerk("Clerk#", 0, "a", "b", "c", "d")),
		"prefix-not-smaller":        oneColumn(KindString, 1, []byte{0}, encPrefix, clerk("abc", 0, "")),
		"prefix-over-cap":           oneColumn(KindString, 4, []byte{0}, encPrefix, clerk(long, 1, "1", "2", "3", "4")),
		"uniform-string-prefixable": oneColumn(KindString, 4, []byte{0}, encUniform, uniformClerks),
		"uniform-string-digits":     oneColumn(KindString, 2, []byte{0}, encUniform, uniformDigits),

		"packed-float-min-not-attained": oneColumn(KindFloat, 8, eight, encPacked, varint(one-1), []byte{2}, packBits(2, 1, 2, 3, 3, 1, 2, 3, 3)),
		"packed-float-width-too-wide":   oneColumn(KindFloat, 8, eight, encPacked, varint(one), []byte{3}, packBits(3, 0, 1, 2, 3, 0, 1, 2, 3)),
		"packed-float-padding-set":      oneColumn(KindFloat, 5, []byte{0}, encPacked, varint(one), []byte{3}, padded),
		"uniform-float-packable":        oneColumn(KindFloat, 8, eight, encUniform, uniformFloats),
		// "a1", "a2": 7 bytes as digits, 6 as a prefix column.
		"digits-not-smaller":          oneColumn(KindString, 2, []byte{0}, encDigits, digits("a", 1, 1, 1, 0, 1)),
		"digits-value-too-wide":       oneColumn(KindString, 4, []byte{0}, encDigits, digits("Clerk#", 1, 7, 2, 0, 1, 2, 3)),
		"digits-min-not-attained":     oneColumn(KindString, 4, []byte{0}, encDigits, digits("Clerk#", 1, 0, 3, 1, 2, 3, 4)),
		"digits-width-too-wide":       oneColumn(KindString, 4, []byte{0}, encDigits, digits("Clerk#", 1, 1, 3, 0, 1, 2, 3)),
		"digits-padding-set":          oneColumn(KindString, 5, []byte{0}, encDigits, slices.Concat(AppendString(nil, "Clerk#"), uvarint(1), varint(1), []byte{3}, padded)),
		"digits-equal-values":         oneColumn(KindString, 4, []byte{0}, encDigits, digits("Clerk#", 1, 4, 0)),
		"digits-width-zero":           oneColumn(KindString, 4, []byte{0}, encDigits, digits("Clerk#", 0, 1, 2, 0, 1, 2, 3)),
		"digits-nineteen-wide":        oneColumn(KindString, 4, []byte{0}, encDigits, digits("k", 19, 1, 2, 0, 1, 2, 3)),
		"digits-prefix-over-cap":      oneColumn(KindString, 4, []byte{0}, encDigits, digits(long[:maxDigitPrefix+1], 1, 1, 2, 0, 1, 2, 3)),
		"digits-prefix-not-longest":   oneColumn(KindString, 4, []byte{0}, encDigits, digits("Clerk", 2, 11, 2, 0, 1, 2, 3)),
		"prefix-digits-write-smaller": oneColumn(KindString, 4, []byte{0}, encPrefix, clerk("Clerk#", 1, "1", "2", "3", "4")),
	}
	accepted = map[string][]byte{
		"packed":       oneColumn(KindInt, 8, eight, encPacked, varint(10), []byte{2}, packBits(2, 0, 1, 2, 3, 0, 1, 2, 3)),
		"packed-5":     oneColumn(KindInt, 5, []byte{0}, encPacked, varint(10), []byte{3}, packBits(3, 0, 1, 2, 3, 4)),
		"prefix":       oneColumn(KindString, 4, []byte{0}, encPrefix, clerk("Clerk#", 1, "a", "b", "c", "d")),
		"prefix-a1-a2": oneColumn(KindString, 2, []byte{0}, encPrefix, clerk("a", 1, "1", "2")),
		"digits":       oneColumn(KindString, 4, []byte{0}, encDigits, digits("Clerk#", 1, 1, 2, 0, 1, 2, 3)),
		"packed-float": oneColumn(KindFloat, 8, eight, encPacked, varint(one), []byte{2}, packBits(2, 0, 1, 2, 3, 0, 1, 2, 3)),
		"prefix-cap":   oneColumn(KindString, 4, []byte{0}, encPrefix, clerk(long[:maxPrefix], 2, "q1", "q2", "q3", "q4")),
		"uniform-int":  oneColumn(KindInt, 2, []byte{0}, encUniform, varint(10), varint(11)),
	}
	return refused, accepted
}

// TestCodecRefusesNonCanonicalColumns: every decode refuses a packed or
// prefix column Marshal would not write for its values, and a uniform one
// Marshal would write smaller, while the frames Marshal writes for the same
// values decode and re-encode to their own bytes.
func TestCodecRefusesNonCanonicalColumns(t *testing.T) {
	refused, accepted := nonCanonicalFrames()
	for name, data := range refused {
		_, err := Unmarshal(data)
		_, _, rowErr := rowDecode(data)
		_, streamErr := streamDecode(data, nil)
		if err == nil || rowErr == nil || streamErr == nil {
			t.Errorf("%s: Unmarshal err %v, row decode err %v, stream err %v: want all refused", name, err, rowErr, streamErr)
		}
	}
	for name, data := range accepted {
		rel, err := Unmarshal(data)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if _, _, err := rowDecode(data); err != nil {
			t.Errorf("%s: row decode: %v", name, err)
		}
		if again, err := Marshal(rel); err != nil || !bytes.Equal(again, data) {
			t.Errorf("%s: re-encoded to %x, want %x (%v)", name, again, data, err)
		}
	}
}

// TestCodecDigitsAgainstReference: random columns of digit strings behind
// shared prefixes — widths around maxDigits and maxDigitPrefix, leading
// digits shared or not, NULLs, a stray non-digit or a value of another width
// now and then — are written in the form the reference row decode holds
// them to, decode to their rows and re-encode to their own bytes.
func TestCodecDigitsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	digitsSeen := 0
	for iter := 0; iter < 4000; iter++ {
		prefix := strings.Repeat("C#0", 14)[:rng.Intn(41)]
		width, lead := 1+rng.Intn(20), strings.Repeat("7", rng.Intn(4))
		r := New(MustSchema(Column{"k", KindString}))
		for i, rows := 0, 1+rng.Intn(40); i < rows; i++ {
			b := []byte(lead)
			for len(b) < width {
				b = append(b, byte('0'+rng.Intn(10)))
			}
			switch rng.Intn(60) {
			case 0:
				b[rng.Intn(len(b))] = 'x'
			case 1:
				b = append(b, '1')
			case 2:
				r.MustAppend(Tuple{Null})
				continue
			}
			r.MustAppend(Tuple{NewString(prefix + string(b[:max(width, len(b))]))})
		}
		data, err := Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if enc, _ := columnEncoding(t, r); enc == encDigits {
			digitsSeen++
		}
		got, err := Unmarshal(data)
		if err != nil || !relIdentical(got, r) {
			t.Fatalf("%v: decoded %v (%v)", r.Rows(), got, err)
		}
		if _, rows, err := rowDecode(data); err != nil || !rowsIdentical(rows, r.Rows()) {
			t.Fatalf("%v: the reference row decode: %v", r.Rows(), err)
		}
		if again, err := Marshal(got); err != nil || !bytes.Equal(again, data) {
			t.Fatalf("%v: re-encoded to other bytes (%v)", r.Rows(), err)
		}
	}
	if digitsSeen < 1000 {
		t.Errorf("only %d of the columns were written as digits", digitsSeen)
	}
}

// worstCaseFrames are the frames the packed, prefix and digits encodings
// decode to the most bytes per byte read: a prefix column at maxPrefix with
// one-byte suffixes, a packed INT or FLOAT column of one repeated value,
// w = 0, and a digits column at maxDigitPrefix with 18-digit suffixes one
// bit apart.
func worstCaseFrames() map[string][]byte {
	const rows = 1 << 13
	prefix := append(AppendString(nil, strings.Repeat("w", maxPrefix)), 1)
	suffixes := bytes.Repeat([]byte{'a', 'b'}, rows/2)
	digits := slices.Concat(AppendString(nil, strings.Repeat("w", maxDigitPrefix)), uvarint(maxDigits),
		varint(99999999999999999), []byte{1}, bytes.Repeat([]byte{0xaa}, rows/8))
	return map[string][]byte{
		"prefix-at-cap":    oneColumn(KindString, rows, make([]byte, rows/8), encPrefix, prefix, suffixes),
		"packed-w0":        oneColumn(KindInt, rows, make([]byte, rows/8), encPacked, varint(-7), []byte{0}),
		"packed-float-w0":  oneColumn(KindFloat, rows, make([]byte, rows/8), encPacked, varint(int64(math.Float64bits(1234.5))), []byte{0}),
		"digits-at-cap-w1": oneColumn(KindString, rows, make([]byte, rows/8), encDigits, digits),
	}
}

// TestDecodeAllocationAtTheWorstCase: the frames that decode to the most
// bytes per byte read stay within the bound the fuzz target holds every
// decode to, on the heap and into slabs of any size: empty ones, ones grown
// to the frame, and grown ones too full to hold it.
func TestDecodeAllocationAtTheWorstCase(t *testing.T) {
	for name, data := range worstCaseFrames() {
		limit := decodeAllocPerByte*uint64(len(data)) + decodeAllocConst
		var rel *Relation
		var err error
		n := allocatedBy(func() { rel, err = Unmarshal(data) })
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rows := allocatedBy(func() { _, _, err = rowDecode(data) })
		if err != nil {
			t.Fatalf("%s: row decode: %v", name, err)
		}
		if n > limit || rows > limit {
			t.Errorf("%s: %d bytes decoded with %d bytes, rows with %d: above %d", name, len(data), n, rows, limit)
		}
		var s Slabs
		for _, step := range []string{"empty", "grown", "full"} {
			if step == "grown" {
				s.Reset()
			}
			if n := allocatedBy(func() { _, err = NewCursor(data).Relation(&s) }); err != nil || n > limit {
				t.Errorf("%s: decoded into %s slabs with %d bytes, above %d (%v)", name, step, n, limit, err)
			}
		}
		t.Logf("%s: %d rows from %d bytes: Unmarshal %.0f, row decode %.0f bytes per byte", name, rel.Len(), len(data),
			float64(n)/float64(len(data)), float64(rows)/float64(len(data)))
	}
}

// TestCodecKeepsDigitsCodesPerColumn: the digits codes stringShape parses are
// the ones appendPacked writes. In one frame of several STRING columns — a
// digits column whose prefix shortens as its values come, one that reads as
// digits for a while and then does not, a falling digits column and one
// with NULLs — each digits column's codes are its suffixes' values in row order,
// and the frame decodes to the relation, whether Marshal writes it or an
// Encoder that has written another frame before. The Encoder keeps its codes
// buffer for the next frame, as it keeps its body, up to trustedBody bytes.
func TestCodecKeepsDigitsCodesPerColumn(t *testing.T) {
	build := func(n, step int) *Relation {
		r := New(MustSchema(Column{"shrinking", KindString}, Column{"stops", KindString}, Column{"n", KindInt},
			Column{"falling", KindString}, Column{"nulls", KindString}))
		for i := 0; i < n; i++ {
			stops, nulls := NewString(fmt.Sprintf("K%03d", i)), NewString(fmt.Sprintf("%06d", i*i*step))
			if i == n-3 {
				stops = NewString("K12x")
			}
			if i%3 == 1 {
				nulls = Null
			}
			r.MustAppend(Tuple{NewString(fmt.Sprintf("C#%04d", i*step)), stops, NewInt(int64(i)),
				NewString(fmt.Sprintf("Z%05d", 99999-i*step)), nulls})
		}
		return r
	}
	r := build(40, 37)
	var codes []uint64
	for j, s := range shapesOf(nil, r.Columns(), &codes) {
		if want := j != 1 && j != 2; (s.enc == encDigits) != want {
			t.Fatalf("column %s: encoding %#x, digits %v", r.Schema[j].Name, s.enc, want)
		}
		if s.enc != encDigits {
			continue
		}
		var want []uint64
		for _, row := range r.Rows() {
			if v := row[j]; !v.IsNull() {
				x, err := strconv.ParseUint(v.Str[len(s.prefix):], 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, x)
			}
		}
		if !slices.Equal(s.codes, want) {
			t.Errorf("column %s: codes %v, want %v", r.Schema[j].Name, s.codes, want)
		}
	}
	data, err := Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := Unmarshal(data); err != nil || !relIdentical(got, r) {
		t.Fatalf("decoded %v (%v)", got, err)
	}
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	if err := enc.Encode(build(70, 3)); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	enc.Reset()
	if err := enc.Encode(r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Error("an Encoder that wrote a frame before writes other bytes than Marshal")
	}
	if cap(enc.codes) == 0 {
		t.Error("the Encoder keeps no codes buffer")
	}
	// The codes of more than trustedBody bytes are not kept.
	huge := New(MustSchema(Column{"d", KindString}))
	for i := 0; i <= trustedBody/8; i++ {
		huge.MustAppend(Tuple{NewString(fmt.Sprintf("D%07d", i))})
	}
	if err := enc.Encode(huge); err != nil {
		t.Fatal(err)
	}
	if cap(enc.codes) != 0 {
		t.Errorf("after %d digits values the Encoder keeps %d codes", huge.Len(), cap(enc.codes))
	}
}
