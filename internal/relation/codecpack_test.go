package relation

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strings"
	"testing"
)

// packCases are relations whose columns meet the packed INT and prefix
// STRING encodings at their edges, round-tripped with the other codecCases.
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
	// A boxed vector whose cells are all of its kind is written as the typed
	// vector of those cells is.
	boxedInts, boxedStrs := NewVector(KindInt, 6), NewVector(KindString, 6)
	boxedInts.Set(0, 6, NewFloat(1.5))
	boxedStrs.Set(0, 6, NewInt(1))
	for i := 0; i < 6; i++ {
		boxedInts.Set(i, 6, NewInt(int64(500+i)))
		boxedStrs.Set(i, 6, NewString(fmt.Sprintf("row-%03d", i)))
	}
	boxedInts.SetNull(3, 6)
	boxed := FromColumns(MustSchema(Column{"i", KindInt}, Column{"s", KindString}),
		&Columns{Rows: 6, Vecs: []Vector{boxedInts, boxedStrs}})

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
		"boxed-typed-cells": boxed,
	}
}

// The reference sizes below read the non-NULL cells of column j of rows in
// place: a row decode allocates no copy of a column.

// intSpread is the least and greatest INT cell of column j of rows, and how
// many cells are not NULL.
func intSpread(rows []Tuple, j int) (lo, hi int64, n int) {
	for _, t := range rows {
		if v := t[j]; !v.IsNull() {
			if n == 0 {
				lo, hi = v.Int, v.Int
			}
			lo, hi, n = min(lo, v.Int), max(hi, v.Int), n+1
		}
	}
	return lo, hi, n
}

// refPackedSize is the bytes past its encoding byte of column j of rows
// packed as Marshal packs it, or MaxInt when every cell is NULL.
func refPackedSize(rows []Tuple, j int) int {
	lo, hi, n := intSpread(rows, j)
	if n == 0 {
		return math.MaxInt
	}
	w := bits.Len64(uint64(hi) - uint64(lo))
	return len(binary.AppendVarint(nil, lo)) + 1 + (n*w+7)/8
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

// uniformSize is the bytes past its encoding byte of the INT or STRING
// column j of rows written uniform.
func uniformSize(rows []Tuple, j int) int {
	size := 0
	for _, t := range rows {
		switch v := t[j]; v.Kind {
		case KindInt:
			size += len(binary.AppendVarint(nil, v.Int))
		case KindString:
			size += len(binary.AppendUvarint(nil, uint64(len(v.Str)))) + len(v.Str)
		}
	}
	return size
}

// readPackedRows reads column j of rows, written packed, bit by bit, and
// refuses it unless it is what Marshal writes for the values read: its min
// the least of them, its width the fewest bits their spread needs, its
// padding bits zero and its size below uniform's.
func readPackedRows(cur *Cursor, rows []Tuple, j int, bitmap []byte) error {
	nonNull := 0
	for i := range rows {
		if !isNullAt(bitmap, i) {
			nonNull++
		}
	}
	lo, err := cur.Varint()
	if err != nil {
		return err
	}
	w, err := cur.Byte()
	if err != nil {
		return err
	}
	if w > 64 {
		return fmt.Errorf("packed width %d", w)
	}
	raw, err := cur.Bytes((nonNull*int(w) + 7) / 8)
	if err != nil {
		return err
	}
	bit := func(k int) uint64 { return uint64(raw[k/8]>>(k%8)) & 1 }
	for k := nonNull * int(w); k < 8*len(raw); k++ {
		if bit(k) != 0 {
			return errors.New("packed padding bit set")
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
		t[j] = NewInt(int64(uint64(lo) + d))
	}
	least, most, n := intSpread(rows, j)
	switch {
	case n == 0:
		return errors.New("packed column without values")
	case least != lo:
		return fmt.Errorf("packed min %d, least value %d", lo, least)
	case bits.Len64(uint64(most)-uint64(least)) != int(w):
		return fmt.Errorf("packed width %d for a spread of %d bits", w, bits.Len64(uint64(most)-uint64(least)))
	case refPackedSize(rows, j) >= uniformSize(rows, j):
		return errors.New("packed column not smaller than uniform")
	}
	return nil
}

// readPrefixRows reads column j of rows, written as a prefix column, and
// refuses it unless it is what Marshal writes for the values read: its
// prefix their capped longest common one, its suffixes length-prefixed only
// when their widths differ or are all 0, and its size below uniform's.
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
	} {
		enc, payload := columnEncoding(t, cases[tc.name])
		if enc != tc.enc || !bytes.HasPrefix(payload, tc.head) {
			t.Errorf("%s: encoding %d, payload %x; want encoding %d, payload from %x", tc.name, enc, payload, tc.enc, tc.head)
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

// nonCanonicalFrames are frames the packed and prefix encodings refuse,
// each against a frame Marshal writes (accepted) for the same values.
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
	for _, s := range []string{"Clerk#1", "Clerk#2", "Clerk#3", "Clerk#4"} {
		uniformClerks = append(uniformClerks, AppendString(nil, s)...)
	}
	long := strings.Repeat("q", maxPrefix+1)
	padded := packBits(3, 0, 1, 2, 3, 4) // 15 bits: bit 15 pads
	padded[1] |= 0x80
	refused = map[string][]byte{
		"packed-min-not-attained":   oneColumn(KindInt, 8, eight, encPacked, varint(9), []byte{2}, packBits(2, 1, 2, 3, 3, 1, 2, 3, 3)),
		"packed-width-too-wide":     oneColumn(KindInt, 8, eight, encPacked, varint(10), []byte{3}, packBits(3, 0, 1, 2, 3, 0, 1, 2, 3)),
		"packed-width-above-64":     oneColumn(KindInt, 8, eight, encPacked, varint(10), []byte{65}, make([]byte, 65)),
		"packed-padding-set":        oneColumn(KindInt, 5, []byte{0}, encPacked, varint(10), []byte{3}, padded),
		"packed-wraps-past-max":     oneColumn(KindInt, 8, eight, encPacked, varint(math.MaxInt64-1), []byte{2}, packBits(2, 0, 1, 2, 3, 0, 1, 2, 3)),
		"packed-not-smaller":        oneColumn(KindInt, 2, []byte{0}, encPacked, varint(10), []byte{1}, packBits(1, 0, 1)),
		"uniform-int-packable":      oneColumn(KindInt, 8, eight, encUniform, uniformInts),
		"prefix-not-longest":        oneColumn(KindString, 4, []byte{0}, encPrefix, clerk("Clerk", 2, "#1", "#2", "#3", "#4")),
		"prefix-varying-one-width":  oneColumn(KindString, 4, []byte{0}, encPrefix, clerk("Clerk#", 0, "1", "2", "3", "4")),
		"prefix-not-smaller":        oneColumn(KindString, 1, []byte{0}, encPrefix, clerk("abc", 0, "")),
		"prefix-over-cap":           oneColumn(KindString, 4, []byte{0}, encPrefix, clerk(long, 1, "1", "2", "3", "4")),
		"uniform-string-prefixable": oneColumn(KindString, 4, []byte{0}, encUniform, uniformClerks),
	}
	accepted = map[string][]byte{
		"packed":      oneColumn(KindInt, 8, eight, encPacked, varint(10), []byte{2}, packBits(2, 0, 1, 2, 3, 0, 1, 2, 3)),
		"packed-5":    oneColumn(KindInt, 5, []byte{0}, encPacked, varint(10), []byte{3}, packBits(3, 0, 1, 2, 3, 4)),
		"prefix":      oneColumn(KindString, 4, []byte{0}, encPrefix, clerk("Clerk#", 1, "1", "2", "3", "4")),
		"prefix-cap":  oneColumn(KindString, 4, []byte{0}, encPrefix, clerk(long[:maxPrefix], 2, "q1", "q2", "q3", "q4")),
		"uniform-int": oneColumn(KindInt, 2, []byte{0}, encUniform, varint(10), varint(11)),
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
		_, streamErr := streamDecode(data)
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

// worstCaseFrames are the frames the packed and prefix encodings decode to
// the most bytes per byte read: a prefix column at maxPrefix with one-byte
// suffixes, and a packed column of one repeated value, w = 0.
func worstCaseFrames() map[string][]byte {
	const rows = 1 << 13
	prefix := append(AppendString(nil, strings.Repeat("w", maxPrefix)), 1)
	suffixes := bytes.Repeat([]byte{'a', 'b'}, rows/2)
	return map[string][]byte{
		"prefix-at-cap": oneColumn(KindString, rows, make([]byte, rows/8), encPrefix, prefix, suffixes),
		"packed-w0":     oneColumn(KindInt, rows, make([]byte, rows/8), encPacked, varint(-7), []byte{0}),
	}
}

// TestDecodeAllocationAtTheWorstCase: the frames that decode to the most
// bytes per byte read stay within the bound the fuzz target holds every
// decode to.
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
		t.Logf("%s: %d rows from %d bytes: Unmarshal %.0f, row decode %.0f bytes per byte", name, rel.Len(), len(data),
			float64(n)/float64(len(data)), float64(rows)/float64(len(data)))
	}
}
