package relation

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"skalla/internal/obs"
)

// This file implements the Skalla wire format: a hand-rolled, length-prefixed,
// column-major binary codec for relations, used on every data path (site
// messages, partition files, disk segments), because the bytes shipped per
// group are the primary cost of distributed query processing (Theorem 2).
// Its primitives — the FrameReader, the Cursor, strings, values and schemas —
// are exported for the site protocol's envelope (internal/transport), which
// frames its messages the same way.
//
// Stream layout: a stream is a sequence of frames, each a uvarint body length
// followed by the body. A body starts with a frame kind byte:
//
//	frameInline — the relation's schema follows inline, then the rows
//	frameCached — the rows reuse the stream's previously sent schema
//
// An Encoder sends the schema once and switches to frameCached while the
// schema is unchanged, so a stream of H_i blocks pays for its schema exactly
// once. Rows are encoded column-major: a uvarint row count, then per column a
// NULL bitmap (bit set = NULL), an encoding byte and the non-NULL values:
//
//	uniform  — zigzag varints for INT, raw little-endian bits for FLOAT,
//	           length-prefixed bytes for STRING, packed bits for BOOL, no
//	           values for NULL
//	packed   — INT or FLOAT: varint(min), one byte w = bits.Len64(max−min)
//	           computed in uint64, then each value's x−min in w bits, least
//	           significant bit first, the last byte's padding bits zero; a
//	           FLOAT is packed as the int64 of its IEEE 754 bits, so NaN
//	           payloads, ±0, ±Inf and subnormals round-trip bit for bit
//	prefix   — STRING: the values' longest common prefix, length-prefixed
//	           and capped at maxPrefix bytes, then uvarint(width) and each
//	           value's suffix: width bytes when every suffix has that width
//	           (width > 0), else length-prefixed (width 0)
//	digits   — STRING: a prefix column of at most maxDigitPrefix prefix
//	           bytes whose suffixes are all width decimal digits, 1 ≤ width
//	           ≤ maxDigits: the prefix and uvarint(width) as prefix writes
//	           them, then the suffixes' values packed; a value decodes to
//	           the prefix and its width zero-padded digits
//
// Every value is of its column's kind: a frame carries no other form (the
// tagged "mixed" form of protocol versions before 7 is refused). The encoder
// picks packed, prefix or digits for a column only when it is
// strictly smaller than every form it would write otherwise (colShape), and
// the decoder holds every INT, FLOAT and STRING column to that choice: a min
// that no value attains, a w wider than the values need, set padding bits, a
// prefix shorter than the common one (and not at the cap), length prefixes
// over suffixes of one nonzero width, a digit value wider than its width, a
// form no smaller than the one the values would otherwise get, and a uniform
// or prefix column a smaller form would have beaten are all refused. So a
// frame that decodes re-encodes to its own bytes. Every encoding keeps the
// per-column bitmap: it is what bounds a frame's row count by its size
// (frameRows), and so what bounds the decoder's allocation per byte read.

const (
	frameInline = 0x01
	frameCached = 0x02

	// maxFrameBody bounds a single frame (1 GiB) so a corrupt length prefix
	// cannot drive an unbounded allocation.
	maxFrameBody = 1 << 30

	// trustedBody is how much of a frame's declared length the decoder
	// allocates before the bytes arrive; past it the buffer grows with the
	// data, so a length prefix alone cannot allocate up to maxFrameBody.
	trustedBody = 1 << 20
)

// MaxEmptyRows bounds the row count of a frame without columns, whose rows
// occupy no bytes the decoder could check the count against.
const MaxEmptyRows = 1 << 16

// ErrFrameLength reports a frame length prefix that is past maxFrameBody or
// not minimally encoded.
var ErrFrameLength = errors.New("relation: bad codec frame length")

const (
	encUniform = 0x00
	encPacked  = 0x02
	encPrefix  = 0x03
	encDigits  = 0x04
)

// maxPrefix caps a prefix column's shared prefix. Every value it prefixes
// costs at least one byte of the frame, so the cap bounds how many bytes a
// decode builds per byte it reads.
const maxPrefix = 255

// A digits column's suffixes are at most maxDigits decimal digits, whose
// values fit an int64, and its prefix at most maxDigitPrefix bytes. A value
// costs the frame as little as two bits, its bitmap bit and one packed bit,
// so the prefix cap is what bounds the bytes a decode builds per byte read.
// Below maxPrefix the prefix is the values' whole common one, so their
// suffixes differ and are never packed in zero bits.
const (
	maxDigits      = 18
	maxDigitPrefix = 32
)

// ByteScanner is the reader a Decoder consumes: bytes.Buffer, bytes.Reader
// and bufio.Reader all satisfy it, which lets a Decoder share a buffered
// connection reader with other protocol layers without read-ahead conflicts.
type ByteScanner interface {
	io.Reader
	io.ByteReader
}

// Encoder writes relations in the Skalla wire format. The schema is emitted
// inline on the first frame and whenever it changes; in between, frames carry
// only row data. The zero-allocation steady state reuses one scratch body,
// and one buffer of the digits columns' codes, kept across frames and across
// streams (Reset) up to trustedBody of each, so a connection that once sent
// a huge block does not hold its buffers.
type Encoder struct {
	w         io.Writer
	schema    Schema
	hasSchema bool
	body      []byte
	shapes    []colShape
	codes     []uint64
	bytes     int64
	lenBuf    [binary.MaxVarintLen64]byte
}

// NewEncoder creates an encoder writing to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// Reset starts a new stream on the encoder's writer: the next frame carries
// its schema inline again and Bytes counts from zero, so the stream's frames
// are the bytes a fresh Encoder writes. The body buffer is kept.
func (e *Encoder) Reset() {
	e.schema, e.hasSchema, e.bytes = nil, false, 0
}

// Bytes returns the total bytes this encoder has written (frame headers
// included) — the per-stream counterpart of the process-wide
// CodecEncodeBytes counter, used for per-query codec accounting.
func (e *Encoder) Bytes() int64 { return e.bytes }

// Encode writes one relation frame.
func (e *Encoder) Encode(r *Relation) error {
	if err := checkArity(r); err != nil {
		return err
	}
	body := e.body[:0]
	if e.hasSchema && e.schema.Equal(r.Schema) {
		body = append(body, frameCached)
	} else {
		body = append(body, frameInline)
		body = AppendSchema(body, r.Schema)
		e.schema = r.Schema.Clone() // callers may mutate their schema later
		e.hasSchema = true
	}
	e.shapes = shapesOf(e.shapes[:0], r.cols, &e.codes)
	body = appendVectors(body, r.cols, e.shapes)
	clear(e.shapes) // they point into r
	if e.body = KeepBody(body); 8*cap(e.codes) > trustedBody {
		e.codes = nil
	}
	n := binary.PutUvarint(e.lenBuf[:], uint64(len(body)))
	if _, err := e.w.Write(e.lenBuf[:n]); err != nil {
		return err
	}
	if _, err := e.w.Write(body); err != nil {
		return err
	}
	e.bytes += int64(n + len(body))
	obs.CodecEncodeBytes.Add(int64(n + len(body)))
	obs.CodecFrames.With("encode").Inc()
	return nil
}

// checkArity refuses a relation whose vectors disagree with its schema, which
// the column-major encoding would index out of range on, and a BOOL vector
// holding a payload other than 0 or 1 (*ErrOffKind), which it would not
// round-trip.
func checkArity(r *Relation) error {
	c := r.cols
	if len(c.Vecs) != len(r.Schema) {
		return fmt.Errorf("relation: vector arity %d does not match schema %s", len(c.Vecs), r.Schema)
	}
	for j, col := range r.Schema {
		v := &c.Vecs[j]
		if v.Kind != col.Kind {
			return fmt.Errorf("relation: vector %d is not a %s vector", j, col.Kind)
		}
		for i := 0; col.Kind == KindBool && i < len(v.Ints); i++ {
			if v.Ints[i]>>1 != 0 && !v.Null(i) {
				return &ErrOffKind{Column: col.Name, Row: i, Kind: KindBool, Cell: Value{Kind: KindBool, Int: v.Ints[i]}}
			}
		}
	}
	return nil
}

// AppendSchema appends s as a frame carries it inline.
func AppendSchema(body []byte, s Schema) []byte {
	body = binary.AppendUvarint(body, uint64(len(s)))
	for _, c := range s {
		body = AppendString(body, c.Name)
		body = append(body, byte(c.Kind))
	}
	return body
}

var zeroBytes [256]byte

func appendZeros(body []byte, n int) []byte {
	for n > len(zeroBytes) {
		body = append(body, zeroBytes[:]...)
		n -= len(zeroBytes)
	}
	return append(body, zeroBytes[:n]...)
}

// appendBools appends the non-NULL values of the BOOL vector v as packed
// bits, least significant bit first, in the nb bytes they take.
func appendBools(body []byte, v *Vector, nb int) []byte {
	packed, k := len(body), 0
	body = appendZeros(body, nb)
	for i, x := range v.Ints {
		if !v.Null(i) {
			body[packed+k/8] |= byte(x) << (k % 8)
			k++
		}
	}
	return body
}

// appendVectors appends a frame's rows, column-major, each column as its
// shape says.
func appendVectors(body []byte, c *Columns, shapes []colShape) []byte {
	n := c.Rows
	body = binary.AppendUvarint(body, uint64(n))
	nb := (n + 7) / 8
	for j := range c.Vecs {
		v, s := &c.Vecs[j], &shapes[j]
		if v.Nulls == nil {
			body = appendZeros(body, nb)
		} else {
			for k := 0; k < nb; k++ {
				body = append(body, byte(v.Nulls[k>>3]>>(8*(k&7))))
			}
		}
		body = append(body, s.enc)
		switch {
		case s.enc == encPacked:
			body = appendPacked(body, v, s)
		case s.enc == encPrefix:
			body = appendPrefixed(body, v, s.prefix, s.width)
		case s.enc == encDigits:
			body = binary.AppendUvarint(AppendString(body, s.prefix), uint64(s.width))
			body = appendPacked(body, v, s)
		case v.Kind == KindInt:
			for i, x := range v.Ints {
				if !v.Null(i) {
					body = binary.AppendVarint(body, x)
				}
			}
		case v.Kind == KindFloat:
			for i, x := range v.Floats {
				if !v.Null(i) {
					body = binary.LittleEndian.AppendUint64(body, math.Float64bits(x))
				}
			}
		case v.Kind == KindString:
			for i, code := range v.Codes {
				if !v.Null(i) {
					body = AppendString(body, v.Dict[code])
				}
			}
		case v.Kind == KindBool:
			body = appendBools(body, v, s.size-1)
		}
	}
	return body
}

// appendPacked appends the non-NULL values of v packed as its shape s says:
// s.min, s.bits, then each value's code x−min in s.bits bits, least
// significant bit first; the last byte's padding bits are zero. The code of
// an INT is the INT, of a FLOAT the int64 of its bits, and of a digits
// column's STRING the decimal value of its suffix, which stringShape parsed
// into s.codes. Each kind has its own loop, so the pending bits stay in
// registers.
func appendPacked(body []byte, v *Vector, s *colShape) []byte {
	body = append(binary.AppendVarint(body, s.min), byte(s.bits))
	lo, w := uint64(s.min), s.bits
	var acc uint64 // the bits not yet appended, k of them
	k := 0
	switch v.Kind {
	case KindInt:
		for i, x := range v.Ints {
			if v.Null(i) {
				continue
			}
			d := uint64(x) - lo
			if acc |= d << k; k+w < 64 {
				k += w
				continue
			}
			body = binary.LittleEndian.AppendUint64(body, acc)
			acc, k = d>>(64-k), k+w-64 // d>>64 is 0
		}
	case KindFloat:
		for i, x := range v.Floats {
			if v.Null(i) {
				continue
			}
			d := math.Float64bits(x) - lo
			if acc |= d << k; k+w < 64 {
				k += w
				continue
			}
			body = binary.LittleEndian.AppendUint64(body, acc)
			acc, k = d>>(64-k), k+w-64
		}
	case KindString:
		for _, d := range s.codes {
			d -= lo
			if acc |= d << k; k+w < 64 {
				k += w
				continue
			}
			body = binary.LittleEndian.AppendUint64(body, acc)
			acc, k = d>>(64-k), k+w-64
		}
	}
	for ; k > 0; k -= 8 {
		body = append(body, byte(acc))
		acc >>= 8
	}
	return body
}

// appendPrefixed appends the non-NULL values of the STRING vector v as their
// shared prefix, then each value's suffix: width bytes each, or each
// length-prefixed when width is 0.
func appendPrefixed(body []byte, v *Vector, prefix string, width int) []byte {
	body = binary.AppendUvarint(AppendString(body, prefix), uint64(width))
	for i, code := range v.Codes {
		if v.Null(i) {
			continue
		}
		suffix := v.Dict[code][len(prefix):]
		if width == 0 {
			body = binary.AppendUvarint(body, uint64(len(suffix)))
		}
		body = append(body, suffix...)
	}
	return body
}

// colShape is how a frame writes one column: its encoding, what that
// encoding needs, and the column's bytes past its NULL bitmap. shapesOf
// chooses it from the column's values once per frame, and the frame's exact
// size and its bytes both read it; a decoder recomputes it for an INT, FLOAT
// or STRING column to check that the column is written as the encoder writes
// it.
type colShape struct {
	enc    byte
	size   int      // the bytes past the bitmap, the encoding byte included
	min    int64    // packed, digits: the least code, the frame of reference
	bits   int      // packed, digits: the bits a code
	width  int      // prefix, digits: the bytes a suffix, 0 when they vary
	prefix string   // prefix, digits: the longest common prefix, capped at maxPrefix
	codes  []uint64 // digits: each non-NULL value's code, in row order
}

// shapesOf appends the shape of each of c's vectors to dst, keeping the
// digits columns' codes in *codes, emptied first (stringShape).
func shapesOf(dst []colShape, c *Columns, codes *[]uint64) []colShape {
	*codes = (*codes)[:0]
	for j := range c.Vecs {
		dst = append(dst, shapeOf(&c.Vecs[j], codes))
	}
	return dst
}

// codesPool lends Marshal and AppendFrame a codes buffer, taking back one
// of up to trustedBody bytes.
var codesPool FreeList[[]uint64]

// shapeOf is how a frame writes the vector v, keeping a digits
// column's codes in *codes unless codes is nil.
func shapeOf(v *Vector, codes *[]uint64) colShape {
	switch v.Kind {
	case KindInt:
		return intShape(v)
	case KindFloat:
		return floatShape(v)
	case KindString:
		return stringShape(v, codes)
	case KindBool:
		n := len(v.Ints)
		for _, w := range v.Nulls {
			n -= bits.OnesCount64(w)
		}
		return colShape{enc: encUniform, size: 1 + (n+7)/8}
	}
	return colShape{enc: encUniform, size: 1} // NULL-kind: no values
}

// intShape writes the INT vector v packed when that is smaller than uniform.
func intShape(v *Vector) colShape {
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	n, uniform := 0, 0
	for i, x := range v.Ints {
		if v.Null(i) {
			continue
		}
		lo, hi = min(lo, x), max(hi, x)
		n++
		uniform += varintLen(x)
	}
	return packIfSmaller(colShape{enc: encUniform, size: 1 + uniform}, lo, hi, n)
}

// floatShape writes the FLOAT vector v packed, as the int64s of its values'
// bits, when that is smaller than uniform. A negative value's code is its
// magnitude's bits minus 2^63, so a column of both signs spans at least 2^63
// codes, w = 64, and stays uniform, unless every positive value is smaller
// in magnitude than every negative one.
func floatShape(v *Vector) colShape {
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	n := 0
	for i, x := range v.Floats {
		if v.Null(i) {
			continue
		}
		code := int64(math.Float64bits(x))
		lo, hi = min(lo, code), max(hi, code)
		n++
	}
	return floatCodesShape(lo, hi, n)
}

// floatCodesShape is how a frame writes n FLOATs whose codes run from lo to
// hi.
func floatCodesShape(lo, hi int64, n int) colShape {
	return packIfSmaller(colShape{enc: encUniform, size: 1 + 8*n}, lo, hi, n)
}

// packIfSmaller is the packed shape of n > 0 codes from lo to hi when it is
// smaller than s, else s.
func packIfSmaller(s colShape, lo, hi int64, n int) colShape {
	w := bits.Len64(uint64(hi) - uint64(lo))
	if packed := 1 + packedSize(lo, w, n); n > 0 && packed < s.size {
		return colShape{enc: encPacked, size: packed, min: lo, bits: w}
	}
	return s
}

// packedSize is the bytes of n codes packed above lo in w bits each.
func packedSize(lo int64, w, n int) int { return varintLen(lo) + 1 + (n*w+7)/8 }

// stringShape writes the STRING vector v as a prefix or digits column when
// that is smaller than uniform. One pass finds the values' longest common
// prefix and, while their suffixes past it are decimal digits of one width,
// the least and greatest suffix value: when the prefix shortens, every
// earlier suffix gains the same leading digits, so both move by one amount.
// Unless codes is nil, the suffix values are kept as they are parsed, each
// less the shift so far, and a digits shape's codes, appended to *codes, are
// them with the final shift added.
func stringShape(v *Vector, codes *[]uint64) colShape {
	var prefix string
	n, total, uniform := 0, 0, 0
	length := -1 // every value's length, -1 once two differ
	digits, lo, hi := true, uint64(math.MaxUint64), uint64(0)
	shifted := uint64(0) // what the prefix's shortenings added to lo and hi
	var kept []uint64    // *codes, then the suffix values
	if codes != nil {
		kept = *codes
	}
	for i, code := range v.Codes {
		if v.Null(i) {
			continue
		}
		s := v.Dict[code]
		if n == 0 {
			prefix, length = s[:min(len(s), maxPrefix)], len(s)
		} else {
			if !strings.HasPrefix(s, prefix) {
				cut := commonPrefix(prefix, s)
				if digits {
					lead, ok := suffixValue(prefix[cut:], len(prefix)-cut)
					shift := lead * pow10[length-len(prefix)]
					lo, hi, digits = lo+shift, hi+shift, ok && length-cut <= maxDigits
					shifted += shift
				}
				prefix = prefix[:cut]
			}
			if len(s) != length {
				length, digits = -1, false
			}
		}
		if digits = digits && length-len(prefix) <= maxDigits; digits {
			x, ok := suffixValue(s, length-len(prefix))
			lo, hi, digits = min(lo, x), max(hi, x), ok
			if codes != nil {
				kept = append(kept, x-shifted)
			}
		}
		n++
		total += len(s)
		uniform += uvarintLen(uint64(len(s))) + len(s)
	}
	if codes != nil {
		*codes = kept[:len(*codes)] // grown, without this column's values
	}
	s := colShape{enc: encUniform, size: 1 + uniform}
	p := len(prefix)
	size, width := 1+uvarintLen(uint64(p))+p, 0
	switch {
	case n == 0:
		return s
	case length > p:
		width = length - p
		size += uvarintLen(uint64(width)) + n*width
	case p == 0:
		return s // length-prefixed suffixes are the uniform values, and more
	default:
		size += 1 + total - n*p
		for i, code := range v.Codes {
			if !v.Null(i) {
				size += uvarintLen(uint64(len(v.Dict[code]) - p))
			}
		}
	}
	if size < s.size {
		s = colShape{enc: encPrefix, size: size, width: width, prefix: prefix}
	}
	if digits && width > 0 && p <= maxDigitPrefix {
		s = digitsIfSmaller(s, prefix, width, n, lo, hi)
	}
	if s.enc == encDigits && codes != nil {
		*codes, s.codes = kept, kept[len(kept)-n:]
		for i := range s.codes {
			s.codes[i] += shifted
		}
	}
	return s
}

// suffixValue is the decimal value of the last width bytes of s, and false
// when one of them is not an ASCII digit.
func suffixValue(s string, width int) (uint64, bool) {
	var x uint64
	for _, c := range []byte(s[len(s)-width:]) {
		if c-'0' > 9 {
			return 0, false
		}
		x = 10*x + uint64(c-'0')
	}
	return x, true
}

// digitsIfSmaller is the digits shape of n values that share prefix and
// whose suffixes, width decimal digits each, have values from lo to hi, when
// it is smaller than s, else s.
func digitsIfSmaller(s colShape, prefix string, width, n int, lo, hi uint64) colShape {
	p, w := len(prefix), bits.Len64(hi-lo)
	if size := 1 + uvarintLen(uint64(p)) + p + uvarintLen(uint64(width)) + packedSize(int64(lo), w, n); size < s.size {
		return colShape{enc: encDigits, size: size, min: int64(lo), bits: w, width: width, prefix: prefix}
	}
	return s
}

// commonPrefix is the length of a and b's longest common prefix.
func commonPrefix(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// varintLen is the encoded size of x as a zigzag varint.
func varintLen(x int64) int { return uvarintLen(uint64(x)<<1 ^ uint64(x>>63)) }

// Decoder reads relations written by an Encoder, caching the stream schema
// across frames and reading every frame body into one reused buffer. Frames
// decode as Unmarshal decodes them, into vectors built on the heap or in the
// Slabs Decode is lent. Nothing decoded points into the buffer.
type Decoder struct {
	frames    FrameReader
	schema    Schema
	hasSchema bool
}

// NewDecoder creates a decoder reading from r.
func NewDecoder(r ByteScanner) *Decoder { return &Decoder{frames: FrameReader{r: r}} }

// Reset starts a new stream on the decoder's reader: a frame that reuses a
// schema before one was sent inline is refused again, as a fresh Decoder
// refuses it. The body buffer is kept.
func (d *Decoder) Reset() {
	d.schema, d.hasSchema = nil, false
}

// Decode reads one relation frame, its vectors built in s (nil: the heap).
// It returns io.EOF (possibly wrapped as io.ErrUnexpectedEOF mid-frame) when
// the stream ends.
func (d *Decoder) Decode(s *Slabs) (*Relation, error) {
	body, err := d.frames.Next()
	if err != nil {
		return nil, err
	}
	return d.decodeFrame(body, s)
}

// FrameReader reads length-prefixed frames — a uvarint body length, then the
// body — into one reused buffer, kept up to trustedBody of it. The relation
// codec's frames and the site protocol's messages are both read through it,
// under one bound.
type FrameReader struct {
	r    ByteScanner
	body []byte
}

// NewFrameReader creates a frame reader over r.
func NewFrameReader(r ByteScanner) *FrameReader { return &FrameReader{r: r} }

// Next reads one frame and returns its body, valid until the next call. It
// returns io.EOF when the stream ends between frames.
func (f *FrameReader) Next() ([]byte, error) {
	var ln uint64
	for shift := 0; ; shift += 7 {
		b, err := f.r.ReadByte()
		switch {
		case err == io.EOF && shift > 0:
			return nil, io.ErrUnexpectedEOF
		case err != nil:
			return nil, err
		case b == 0 && shift > 0:
			return nil, fmt.Errorf("%w: not minimally encoded", ErrFrameLength)
		}
		if ln |= uint64(b&0x7f) << shift; ln > maxFrameBody {
			return nil, fmt.Errorf("%w: %d bytes or more exceeds the limit", ErrFrameLength, ln)
		}
		if b < 0x80 {
			return f.readBody(int(ln))
		}
	}
}

// decodeFrame decodes one frame body into vectors built in s, read in place
// from body.
func (d *Decoder) decodeFrame(body []byte, s *Slabs) (*Relation, error) {
	cur := &Cursor{b: body}
	kind, err := cur.Byte()
	if err != nil {
		return nil, err
	}
	switch kind {
	case frameInline:
		schema, err := cur.Schema()
		if err != nil {
			return nil, err
		}
		if err := schema.Validate(); err != nil {
			return nil, err
		}
		d.schema, d.hasSchema = schema, true
	case frameCached:
		if !d.hasSchema {
			return nil, fmt.Errorf("relation: codec frame references schema before one was sent")
		}
	default:
		return nil, fmt.Errorf("relation: unknown codec frame kind 0x%02x", kind)
	}
	c, err := readVectors(cur, d.schema, s)
	if err != nil {
		return nil, err
	}
	if cur.pos != len(cur.b) {
		return nil, fmt.Errorf("relation: codec frame has %d trailing bytes", len(cur.b)-cur.pos)
	}
	obs.CodecDecodeBytes.Add(int64(uvarintLen(uint64(len(body)))) + int64(len(body)))
	obs.CodecFrames.With("decode").Inc()
	return FromColumns(d.schema, c), nil
}

// readBody reads an n-byte frame body into the reader's reused buffer,
// growing it past trustedBody only by bytes that have arrived: a stream that
// ends early fails with io.ErrUnexpectedEOF having allocated about what it
// sent.
func (f *FrameReader) readBody(n int) ([]byte, error) {
	body := f.body[:0]
	for len(body) < n {
		if len(body) == cap(body) {
			body = slices.Grow(body, min(n, max(2*len(body), trustedBody))-len(body))
		}
		got, err := io.ReadFull(f.r, body[len(body):min(n, cap(body))])
		body = body[:len(body)+got]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	f.body = KeepBody(body)
	return body, nil
}

// KeepBody is what a reused buffer keeps of body for its next frame or
// message: its capacity, up to trustedBody of it. A larger one is dropped, so
// one huge frame does not pin its buffer for the rest of the stream or
// connection.
func KeepBody(body []byte) []byte {
	if cap(body) > trustedBody {
		return nil
	}
	return body[:0]
}

// uvarintLen is the encoded size of v as a uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// Cursor is a bounds-checked reader over a frame body. It accepts only the
// minimal encoding of every varint (one whose last byte is not a zero
// continuation), so a body that decodes re-encodes to the same bytes; its
// counts are capped before anything is allocated for them.
type Cursor struct {
	b   []byte
	pos int
}

// NewCursor returns a cursor at the start of b.
func NewCursor(b []byte) *Cursor { return &Cursor{b: b} }

// Len is the number of bytes left.
func (c *Cursor) Len() int { return len(c.b) - c.pos }

var errShortFrame = fmt.Errorf("relation: truncated codec frame")

var errOverlongVarint = fmt.Errorf("relation: codec varint not minimally encoded")

// Byte reads one byte.
func (c *Cursor) Byte() (byte, error) {
	if c.pos >= len(c.b) {
		return 0, errShortFrame
	}
	v := c.b[c.pos]
	c.pos++
	return v, nil
}

// Uvarint reads an unsigned varint.
func (c *Cursor) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.pos:])
	if n <= 0 {
		return 0, errShortFrame
	}
	if n > 1 && c.b[c.pos+n-1] == 0 {
		return 0, errOverlongVarint
	}
	c.pos += n
	return v, nil
}

// Varint reads a zigzag-encoded signed varint.
func (c *Cursor) Varint() (int64, error) {
	v, n := binary.Varint(c.b[c.pos:])
	if n <= 0 {
		return 0, errShortFrame
	}
	if n > 1 && c.b[c.pos+n-1] == 0 {
		return 0, errOverlongVarint
	}
	c.pos += n
	return v, nil
}

// Bytes reads the next n bytes in place.
func (c *Cursor) Bytes(n int) ([]byte, error) {
	if n < 0 || c.pos+n > len(c.b) {
		return nil, errShortFrame
	}
	v := c.b[c.pos : c.pos+n]
	c.pos += n
	return v, nil
}

// Count reads a uvarint count and refuses one above limit.
func (c *Cursor) Count(limit int, what string) (int, error) {
	v, err := c.Uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(limit) {
		return 0, fmt.Errorf("relation: codec %s count %d exceeds limit %d", what, v, limit)
	}
	return int(v), nil
}

// AppendString appends s length-prefixed, as the codec writes STRING values.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// String reads a string written by AppendString.
func (c *Cursor) Str() (string, error) {
	n, err := c.Count(c.Len(), "string length")
	if err != nil {
		return "", err
	}
	raw, err := c.Bytes(n)
	return string(raw), err
}

// AppendValue appends v tagged with its kind, as the site protocol writes a
// scalar; a NULL is its tag alone.
func AppendValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.Kind))
	switch v.Kind {
	case KindInt, KindBool:
		dst = binary.AppendVarint(dst, v.Int)
	case KindFloat:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float))
	case KindString:
		dst = AppendString(dst, v.Str)
	}
	return dst
}

// Value reads a value written by AppendValue.
func (c *Cursor) Value() (Value, error) {
	kind, err := c.Byte()
	if err != nil {
		return Null, err
	}
	switch Kind(kind) {
	case KindNull:
		return Null, nil
	case KindInt, KindBool:
		v, err := c.Varint()
		return Value{Kind: Kind(kind), Int: v}, err
	case KindFloat:
		raw, err := c.Bytes(8)
		if err != nil {
			return Null, err
		}
		return Value{Kind: KindFloat, Float: math.Float64frombits(binary.LittleEndian.Uint64(raw))}, nil
	case KindString:
		s, err := c.Str()
		return Value{Kind: KindString, Str: s}, err
	}
	return Null, fmt.Errorf("relation: codec value with invalid kind %d", kind)
}

// Relation reads one self-contained relation frame, as Unmarshal does, its
// vectors built in s (nil: the heap). A zero length, which no frame has,
// reads as no relation.
func (c *Cursor) Relation(s *Slabs) (*Relation, error) {
	start := c.pos
	n, err := c.Count(min(maxFrameBody, c.Len()), "frame length")
	if err != nil || n == 0 {
		return nil, err
	}
	if _, err := c.Bytes(n); err != nil {
		return nil, err
	}
	return unmarshal(c.b[start:c.pos], s)
}

// Schema reads a schema written by AppendSchema.
func (c *Cursor) Schema() (Schema, error) {
	// A column spends at least a name length and a kind byte, so the bytes
	// left bound the count before the schema is allocated.
	ncols, err := c.Count(min(1<<20, c.Len()/2), "column")
	if err != nil {
		return nil, err
	}
	schema := make(Schema, ncols)
	for i := range schema {
		name, err := c.Str()
		if err != nil {
			return nil, err
		}
		kind, err := c.Byte()
		if err != nil {
			return nil, err
		}
		if Kind(kind) > KindBool {
			return nil, fmt.Errorf("relation: codec schema column %d has unknown kind %d", i, kind)
		}
		schema[i] = Column{Name: name, Kind: Kind(kind)}
	}
	return schema, nil
}

// frameRows reads a frame's row count, refusing one the frame cannot hold
// before anything is allocated for it: every column spends a NULL-bitmap bit
// per row and an encoding byte.
func frameRows(cur *Cursor, cols int) (int, error) {
	nrows, err := cur.Count(maxFrameBody, "row")
	if err != nil {
		return 0, err
	}
	if cols == 0 && nrows > MaxEmptyRows || cols > 0 && ((nrows+7)/8+1)*cols > len(cur.b)-cur.pos {
		return 0, fmt.Errorf("relation: codec frame of %d bytes cannot hold %d rows of %d columns", len(cur.b), nrows, cols)
	}
	return nrows, nil
}

// readVectors decodes a frame's rows into vectors built in s, reading every
// value in place from the frame: a uniform or packed INT or FLOAT, uniform,
// prefix or digits STRING, uniform BOOL or NULL column into a vector of its
// kind, whose STRING bytes become one string its values are substrings of.
func readVectors(cur *Cursor, schema Schema, s *Slabs) (*Columns, error) {
	nrows, err := frameRows(cur, len(schema))
	if err != nil {
		return nil, err
	}
	c := &Columns{Rows: nrows, Vecs: s.vectors(len(schema))}
	nb := (nrows + 7) / 8
	for j, col := range schema {
		bitmap, err := readBitmap(cur, nrows, nb)
		if err != nil {
			return nil, err
		}
		enc, err := cur.Byte()
		if err != nil {
			return nil, err
		}
		switch {
		case enc == encUniform:
		case enc == encPacked && (col.Kind == KindInt || col.Kind == KindFloat),
			(enc == encPrefix || enc == encDigits) && col.Kind == KindString:
		default:
			return nil, fmt.Errorf("relation: codec column encoding 0x%02x is not one for %s", enc, col.Kind)
		}
		v := &c.Vecs[j]
		v.Kind = col.Kind
		if err := readVector(cur, v, nrows, bitmap, enc, s); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// readVector decodes one column of n rows, encoded enc, into v, whose Kind
// is set, its slices built in s. An INT, FLOAT or STRING column is refused
// unless enc and its parameters are the shape the encoder gives the values
// decoded (checkShape).
func readVector(cur *Cursor, v *Vector, n int, bitmap []byte, enc byte, s *Slabs) error {
	nonNull := n
	for k, b := range bitmap {
		if b == 0 {
			continue
		}
		if v.Nulls == nil {
			v.Nulls = s.bitmap((n + 63) / 64)
		}
		v.Nulls[k>>3] |= uint64(b) << (8 * (k & 7))
		nonNull -= bits.OnesCount8(b)
	}
	if v.Kind == KindBool {
		return readBools(cur, v, n, nonNull, s)
	}
	got := colShape{enc: enc}
	// want is the encoder's shape for the values, when the decode measured
	// what it needs; else it is recomputed from them.
	var want colShape
	measured := false
	var err error
	switch {
	case v.Kind == KindNull:
		if nonNull != 0 {
			return errNullColumnValue
		}
	case v.Kind == KindFloat:
		// A uniform FLOAT column is its codes packed above 0 in 64 bits.
		codes := packedCodes{w: 64, mask: math.MaxUint64}
		if enc == encPacked {
			codes, err = readPacked(cur, nonNull)
			got.min, got.bits = int64(codes.lo), codes.w
		} else {
			codes.raw, err = cur.Bytes(8 * nonNull)
		}
		if err != nil {
			return err
		}
		v.Floats = s.float64s(n)
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		off := 0
		for i := range v.Floats {
			if !v.Null(i) {
				x := codes.lo + bitsAt(codes.raw, off)&codes.mask
				off += codes.w
				v.Floats[i] = math.Float64frombits(x)
				lo, hi = min(lo, int64(x)), max(hi, int64(x))
			}
		}
		want, measured = floatCodesShape(lo, hi, nonNull), true
	case enc == encPacked:
		var codes packedCodes
		if codes, err = readPacked(cur, nonNull); err != nil {
			return err
		}
		got.min, got.bits = int64(codes.lo), codes.w
		v.Ints = s.int64s(n)
		off := 0
		for i := range v.Ints {
			if !v.Null(i) {
				v.Ints[i] = int64(codes.lo + bitsAt(codes.raw, off)&codes.mask)
				off += codes.w
			}
		}
	case enc == encPrefix, enc == encDigits:
		var lo, hi uint64
		if got, lo, hi, err = readPrefixed(cur, v, n, nonNull, enc, s); err == nil && enc == encDigits {
			want, err = digitsShape(got, nonNull, lo, hi)
			measured = true
		}
	case v.Kind == KindInt:
		v.Ints = s.int64s(n)
		for i := range v.Ints {
			if v.Null(i) {
				continue
			}
			if v.Ints[i], err = cur.Varint(); err != nil {
				return err
			}
		}
	case v.Kind == KindString:
		next, err := readStrings(cur, nonNull)
		if err != nil {
			return err
		}
		v.Dict, v.Codes = s.strings(nonNull), s.uint32s(n)
		k := 0
		for i := range v.Codes {
			if !v.Null(i) {
				v.Dict[k], v.Codes[i] = next(), uint32(k)
				k++
			}
		}
	}
	if err != nil || v.Kind == KindNull {
		return err
	}
	if !measured {
		want = shapeOf(v, nil)
	}
	return checkShape(v.Kind, got, want)
}

// digitsShape is stringShape for the n values decoded from the digits column
// got: each is got's prefix and a value from lo to hi in got's width of
// zero-padded digits. Such values are ordered as their numbers are, so their
// longest common prefix is got's and what lo and hi share, and every size
// follows from n and the widths: the shape needs no value read again. Values
// whose common prefix is longer than got's, all of them when lo and hi share
// a first digit, are refused.
func digitsShape(got colShape, n int, lo, hi uint64) (colShape, error) {
	p, width := len(got.prefix), got.width
	if n == 0 || lo/pow10[width-1] == hi/pow10[width-1] {
		return colShape{}, fmt.Errorf("relation: codec digits column's %d-byte prefix is not its values' longest common one", p)
	}
	s := colShape{enc: encUniform, size: 1 + n*(uvarintLen(uint64(p+width))+p+width)}
	if size := 1 + uvarintLen(uint64(p)) + p + uvarintLen(uint64(width)) + n*width; size < s.size {
		s = colShape{enc: encPrefix, size: size, width: width, prefix: got.prefix}
	}
	return digitsIfSmaller(s, got.prefix, width, n, lo, hi), nil
}

// checkShape refuses a decoded INT, FLOAT or STRING column of kind unless
// got — its encoding, a packed or digits column's min and width in bits, a
// prefix or digits column's prefix and suffix width — is want, the shape the
// encoder gives its values.
func checkShape(kind Kind, got, want colShape) error {
	switch {
	case got.enc != want.enc && want.enc != encUniform:
		return fmt.Errorf("relation: codec %s column encoded 0x%02x that encoding 0x%02x writes smaller", kind, got.enc, want.enc)
	case got.enc != want.enc:
		return fmt.Errorf("relation: codec column encoding 0x%02x that is not smaller than uniform", got.enc)
	case got.min != want.min:
		return fmt.Errorf("relation: codec packed column's minimum %d is not attained", got.min)
	case got.bits != want.bits:
		return fmt.Errorf("relation: codec packed column is %d bits wide, its values need %d", got.bits, want.bits)
	case got.prefix != want.prefix:
		return fmt.Errorf("relation: codec prefix column's %d-byte prefix is not its values' longest common one", len(got.prefix))
	case got.width != want.width:
		return fmt.Errorf("relation: codec prefix column's suffixes have width %d, their values %d", got.width, want.width)
	}
	return nil
}

// packedCodes is a packed payload: code k is lo plus the w bits of raw at
// bit k·w, masked by mask.
type packedCodes struct {
	lo   uint64
	w    int
	mask uint64
	raw  []byte
}

// readPacked reads the payload of nonNull codes packed as appendPacked packs
// them. A width above 64 and set padding bits are refused here, the rest of
// its shape by checkShape.
func readPacked(cur *Cursor, nonNull int) (packedCodes, error) {
	lo, err := cur.Varint()
	if err != nil {
		return packedCodes{}, err
	}
	wb, err := cur.Byte()
	if err != nil {
		return packedCodes{}, err
	}
	w := int(wb)
	if w > 64 {
		return packedCodes{}, fmt.Errorf("relation: codec packed column is %d bits wide", w)
	}
	nbits := nonNull * w
	raw, err := cur.Bytes((nbits + 7) / 8)
	if err != nil {
		return packedCodes{}, err
	}
	if nbits%8 != 0 && raw[len(raw)-1]>>(nbits%8) != 0 {
		return packedCodes{}, errPaddingBits
	}
	return packedCodes{lo: uint64(lo), w: w, mask: uint64(1)<<w - 1, raw: raw}, nil // 1<<64 is 0: all 64 bits
}

// bitsAt returns the 64 bits of b starting at bit off, least significant
// first, those past the end of b zero.
func bitsAt(b []byte, off int) uint64 {
	i, s := off>>3, off&7
	if i+9 > len(b) {
		return bitsNearEnd(b, i, s)
	}
	return binary.LittleEndian.Uint64(b[i:])>>s | uint64(b[i+8])<<(64-s) // 0 when s is 0
}

// bitsNearEnd is bitsAt for the last 9 bytes of b: bit s of byte i on.
func bitsNearEnd(b []byte, i, s int) uint64 {
	var tail [9]byte
	copy(tail[:], b[i:])
	return binary.LittleEndian.Uint64(tail[:])>>s | uint64(tail[8])<<(64-s)
}

// readPrefixed decodes the nonNull values of a prefix or digits STRING
// column of n rows, encoded enc, into v, its slices built in s, and returns
// its shape, which checkShape holds to the values' shape, and a digits
// column's least and greatest suffix value. The prefix and then each value are built into one
// string, which the prefix and the values are substrings of. A digits column
// whose width or prefix is out of range or whose codes are all equal is
// refused before its values are built, one holding a value wider than its
// width as it is built.
func readPrefixed(cur *Cursor, v *Vector, n, nonNull int, enc byte, s *Slabs) (got colShape, lo, hi uint64, err error) {
	limit := maxPrefix
	if enc == encDigits {
		limit = maxDigitPrefix
	}
	p, err := cur.Count(limit, "prefix length")
	if err != nil {
		return colShape{}, 0, 0, err
	}
	head, err := cur.Bytes(p)
	if err != nil {
		return colShape{}, 0, 0, err
	}
	limit = cur.Len()
	if enc == encDigits {
		limit = maxDigits
	}
	width, err := cur.Count(limit, "suffix width")
	if err != nil {
		return colShape{}, 0, 0, err
	}
	got = colShape{enc: enc, width: width}
	lo = math.MaxUint64
	var codes packedCodes
	start, size := cur.pos, 0
	switch {
	case enc == encDigits:
		if width == 0 {
			return colShape{}, 0, 0, fmt.Errorf("relation: codec digits column of width 0")
		}
		if codes, err = readPacked(cur, nonNull); err != nil {
			return colShape{}, 0, 0, err
		}
		if codes.w == 0 {
			return colShape{}, 0, 0, fmt.Errorf("relation: codec digits column of equal values")
		}
		got.min, got.bits, size = int64(codes.lo), codes.w, nonNull*width
	case width > 0:
		if nonNull > cur.Len()/width {
			return colShape{}, 0, 0, errShortFrame
		}
		size = nonNull * width
		cur.pos += size
	default:
		for k := 0; k < nonNull; k++ {
			ln, err := cur.Count(cur.Len(), "suffix length")
			if err != nil {
				return colShape{}, 0, 0, err
			}
			if _, err := cur.Bytes(ln); err != nil {
				return colShape{}, 0, 0, err
			}
			size += ln
		}
	}
	raw := cur.b[start:cur.pos]
	var b strings.Builder
	b.Grow(p + nonNull*p + size)
	b.Write(head)
	// A digits value is built in value, the prefix copied in once.
	var value [maxDigitPrefix + maxDigits]byte
	copy(value[:], head)
	for k, rest := 0, raw; k < nonNull; k++ {
		switch {
		case enc == encDigits:
			x := codes.lo + bitsAt(codes.raw, k*codes.w)&codes.mask
			if x >= pow10[width] {
				return colShape{}, 0, 0, fmt.Errorf("relation: codec digits column has a value wider than %d digits", width)
			}
			lo, hi = min(lo, x), max(hi, x)
			for i := p + width - 1; i >= p; i-- {
				value[i], x = byte('0'+x%10), x/10
			}
			b.Write(value[:p+width])
		case width > 0:
			b.Write(head)
			b.Write(rest[:width])
			rest = rest[width:]
		default:
			u, w := binary.Uvarint(rest)
			b.Write(head)
			b.Write(rest[w : w+int(u)])
			rest = rest[w+int(u):]
		}
	}
	col, off := b.String(), p
	v.Dict, v.Codes = s.strings(nonNull), s.uint32s(n)
	k := 0
	for i := range v.Codes {
		if v.Null(i) {
			continue
		}
		ln := p + width
		if width == 0 {
			u, w := binary.Uvarint(raw)
			ln, raw = p+int(u), raw[w+int(u):]
		}
		v.Dict[k], v.Codes[i] = col[off:off+ln], uint32(k)
		off += ln
		k++
	}
	got.prefix = col[:p]
	return got, lo, hi, nil
}

// pow10[w] is 10^w, for w up to maxDigits.
var pow10 = func() (t [maxDigits + 1]uint64) {
	t[0] = 1
	for i := 1; i < len(t); i++ {
		t[i] = 10 * t[i-1]
	}
	return t
}()

// readBools decodes the nonNull values of a BOOL column of n rows, packed
// bits, into v's Ints as 0 and 1, built in s.
func readBools(cur *Cursor, v *Vector, n, nonNull int, s *Slabs) error {
	packed, err := readBitmap(cur, nonNull, (nonNull+7)/8)
	if err != nil {
		return err
	}
	v.Ints = s.int64s(n)
	k := 0
	for i := range v.Ints {
		if !v.Null(i) {
			v.Ints[i] = int64(packed[k/8] >> (k % 8) & 1)
			k++
		}
	}
	return nil
}

// readStrings reads n length-prefixed strings with one allocation: every
// length prefix is bounds-checked first, the byte range becomes one string,
// and each call of next returns the following value, a substring of it past
// its prefix. A value therefore keeps its whole column alive, which is what a
// decoded relation does with its rows anyway.
func readStrings(cur *Cursor, n int) (next func() string, err error) {
	start := cur.pos
	for k := 0; k < n; k++ {
		ln, err := cur.Count(maxFrameBody, "string length")
		if err != nil {
			return nil, err
		}
		if _, err := cur.Bytes(ln); err != nil {
			return nil, err
		}
	}
	raw := cur.b[start:cur.pos]
	col, off := string(raw), 0
	return func() string {
		ln, w := binary.Uvarint(raw[off:])
		off += w + int(ln)
		return col[off-int(ln) : off]
	}, nil
}

var (
	errPaddingBits     = fmt.Errorf("relation: codec bitmap has bits set past its last row")
	errNullColumnValue = fmt.Errorf("relation: codec NULL column has a non-NULL row")
)

// readBitmap reads an n-row bitmap of nb bytes, whose padding bits past the
// last row Marshal leaves zero.
func readBitmap(cur *Cursor, n, nb int) ([]byte, error) {
	bitmap, err := cur.Bytes(nb)
	if err == nil && n%8 != 0 && bitmap[nb-1]>>(n%8) != 0 {
		err = errPaddingBits
	}
	return bitmap, err
}

// Marshal encodes a relation as one self-contained frame (schema inline): the
// bytes a fresh Encoder writes, in one slice sized for them beforehand.
func Marshal(r *Relation) ([]byte, error) { return AppendFrame(nil, r) }

// AppendFrame appends the bytes Marshal(r) returns to dst, grown once to hold
// them; a nil dst becomes a slice of exactly the frame's size. Each column's
// shape is chosen once and read for both the size and the bytes.
func AppendFrame(dst []byte, r *Relation) ([]byte, error) {
	if err := checkArity(r); err != nil {
		return dst, err
	}
	var room [8]colShape
	codes := codesPool.Get()
	shapes := shapesOf(room[:0], r.cols, codes)
	body := 1 + schemaSize(r.Schema) + uvarintLen(uint64(r.cols.Rows))
	for _, s := range shapes {
		body += (r.cols.Rows+7)/8 + s.size
	}
	size := uvarintLen(uint64(body)) + body
	if dst == nil {
		dst = make([]byte, 0, size)
	} else {
		dst = slices.Grow(dst, size)
	}
	dst = binary.AppendUvarint(dst, uint64(body))
	dst = AppendSchema(append(dst, frameInline), r.Schema)
	dst = appendVectors(dst, r.cols, shapes)
	if 8*cap(*codes) <= trustedBody {
		codesPool.Put(codes)
	}
	obs.CodecEncodeBytes.Add(int64(size))
	obs.CodecFrames.With("encode").Inc()
	return dst, nil
}

// schemaSize is the number of bytes appendSchema appends.
func schemaSize(s Schema) int {
	n := uvarintLen(uint64(len(s)))
	for _, c := range s {
		n += uvarintLen(uint64(len(c.Name))) + len(c.Name) + 1
	}
	return n
}

// Unmarshal decodes a relation from a single self-contained frame, reading it
// in place from b: nothing of b is copied but the bytes of STRING values, and
// b may be reused once Unmarshal returns.
func Unmarshal(b []byte) (*Relation, error) { return unmarshal(b, nil) }

// unmarshal is Unmarshal with the vectors built in s.
func unmarshal(b []byte, s *Slabs) (*Relation, error) {
	ln, n := binary.Uvarint(b)
	switch {
	case n == 0 && len(b) == 0:
		return nil, io.EOF
	case n == 0:
		return nil, io.ErrUnexpectedEOF
	case n < 0:
		return nil, fmt.Errorf("relation: codec frame length overflows 64 bits")
	case n > 1 && b[n-1] == 0:
		return nil, fmt.Errorf("%w: not minimally encoded", ErrFrameLength)
	case ln > maxFrameBody:
		return nil, fmt.Errorf("%w: %d bytes exceeds the limit", ErrFrameLength, ln)
	case uint64(len(b)-n) < ln:
		return nil, io.ErrUnexpectedEOF
	case uint64(len(b)-n) > ln:
		return nil, fmt.Errorf("relation: %d trailing bytes after codec frame", uint64(len(b)-n)-ln)
	}
	var d Decoder
	return d.decodeFrame(b[n:], s)
}

// Frame returns r's wire frame: the bytes a fresh Encoder writes for r, that
// is Marshal(r). A relation declared finished by ShareFrame, and every View of
// it that still holds exactly its rows, returns one frame marshalled by the
// first caller; the bytes are shared and must not be modified.
func (r *Relation) Frame() ([]byte, error) {
	if b, ok, err := r.SharedFrame(); ok {
		return b, err
	}
	return Marshal(r)
}

// SharedFrame returns r's shared frame, marshalled by its first caller, and
// true when r has one (ShareFrame); a writer ships those bytes as they are
// rather than encode or copy them again.
func (r *Relation) SharedFrame() ([]byte, bool, error) {
	f := r.frame
	if f == nil || !f.describes(r) {
		return nil, false, nil
	}
	f.once.Do(func() { f.b, f.err = Marshal(r) })
	return f.b, true, f.err
}

// sharedFrame is a finished relation's wire frame, marshalled by whichever
// consumer needs it first. schema, cols and rows are what it is cut from.
type sharedFrame struct {
	once   sync.Once
	schema Schema
	cols   *Columns
	rows   int
	b      []byte
	err    error
}

// describes reports whether r still holds exactly the schema and body the
// frame is cut from: the same schema slice at the same length, the same
// vectors at the same length. A header that re-sliced or reassigned either
// (KeepRows, Sort) gets a fresh Marshal instead.
func (f *sharedFrame) describes(r *Relation) bool {
	return sameSlice(f.schema, r.Schema) && f.cols == r.cols && f.rows == r.cols.Rows
}

func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// ShareFrame declares r finished: from here on every consumer of its frame —
// one site request per site of a broadcast, one per retry, one reply per
// session served from a shared result — ships the same bytes, encoded once by
// the first. Nobody may change r's schema or rows afterwards.
func (r *Relation) ShareFrame() {
	r.frame = &sharedFrame{schema: r.Schema, cols: r.cols, rows: r.cols.Rows}
}

// View returns a new header over r's schema and vectors. A consumer may
// reorder or cut the view's rows (KeepRows, Sort) without affecting r or any
// other view, but the vectors themselves are r's and must not be written
// (Append, Union). The view shares r's frame while it holds exactly r's rows.
func (r *Relation) View() *Relation {
	return &Relation{Schema: r.Schema, cols: r.cols, frame: r.frame}
}
