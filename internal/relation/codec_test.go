package relation

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// codecCases enumerates the representative shapes the wire format must
// round-trip exactly: every kind, NULLs in every position, empty relations,
// empty schemas and packed BOOLs.
func codecCases() map[string]*Relation {
	full := New(MustSchema(
		Column{"i", KindInt},
		Column{"f", KindFloat},
		Column{"s", KindString},
		Column{"b", KindBool},
		Column{"n", KindNull},
	))
	full.MustAppend(Tuple{NewInt(0), NewFloat(0), NewString(""), NewBool(false), Null})
	full.MustAppend(Tuple{NewInt(-1), NewFloat(math.Inf(-1)), NewString("héllo\x00world"), NewBool(true), Null})
	full.MustAppend(Tuple{NewInt(math.MaxInt64), NewFloat(math.NaN()), NewString("x"), Null, Null})
	full.MustAppend(Tuple{NewInt(math.MinInt64), NewFloat(math.Copysign(0, -1)), Null, NewBool(true), Null})
	full.MustAppend(Tuple{Null, Null, Null, Null, Null})

	allNullInt := New(MustSchema(Column{"v", KindInt}))
	allNullInt.MustAppend(Tuple{Null})
	allNullInt.MustAppend(Tuple{Null})

	wide := New(MustSchema(Column{"a", KindBool}, Column{"b", KindBool}))
	for i := 0; i < 21; i++ {
		wide.MustAppend(Tuple{NewBool(i%3 == 0), NewBool(i%2 == 0)})
	}

	// Uniform INT/FLOAT/STRING columns, NULLs included, and a NULL-kind
	// column: frames that decode to typed vectors only.
	uniform := New(MustSchema(Column{"i", KindInt}, Column{"f", KindFloat}, Column{"s", KindString}, Column{"n", KindNull}))
	uniform.MustAppend(Tuple{NewInt(-3), NewFloat(math.NaN()), NewString("a"), Null})
	uniform.MustAppend(Tuple{Null, NewFloat(math.Copysign(0, -1)), NewString("a"), Null})
	uniform.MustAppend(Tuple{NewInt(math.MinInt64), Null, Null, Null})
	uniform.MustAppend(Tuple{NewInt(7), NewFloat(2.5), NewString(""), Null})

	allNullString := New(MustSchema(Column{"s", KindString}, Column{"f", KindFloat}))
	for i := 0; i < 9; i++ {
		allNullString.MustAppend(Tuple{Null, Null})
	}

	noColsRows := New(Schema{})
	for i := 0; i < 3; i++ {
		noColsRows.MustAppend(Tuple{})
	}
	singleString := New(MustSchema(Column{"s", KindString}))
	singleString.MustAppend(Tuple{NewString("only")})

	cases := map[string]*Relation{
		"uniform":         uniform,
		"all-null-string": allNullString,
		"all-kinds":       full,
		"all-null-col":    allNullInt,
		"bool-packing":    wide,
		"empty":           New(MustSchema(Column{"a", KindInt}, Column{"b", KindString})),
		"empty-schema":    New(Schema{}),
		"no-cols-rows":    noColsRows,
		"single-string":   singleString,
	}
	for name, r := range packCases() {
		cases[name] = r
	}
	return cases
}

// relIdentical compares relations by exact value identity (float bits, so NaN
// and -0.0 round-trips are checked), which is stricter than EqualMultiset.
func relIdentical(a, b *Relation) bool {
	return a.Schema.Equal(b.Schema) && rowsIdentical(a.Rows(), b.Rows())
}

// rowsIdentical compares rows by exact value identity.
func rowsIdentical(ar, br []Tuple) bool {
	if len(ar) != len(br) {
		return false
	}
	for i := range ar {
		if len(ar[i]) != len(br[i]) {
			return false
		}
		for j := range ar[i] {
			if !ar[i][j].Identical(br[i][j]) {
				return false
			}
		}
	}
	return true
}

func TestCodecRoundTrip(t *testing.T) {
	for name, r := range codecCases() {
		data, err := Marshal(r)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		if !relIdentical(r, got) {
			t.Errorf("%s: round trip changed relation:\n%s\nvs\n%s", name, r, got)
		}
		// Marshal is a fresh Encoder's frame, written into a slice sized for
		// it exactly: no regrowth, no slack beyond the length prefix's room.
		var buf bytes.Buffer
		if err := NewEncoder(&buf).Encode(r); err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if !bytes.Equal(data, buf.Bytes()) {
			t.Errorf("%s: Marshal frame differs from the Encoder's", name)
		}
		if cap(data) != len(data) {
			t.Errorf("%s: Marshal sized its slice %d for a %d-byte frame", name, cap(data), len(data))
		}
	}
}

// TestShareFrame checks that a relation declared finished is encoded once and
// that every envelope then carries the very same bytes.
func TestShareFrame(t *testing.T) {
	r := codecCases()["all-kinds"]
	want, err := Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	r.ShareFrame()
	a, err := r.Frame()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Frame()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, want) {
		t.Error("shared frame differs from Marshal's")
	}
	if &a[0] != &b[0] {
		t.Error("second envelope re-encoded the relation")
	}
	if back, err := Unmarshal(a); err != nil || !relIdentical(r, back) {
		t.Errorf("shared frame does not decode back: %v", err)
	}
}

// TestAppendFrame: AppendFrame appends exactly Marshal's bytes after what dst
// holds, for every case, and SharedFrame reports a frame only for a relation
// declared finished.
func TestAppendFrame(t *testing.T) {
	head := []byte("head")
	for name, r := range codecCases() {
		want, err := Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendFrame(slices.Clip(head), r)
		if err != nil || !bytes.Equal(got, append(slices.Clip(head), want...)) {
			t.Errorf("%s: AppendFrame = %x, %v; want head then %x", name, got, err, want)
		}
		if _, ok, _ := r.SharedFrame(); ok {
			t.Errorf("%s: an unfinished relation has a shared frame", name)
		}
		r.ShareFrame()
		shared, ok, err := r.SharedFrame()
		if framed, _ := r.Frame(); !ok || err != nil || &shared[0] != &framed[0] {
			t.Errorf("%s: SharedFrame is not the finished relation's one frame (ok %v, err %v)", name, ok, err)
		}
	}
}

// TestViewSharesFrameOnlyOverItsRows checks the per-consumer header contract:
// a view of a finished relation serves the shared frame while it holds the
// very rows the frame was cut from, and any view that re-sliced or reassigned
// its rows or schema gets the frame of what it now holds.
func TestViewSharesFrameOnlyOverItsRows(t *testing.T) {
	r := codecCases()["all-kinds"]
	r.ShareFrame()
	shared, err := r.Frame()
	if err != nil {
		t.Fatal(err)
	}
	same, err := r.View().Frame()
	if err != nil {
		t.Fatal(err)
	}
	if &same[0] != &shared[0] {
		t.Error("an untouched view re-encoded the relation")
	}

	limited := r.View()
	limited.KeepRows([]int32{0, 1})
	reversed := r.View()
	reversed.KeepRows([]int32{4, 3, 2, 1, 0})
	renamed := r.View()
	renamed.Schema = renamed.Schema.Clone()
	renamed.Schema[0].Name = "renamed"
	for name, v := range map[string]*Relation{"limited": limited, "reversed": reversed, "renamed": renamed} {
		got, err := v.Frame()
		if err != nil {
			t.Fatal(err)
		}
		want, err := Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s view: frame does not describe its own rows", name)
		}
	}
	if again, _ := r.Frame(); !bytes.Equal(again, shared) || !relIdentical(r, codecCases()["all-kinds"]) {
		t.Error("editing views changed the finished relation or its frame")
	}
	// A relation never declared finished marshals on every call.
	plain := codecCases()["uniform"]
	a, _ := plain.View().Frame()
	b, _ := plain.Frame()
	if !bytes.Equal(a, b) || &a[0] == &b[0] {
		t.Error("an unshared relation's frames should be equal but separately encoded")
	}
}

// TestCodecStream checks schema-once framing: a stream of blocks with one
// schema pays for it once, and a schema change mid-stream re-sends it.
func TestCodecStream(t *testing.T) {
	blockA := func(base int64) *Relation {
		r := New(MustSchema(Column{"g", KindInt}, Column{"sum", KindFloat}))
		for i := int64(0); i < 50; i++ {
			r.MustAppend(Tuple{NewInt(base + i), NewFloat(float64(i) / 3)})
		}
		return r
	}
	other := New(MustSchema(Column{"s", KindString}))
	other.MustAppend(Tuple{NewString("schema change")})

	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	sizes := make([]int, 0, 4)
	last := 0
	blocks := []*Relation{blockA(0), blockA(0), other, blockA(2000)}
	for _, b := range blocks {
		if err := enc.Encode(b); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, buf.Len()-last)
		last = buf.Len()
	}
	// Second blockA frame reuses the cached schema, so it must be smaller
	// than the first despite identical row counts.
	if sizes[1] >= sizes[0] {
		t.Errorf("cached-schema frame (%d bytes) not smaller than inline-schema frame (%d bytes)", sizes[1], sizes[0])
	}

	dec := NewDecoder(&buf)
	for i, want := range blocks {
		got, err := dec.Decode(nil)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if !relIdentical(want, got) {
			t.Errorf("block %d changed in stream round trip", i)
		}
	}
	if _, err := dec.Decode(nil); err != io.EOF {
		t.Errorf("decode past end: err = %v, want io.EOF", err)
	}
}

// TestCodecStreamDecodesVectors: a stream Decoder reads every frame into one
// reused buffer; a block stays intact after later frames overwrote the
// buffer.
func TestCodecStreamDecodesVectors(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	blocks := make([]*Relation, 5)
	for b := range blocks {
		r := New(MustSchema(Column{"g", KindInt}, Column{"name", KindString}))
		for i := 0; i < 10+b; i++ {
			r.MustAppend(Tuple{NewInt(int64(b*100 + i)), NewString(fmt.Sprintf("row-%d-%d", b, i))})
		}
		blocks[b] = r
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewDecoder(&buf)
	var got []*Relation
	for range blocks {
		rel, err := dec.Decode(nil)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rel)
	}
	for i, want := range blocks {
		if !relIdentical(want, got[i]) {
			t.Errorf("block %d changed in round trip", i)
		}
	}
}

// streamBlocks is an H_i-like stream: two blocks of n rows each of one
// schema.
func streamBlocks(n int) []*Relation {
	var out []*Relation
	for b := 0; b < 2; b++ {
		r := New(MustSchema(Column{"ord", KindInt}, Column{"sum", KindFloat}, Column{"name", KindString}))
		for i := 0; i < n; i++ {
			r.MustAppend(Tuple{NewInt(int64(b*n + i)), NewFloat(float64(i) / 7), NewString(fmt.Sprintf("clerk-%d", i))})
		}
		out = append(out, r)
	}
	return out
}

// encodeStream writes blocks through enc after a Reset and returns the bytes.
func encodeStream(t *testing.T, enc *Encoder, buf *bytes.Buffer, blocks []*Relation) []byte {
	t.Helper()
	buf.Reset()
	enc.Reset()
	for _, b := range blocks {
		if err := enc.Encode(b); err != nil {
			t.Fatal(err)
		}
	}
	return bytes.Clone(buf.Bytes())
}

// TestEncoderResetStartsAFreshStream: a second and a third stream on one
// encoder write the bytes a fresh encoder writes — the schema inline again,
// Bytes counted from zero — into the body buffer the first stream grew.
// After a frame larger than trustedBody the encoder keeps no buffer.
func TestEncoderResetStartsAFreshStream(t *testing.T) {
	blocks := streamBlocks(500)
	var want bytes.Buffer
	wantEnc := NewEncoder(&want)
	for _, b := range blocks {
		if err := wantEnc.Encode(b); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	var body *byte
	for stream := 1; stream <= 3; stream++ {
		if got := encodeStream(t, enc, &buf, blocks); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("stream %d: %d bytes differ from a fresh encoder's %d", stream, len(got), want.Len())
		}
		if enc.Bytes() != int64(want.Len()) {
			t.Errorf("stream %d: Bytes() = %d, want %d", stream, enc.Bytes(), want.Len())
		}
		if stream > 1 && unsafe.SliceData(enc.body) != body {
			t.Errorf("stream %d allocated a new body", stream)
		}
		body = unsafe.SliceData(enc.body)
	}
	if allocs := testing.AllocsPerRun(10, func() { encodeStream(t, enc, &buf, blocks) }); allocs > 2 {
		// The inline schema's copy and the returned clone.
		t.Errorf("a warm stream allocates %.0f times", allocs)
	}

	huge := New(MustSchema(Column{"s", KindString}))
	huge.MustAppend(Tuple{NewString(string(make([]byte, trustedBody+1)))})
	encodeStream(t, enc, &buf, []*Relation{huge})
	if cap(enc.body) > trustedBody {
		t.Errorf("after a %d-byte frame the encoder keeps %d bytes", trustedBody+1, cap(enc.body))
	}
	if got := encodeStream(t, enc, &buf, blocks); !bytes.Equal(got, want.Bytes()) {
		t.Error("the stream after a huge frame differs from a fresh encoder's")
	}
}

// TestDecoderResetStartsAFreshStream: a decoder reset between streams
// decodes each as a fresh decoder does — refusing a cached-schema frame
// before an inline one — into the body buffer its first stream grew, and
// keeps no buffer after a frame larger than trustedBody.
func TestDecoderResetStartsAFreshStream(t *testing.T) {
	blocks := streamBlocks(500)
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	stream := encodeStream(t, enc, &buf, blocks)
	var src bytes.Buffer
	dec := NewDecoder(&src)
	var body *byte
	for n := 1; n <= 3; n++ {
		src.Write(stream)
		dec.Reset()
		for i, want := range blocks {
			got, err := dec.Decode(nil)
			if err != nil || !relIdentical(want, got) {
				t.Fatalf("stream %d block %d: %v", n, i, err)
			}
		}
		if n > 1 && unsafe.SliceData(dec.frames.body) != body {
			t.Errorf("stream %d allocated a new body", n)
		}
		body = unsafe.SliceData(dec.frames.body)
	}

	// The second frame alone reuses a schema this stream never sent.
	_, first := binary.Uvarint(stream)
	ln, _ := binary.Uvarint(stream)
	src.Write(stream[first+int(ln):])
	dec.Reset()
	if _, err := dec.Decode(nil); err == nil {
		t.Error("a reset decoder accepted a cached-schema frame before any schema")
	}

	huge := New(MustSchema(Column{"s", KindString}))
	huge.MustAppend(Tuple{NewString(string(make([]byte, trustedBody+1)))})
	src.Reset()
	src.Write(encodeStream(t, enc, &buf, []*Relation{huge}))
	dec.Reset()
	if got, err := dec.Decode(nil); err != nil || !relIdentical(huge, got) {
		t.Fatalf("huge frame: %v", err)
	}
	if cap(dec.frames.body) > trustedBody {
		t.Errorf("after a %d-byte frame the decoder keeps %d bytes", trustedBody+1, cap(dec.frames.body))
	}
}

func TestCodecRejectsCorrupt(t *testing.T) {
	data, err := Marshal(codecCases()["all-kinds"])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(data[:len(data)-3]); err == nil {
		t.Error("truncated frame must be rejected")
	}
	if _, err := Unmarshal(append(append([]byte{}, data...), 0xff)); err == nil {
		t.Error("trailing garbage must be rejected")
	}
	if _, err := Unmarshal([]byte{0x01, 0x77}); err == nil {
		t.Error("unknown frame kind must be rejected")
	}
	// frameCached with no schema sent first.
	if _, err := Unmarshal([]byte{0x02, frameCached, 0x00}); err == nil {
		t.Error("cached frame without schema must be rejected")
	}
	// Flipping bytes must never panic; errors are fine.
	for i := range data {
		mut := append([]byte{}, data...)
		mut[i] ^= 0x5a
		_, _ = Unmarshal(mut)
	}
}

// TestCodecRefusesRowsTheFrameCannotHold: a row count is checked against the
// bytes the frame has left before anything is allocated for it, so a few
// hostile bytes cannot demand gigabytes.
func TestCodecRefusesRowsTheFrameCannotHold(t *testing.T) {
	frame := func(schema Schema, rows uint64) []byte {
		body := AppendSchema([]byte{frameInline}, schema)
		body = binary.AppendUvarint(body, rows)
		return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
	}
	oneInt := MustSchema(Column{"a", KindInt})
	if _, err := Unmarshal(frame(oneInt, 1<<29)); err == nil {
		t.Error("2^29 rows in an empty column body must be rejected")
	}
	if _, err := Unmarshal(frame(nil, MaxEmptyRows+1)); err == nil {
		t.Errorf("%d rows without columns must be rejected", MaxEmptyRows+1)
	}
	if r, err := Unmarshal(frame(nil, MaxEmptyRows)); err != nil || r.Len() != MaxEmptyRows {
		t.Errorf("%d rows without columns: %v", MaxEmptyRows, err)
	}
	// A column count is checked the same way: every column spends at least
	// two schema bytes. Three bytes claiming 794 043 columns were allocated
	// a 19 MB schema before the count was bounded.
	claim := []byte{0x0f, frameInline, 0xbb, 0xbb, 0x30}
	claim = append(claim, bytes.Repeat([]byte{'0'}, 11)...)
	var err error
	if n := allocatedBy(func() { _, err = Unmarshal(claim) }); err == nil || n > 1<<16 {
		t.Errorf("a schema claiming more columns than its frame holds: err %v, %d bytes allocated", err, n)
	}
}

// TestDecodeOfAShortStreamAllocatesWhatArrived: a length prefix claiming
// almost maxFrameBody, followed by three bytes, is a truncated stream, and
// decoding it does not allocate what the prefix claims.
func TestDecodeOfAShortStreamAllocatesWhatArrived(t *testing.T) {
	data := append(binary.AppendUvarint(nil, maxFrameBody-1), frameInline, 0x00, 0x00)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Unmarshal(data)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*trustedBody {
		t.Errorf("decoding a 3-byte body allocated %d bytes", grew)
	}
}

// gobShadow is a relation's schema and rows as gob ships them: the baseline
// the wire format is compared against.
type gobShadow struct {
	Schema Schema
	Rows   []Tuple
}

// TestCodecSmallerThanGob locks in the headline acceptance criterion: an
// H_i-shaped payload (int group keys + float aggregates) must be at least 30%
// smaller than gob's encoding of the same relation.
func TestCodecSmallerThanGob(t *testing.T) {
	r := New(MustSchema(
		Column{"cust", KindInt},
		Column{"month", KindInt},
		Column{"sum_sales", KindFloat},
		Column{"cnt", KindInt},
	))
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		r.MustAppend(Tuple{
			NewInt(int64(rng.Intn(100000))),
			NewInt(int64(1 + rng.Intn(12))),
			NewFloat(rng.Float64() * 1e5),
			NewInt(int64(1 + rng.Intn(1000))),
		})
	}
	codecBytes, err := Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var gobBuf bytes.Buffer
	if err := gob.NewEncoder(&gobBuf).Encode(&gobShadow{Schema: r.Schema, Rows: r.Rows()}); err != nil {
		t.Fatal(err)
	}
	if len(codecBytes) > gobBuf.Len()*7/10 {
		t.Errorf("codec payload %d bytes, gob %d bytes: want >= 30%% smaller", len(codecBytes), gobBuf.Len())
	}
	t.Logf("codec %d bytes vs gob %d bytes (%.1f%% of gob)", len(codecBytes), gobBuf.Len(),
		100*float64(len(codecBytes))/float64(gobBuf.Len()))
}

// randomRelation derives a relation deterministically from fuzz input bytes.
func randomRelation(rng *rand.Rand) *Relation {
	kinds := []Kind{KindNull, KindInt, KindFloat, KindString, KindBool}
	ncols := rng.Intn(6)
	schema := make(Schema, ncols)
	for i := range schema {
		schema[i] = Column{Name: string(rune('a' + i)), Kind: kinds[rng.Intn(len(kinds))]}
	}
	r := New(schema)
	nrows := rng.Intn(40)
	for i := 0; i < nrows; i++ {
		t := make(Tuple, ncols)
		for j := range t {
			// 1-in-4 cells are NULL.
			kind := schema[j].Kind
			if rng.Intn(4) == 0 {
				kind = KindNull
			}
			switch kind {
			case KindNull:
				t[j] = Null
			case KindInt:
				t[j] = NewInt(rng.Int63() - rng.Int63())
			case KindFloat:
				switch rng.Intn(10) {
				case 0:
					t[j] = NewFloat(math.NaN())
				case 1:
					t[j] = NewFloat(math.Copysign(0, -1))
				default:
					t[j] = NewFloat(math.Float64frombits(rng.Uint64()))
					if math.IsNaN(t[j].Float) {
						t[j] = NewFloat(0)
					}
				}
			case KindString:
				b := make([]byte, rng.Intn(20))
				rng.Read(b)
				t[j] = NewString(string(b))
			case KindBool:
				t[j] = NewBool(rng.Intn(2) == 0)
			}
		}
		r.MustAppend(t)
	}
	return r
}

// streamDecode decodes a self-contained frame the way a stream Decoder does,
// into s, refusing trailing bytes as Unmarshal does.
func streamDecode(data []byte, s *Slabs) (*Relation, error) {
	rd := bytes.NewReader(data)
	rel, err := NewDecoder(rd).Decode(s)
	if err == nil && rd.Len() != 0 {
		err = errors.New("trailing bytes")
	}
	return rel, err
}

// rowDecode is the reference decode the vectors are held to: a
// self-contained frame read cell by cell into rows, whatever its columns,
// under every refusal the vectors' reader makes.
func rowDecode(data []byte) (Schema, []Tuple, error) {
	ln, n := binary.Uvarint(data)
	if n <= 0 || uint64(len(data)-n) != ln {
		return nil, nil, errors.New("bad frame length")
	}
	cur := NewCursor(data[n:])
	if kind, err := cur.Byte(); err != nil || kind != frameInline {
		return nil, nil, fmt.Errorf("not a self-contained frame (%v)", err)
	}
	schema, err := cur.Schema()
	if err != nil {
		return nil, nil, err
	}
	if err := schema.Validate(); err != nil {
		return nil, nil, err
	}
	nrows, err := frameRows(cur, len(schema))
	if err != nil {
		return nil, nil, err
	}
	w := len(schema)
	flat := make([]Value, nrows*w)
	rows := make([]Tuple, nrows)
	for i := range rows {
		rows[i] = flat[i*w : (i+1)*w : (i+1)*w]
	}
	for j, col := range schema {
		bitmap, err := readBitmap(cur, nrows, (nrows+7)/8)
		if err != nil {
			return nil, nil, err
		}
		enc, err := cur.Byte()
		switch {
		case err != nil:
		case enc == encUniform:
			err = readUniformRows(cur, rows, j, col.Kind, bitmap)
		case enc == encPacked && (col.Kind == KindInt || col.Kind == KindFloat):
			err = readPackedRows(cur, rows, j, col.Kind, bitmap)
		case enc == encPrefix && col.Kind == KindString:
			err = readPrefixRows(cur, rows, j, bitmap)
		case enc == encDigits && col.Kind == KindString:
			err = readDigitsRows(cur, rows, j, bitmap)
		default:
			err = fmt.Errorf("unknown column encoding 0x%02x", enc)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	if cur.Len() != 0 {
		return nil, nil, errors.New("trailing bytes")
	}
	return schema, rows, nil
}

func isNullAt(bitmap []byte, i int) bool { return bitmap[i/8]&(1<<(i%8)) != 0 }

// readUniformRows reads column j of rows, written uniform of kind, which
// Marshal does for an INT, FLOAT or STRING column only when neither packing,
// a prefix nor digits write it smaller.
func readUniformRows(cur *Cursor, rows []Tuple, j int, kind Kind, bitmap []byte) error {
	start := cur.Len()
	if err := readUniformCells(cur, rows, j, kind, bitmap); err != nil {
		return err
	}
	size := start - cur.Len()
	switch {
	case (kind == KindInt || kind == KindFloat) && refPackedSize(rows, j) < size:
		return fmt.Errorf("uniform %s column %d that packing writes smaller", kind, j)
	case kind == KindString && min(refPrefixSize(rows, j), refDigitsSize(rows, j)) < size:
		return fmt.Errorf("uniform STRING column %d that a prefix or digits write smaller", j)
	}
	return nil
}

// readUniformCells reads the cells of column j of rows, written uniform.
func readUniformCells(cur *Cursor, rows []Tuple, j int, kind Kind, bitmap []byte) error {
	nonNull := 0
	for i := range rows {
		if !isNullAt(bitmap, i) {
			nonNull++
		}
	}
	var next func() string
	var packed []byte
	var err error
	switch kind {
	case KindString:
		next, err = readStrings(cur, nonNull)
	case KindBool:
		packed, err = readBitmap(cur, nonNull, (nonNull+7)/8)
	}
	if err != nil {
		return err
	}
	k := 0
	for i, t := range rows {
		if isNullAt(bitmap, i) {
			t[j] = Null
			continue
		}
		switch kind {
		case KindNull:
			return errNullColumnValue
		case KindInt:
			v, err := cur.Varint()
			if err != nil {
				return err
			}
			t[j] = NewInt(v)
		case KindFloat:
			raw, err := cur.Bytes(8)
			if err != nil {
				return err
			}
			t[j] = NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(raw)))
		case KindString:
			t[j] = NewString(next())
		case KindBool:
			t[j] = NewBool(packed[k/8]&(1<<(k%8)) != 0)
			k++
		}
	}
	return nil
}

// frameBody is a frame without its length prefix.
func frameBody(frame []byte) []byte {
	_, n := binary.Uvarint(frame)
	return frame[n:]
}

// allocatedBy is the bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// Decoding allocates at most decodeAllocPerByte bytes per input byte plus
// decodeAllocConst: the bound a site relies on when it decodes what arrived.
// A row of a zero-column frame occupies no bytes, so the constant covers
// MaxEmptyRows of them.
const (
	decodeAllocPerByte = 1024
	decodeAllocConst   = 2 << 20
)

// fuzzSlabs is the one set of slabs FuzzCodecRoundTrip decodes every input
// into, poisoned first, so each decode finds them grown by the inputs before
// and full of garbage.
var fuzzSlabs Slabs

// mixedKindsFrame is the frame protocol versions before 7 wrote for an INT
// column m holding a FLOAT, a STRING and a BOOL beside an INT, and a STRING
// column k holding an INT and a FLOAT beside a STRING and a NULL.
func mixedKindsFrame() []byte {
	body := AppendSchema([]byte{frameInline}, MustSchema(Column{"m", KindInt}, Column{"k", KindString}))
	body = append(body, 4, 0x00, 0x01) // four rows; m: no NULL, mixed
	for _, v := range []Value{NewFloat(1.5), NewInt(2), NewString("three"), NewBool(true)} {
		body = AppendValue(body, v)
	}
	body = append(body, 0x04, 0x01) // k: row 2 NULL, mixed
	for _, v := range []Value{NewString("a"), NewInt(7), NewFloat(-0.25)} {
		body = AppendValue(body, v)
	}
	return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
}

// FuzzCodecRoundTrip fuzzes six properties: arbitrary bytes never panic the
// decoder; whatever decodes, Unmarshal, a stream Decoder and the reference
// row decode agree on it, and it re-encodes to its own bytes, as does the
// image of its rows built through Append; a decode
// into reused, poisoned slabs refuses what Unmarshal refuses and builds
// exactly Unmarshal's vectors otherwise; every decode, into slabs of any
// size too, allocates within a bound linear in the input; and randomized
// relations (derived from the fuzz input as a PRNG seed) survive
// encode/decode unchanged.
func FuzzCodecRoundTrip(f *testing.F) {
	for name, r := range codecCases() {
		data, err := Marshal(r)
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		f.Add(data)
	}
	f.Add([]byte{0x00})
	f.Add([]byte{0x02, frameCached, 0x00})
	// Refused: protocol version 7 dropped the mixed form.
	f.Add(mixedFrame())
	f.Add(mixedKindsFrame())
	f.Fuzz(func(t *testing.T, data []byte) {
		// Property 1: hostile bytes error out, never panic or hang.
		var rel *Relation
		var schema Schema
		var rows []Tuple
		var err, rowErr error
		limit := decodeAllocPerByte*uint64(len(data)) + decodeAllocConst
		if n := allocatedBy(func() { rel, err = Unmarshal(data) }); n > limit {
			t.Fatalf("Unmarshal of %d bytes allocated %d bytes", len(data), n)
		}
		if n := allocatedBy(func() { schema, rows, rowErr = rowDecode(data) }); n > limit {
			t.Fatalf("row decode of %d bytes allocated %d bytes", len(data), n)
		}
		var streamed *Relation
		var streamErr error
		if n := allocatedBy(func() { streamed, streamErr = streamDecode(data, nil) }); n > limit {
			t.Fatalf("stream decode of %d bytes allocated %d bytes", len(data), n)
		}
		fuzzSlabs.Reset()
		fuzzSlabs.poison()
		var lent *Relation
		var lentErr error
		if n := allocatedBy(func() { lent, lentErr = streamDecode(data, &fuzzSlabs) }); n > limit {
			t.Fatalf("decode into slabs of %d bytes allocated %d bytes", len(data), n)
		}
		if (err == nil) != (rowErr == nil) || (err == nil) != (streamErr == nil) || (err == nil) != (lentErr == nil) {
			t.Fatalf("Unmarshal err %v, row decode err %v, stream decode err %v, decode into slabs err %v", err, rowErr, streamErr, lentErr)
		}
		if err == nil && !sameVectors(lent, rel) {
			t.Fatal("the decode into slabs and Unmarshal built different vectors")
		}
		if err == nil {
			// Property 2: every decode holds the same rows, in the same
			// vectors, and they are the frame's own bytes.
			if !relIdentical(rel, streamed) || !rel.Schema.Equal(schema) || !rowsIdentical(rel.Rows(), rows) {
				t.Fatal("Unmarshal, the stream and the row decode hold different rows")
			}
			a, errA := Marshal(rel)
			if errA != nil || !bytes.Equal(frameBody(a), frameBody(data)) {
				t.Fatalf("the decoded relation does not re-encode to its frame (%v)", errA)
			}
			// The rows' image built through Append is the same frame.
			appended := New(schema)
			for _, row := range rows {
				appended.MustAppend(row)
			}
			if g, err := Marshal(appended); err != nil || !bytes.Equal(g, a) || !relIdentical(appended, rel) {
				t.Fatalf("the rows' appended image marshals differently (%v)", err)
			}
		}
		if err == nil {
			// Whatever decoded must re-encode and decode to the same thing.
			again, err := Marshal(rel)
			if err != nil {
				t.Fatalf("re-marshal of decoded relation: %v", err)
			}
			rel2, err := Unmarshal(again)
			if err != nil {
				t.Fatalf("re-unmarshal: %v", err)
			}
			if !relIdentical(rel, rel2) {
				t.Fatal("decoded relation did not survive re-encode")
			}
		}
		// Property 2: random relations round-trip exactly.
		seed := int64(len(data))
		for i, b := range data {
			seed = seed*131 + int64(b) + int64(i)
		}
		r := randomRelation(rand.New(rand.NewSource(seed)))
		enc, err := Marshal(r)
		if err != nil {
			t.Fatalf("marshal random relation: %v", err)
		}
		got, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("unmarshal random relation: %v", err)
		}
		if !relIdentical(r, got) {
			t.Fatalf("random relation changed in round trip:\n%s\nvs\n%s", r, got)
		}
	})
}

// TestEveryDecodeRefusesAnOverlongLength: a frame whose length prefix is not
// minimally encoded is refused by Unmarshal as by a stream Decoder and a
// Cursor, since no encoder writes it; a fuzzed frame that spells 127 in two
// bytes once decoded through Unmarshal alone.
func TestEveryDecodeRefusesAnOverlongLength(t *testing.T) {
	frame, err := Marshal(codecCases()["prefix-varying"])
	if err != nil {
		t.Fatal(err)
	}
	body := frameBody(frame)
	overlong := append([]byte{byte(len(body)) | 0x80, 0x00}, body...)
	if len(body) >= 0x80 {
		t.Fatalf("the frame's body is %d bytes, want one a single length byte spells", len(body))
	}
	_, errU := Unmarshal(overlong)
	_, errS := streamDecode(overlong, nil)
	_, errC := NewCursor(overlong).Relation(nil)
	for _, err := range []error{errU, errS, errC} {
		if err == nil {
			t.Errorf("Unmarshal %v, stream %v, cursor %v: want all refused", errU, errS, errC)
			break
		}
	}
	if !errors.Is(errU, ErrFrameLength) {
		t.Errorf("Unmarshal: %v, want %v", errU, ErrFrameLength)
	}
}

// TestDecodeAllocatesPerColumnNotPerRow: a uniform STRING column decodes into
// one string the values are substrings of, so a frame's allocations do not
// grow with its rows.
func TestDecodeAllocatesPerColumnNotPerRow(t *testing.T) {
	build := func(rows int) []byte {
		r := New(MustSchema(Column{"k", KindString}, Column{"s", KindString}, Column{"n", KindInt}))
		for i := 0; i < rows; i++ {
			s := NewString("value-" + string(rune('a'+i%26)))
			if i%7 == 0 {
				s = Null
			}
			r.MustAppend(Tuple{NewString("Clerk#000000" + string(rune('0'+i%10))), s, NewInt(int64(i))})
		}
		data, err := Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	small, large := build(10), build(5000)
	allocs := func(data []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := Unmarshal(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(small), allocs(large); b > a {
		t.Errorf("decoding 5000 rows took %.0f allocations, 10 rows %.0f", b, a)
	}
}
