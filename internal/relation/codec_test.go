package relation

import (
	"bytes"
	"encoding/gob"
	"io"
	"math"
	"math/rand"
	"testing"
)

// codecCases enumerates the representative shapes the wire format must
// round-trip exactly: every kind, NULLs in every position, empty relations,
// empty schemas, and columns whose dynamic kinds disagree with the schema.
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

	mixed := New(MustSchema(Column{"m", KindInt}, Column{"k", KindString}))
	mixed.MustAppend(Tuple{NewFloat(1.5), NewString("a")})
	mixed.MustAppend(Tuple{NewInt(2), NewInt(7)})
	mixed.MustAppend(Tuple{NewString("three"), Null})
	mixed.MustAppend(Tuple{NewBool(true), NewFloat(-0.25)})

	allNullInt := New(MustSchema(Column{"v", KindInt}))
	allNullInt.MustAppend(Tuple{Null})
	allNullInt.MustAppend(Tuple{Null})

	wide := New(MustSchema(Column{"a", KindBool}, Column{"b", KindBool}))
	for i := 0; i < 21; i++ {
		wide.MustAppend(Tuple{NewBool(i%3 == 0), NewBool(i%2 == 0)})
	}

	return map[string]*Relation{
		"all-kinds":     full,
		"mixed-kinds":   mixed,
		"all-null-col":  allNullInt,
		"bool-packing":  wide,
		"empty":         New(MustSchema(Column{"a", KindInt}, Column{"b", KindString})),
		"empty-schema":  New(Schema{}),
		"no-cols-rows":  {Schema: Schema{}, Tuples: []Tuple{{}, {}, {}}},
		"single-string": {Schema: MustSchema(Column{"s", KindString}), Tuples: []Tuple{{NewString("only")}}},
	}
}

// relIdentical compares relations by exact value identity (float bits, so NaN
// and -0.0 round-trips are checked), which is stricter than EqualMultiset.
func relIdentical(a, b *Relation) bool {
	if !a.Schema.Equal(b.Schema) || len(a.Tuples) != len(b.Tuples) {
		return false
	}
	for i := range a.Tuples {
		if len(a.Tuples[i]) != len(b.Tuples[i]) {
			return false
		}
		for j := range a.Tuples[i] {
			if !a.Tuples[i][j].keyEqual(b.Tuples[i][j]) {
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
	a, err := r.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, want) {
		t.Error("shared frame differs from Marshal's")
	}
	if &a[0] != &b[0] {
		t.Error("second envelope re-encoded the relation")
	}
	var back Relation
	if err := back.GobDecode(a); err != nil || !relIdentical(r, &back) {
		t.Errorf("shared frame does not decode back: %v", err)
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
		got, err := dec.Decode()
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if !relIdentical(want, got) {
			t.Errorf("block %d changed in stream round trip", i)
		}
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Errorf("decode past end: err = %v, want io.EOF", err)
	}
}

func TestCodecPooledDecode(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	blocks := make([]*Relation, 5)
	for b := range blocks {
		r := New(MustSchema(Column{"g", KindInt}, Column{"name", KindString}))
		for i := 0; i < 10+b; i++ {
			r.MustAppend(Tuple{NewInt(int64(b*100 + i)), NewString("row")})
		}
		blocks[b] = r
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	var pool BlockPool
	dec := NewDecoder(&buf)
	dec.SetPool(&pool)
	for i, want := range blocks {
		got, err := dec.Decode()
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if !relIdentical(want, got) {
			t.Errorf("pooled block %d changed in round trip", i)
		}
		Recycle(got)
		// Recycle detaches the block from the pool; double-recycle is a no-op.
		Recycle(got)
	}
	// Recycling a non-pooled relation is a no-op too.
	Recycle(blocks[0])
	Recycle(nil)
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

// gobShadow mirrors Relation without the GobEncode hook, giving the honest
// gob baseline the wire format is compared against.
type gobShadow struct {
	Schema Schema
	Tuples []Tuple
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
	if err := gob.NewEncoder(&gobBuf).Encode(&gobShadow{Schema: r.Schema, Tuples: r.Tuples}); err != nil {
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
			// 1-in-4 cells get a random dynamic kind instead of the column
			// kind, exercising the mixed encoding; 1-in-4 are NULL.
			kind := schema[j].Kind
			switch rng.Intn(4) {
			case 0:
				kind = kinds[rng.Intn(len(kinds))]
			case 1:
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
		r.Tuples = append(r.Tuples, t)
	}
	return r
}

// FuzzCodecRoundTrip fuzzes two properties: arbitrary bytes never panic the
// decoder, and randomized relations (derived from the fuzz input as a PRNG
// seed) survive encode/decode unchanged.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		// Property 1: hostile bytes error out, never panic or hang.
		if rel, err := Unmarshal(data); err == nil {
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
