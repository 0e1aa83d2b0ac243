package relation

import (
	"math"
	"slices"
	"sort"
	"testing"
)

// poison sets every element of every buffer of s, handed out or not, to
// garbage, as a round that decoded into the slabs before leaves them at
// worst.
func (s *Slabs) poison() {
	fill(&s.vecs, Vector{Kind: KindBool, Ints: []int64{-1}, Dict: []string{"poison"}, Nulls: []uint64{^uint64(0)}})
	fill(&s.ints, -0x5555555555555556)
	fill(&s.floats, math.Float64frombits(0x7ff8dead0000beef))
	fill(&s.codes, math.MaxUint32)
	fill(&s.dict, "poison")
	fill(&s.nulls, ^uint64(0))
}

func fill[T any](sl *slab[T], v T) {
	for i := range sl.buf {
		sl.buf[i] = v
	}
}

// sameVectors reports whether a and b hold the same schema and exactly the
// same vectors: kinds, every slice's contents, length, capacity and
// nil-ness, the slots under NULLs, the bitmap's padding bits and FLOAT bits
// included.
func sameVectors(a, b *Relation) bool {
	if !a.Schema.Equal(b.Schema) || a.Len() != b.Len() || len(a.cols.Vecs) != len(b.cols.Vecs) {
		return false
	}
	for j := range a.cols.Vecs {
		u, v := &a.cols.Vecs[j], &b.cols.Vecs[j]
		floats := len(u.Floats) == len(v.Floats)
		for i := 0; floats && i < len(u.Floats); i++ {
			floats = math.Float64bits(u.Floats[i]) == math.Float64bits(v.Floats[i])
		}
		if u.Kind != v.Kind || !floats || u.codeOf != nil || v.codeOf != nil ||
			!sameElems(u.Ints, v.Ints) || !sameElems(u.Codes, v.Codes) || !sameElems(u.Dict, v.Dict) ||
			!sameElems(u.Nulls, v.Nulls) || !sameShape(u.Floats, v.Floats) {
			return false
		}
	}
	return true
}

// sameElems reports whether a and b are equal in contents and shape.
func sameElems[T comparable](a, b []T) bool { return slices.Equal(a, b) && sameShape(a, b) }

// sameShape reports whether a and b agree in length, capacity and nil-ness.
func sameShape[T any](a, b []T) bool {
	return len(a) == len(b) && cap(a) == cap(b) && (a == nil) == (b == nil)
}

// TestDecodeIntoReusedSlabs: one set of slabs, poisoned before each pass,
// decodes a series of frames — every codec case, those of
// TestCodecPacksAtTheEdges among them, every non-canonical frame's accepted
// twin and every worst-case frame — each to exactly the vectors Unmarshal
// builds on the heap, and no frame's decode writes another's: every result
// is checked once the whole series is decoded. The first pass finds the
// slabs empty and grows them at its Reset; the second decodes out of them.
// The refused frames are still refused.
func TestDecodeIntoReusedSlabs(t *testing.T) {
	frames := map[string][]byte{}
	for name, r := range codecCases() {
		data, err := Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		frames["case/"+name] = data
	}
	refused, accepted := nonCanonicalFrames()
	for name, data := range accepted {
		frames["accepted/"+name] = data
	}
	for name, data := range worstCaseFrames() {
		frames["worst/"+name] = data
	}
	names := make([]string, 0, len(frames))
	for name := range frames {
		names = append(names, name)
	}
	sort.Strings(names)

	var s Slabs
	for pass := 0; pass < 2; pass++ {
		s.Reset()
		s.poison()
		got := make([]*Relation, len(names))
		for i, name := range names {
			var err error
			if got[i], err = NewCursor(frames[name]).Relation(&s); err != nil {
				t.Fatalf("pass %d, %s: %v", pass, name, err)
			}
		}
		for i, name := range names {
			want, err := Unmarshal(frames[name])
			if err != nil {
				t.Fatalf("%s: Unmarshal: %v", name, err)
			}
			if !sameVectors(got[i], want) {
				t.Errorf("pass %d, %s: decoded into slabs\n%s\non the heap\n%s", pass, name, got[i], want)
			}
		}
		if pass == 0 {
			continue
		}
		for kind, took := range map[string][2]int{"vectors": {s.vecs.used, s.vecs.want}, "ints": {s.ints.used, s.ints.want},
			"floats": {s.floats.used, s.floats.want}, "codes": {s.codes.used, s.codes.want},
			"dictionaries": {s.dict.used, s.dict.want}, "bitmaps": {s.nulls.used, s.nulls.want}} {
			if took[0] != took[1] || took[1] == 0 {
				t.Errorf("the second pass took %d of its %d %s out of the slabs' buffers", took[0], took[1], kind)
			}
		}
	}
	for name, data := range refused {
		s.Reset()
		s.poison()
		if _, err := NewCursor(data).Relation(&s); err == nil {
			t.Errorf("%s: decoded into slabs, want refused", name)
		}
	}
}

// TestSlabsResetClearsWhatTheyLent: Reset empties the vectors handed out of
// the buffers, so a header held past it reads no rows, and drops the strings
// its dictionaries held; the next decode comes out of the same buffers.
func TestSlabsResetClearsWhatTheyLent(t *testing.T) {
	data, err := Marshal(codecCases()["all-kinds"])
	if err != nil {
		t.Fatal(err)
	}
	var s Slabs
	if _, err := NewCursor(data).Relation(&s); err != nil {
		t.Fatal(err)
	}
	s.Reset() // grows the buffers to the frame
	held, err := NewCursor(data).Relation(&s)
	if err != nil {
		t.Fatal(err)
	}
	if s.vecs.used == 0 || s.dict.used == 0 {
		t.Fatalf("the second decode did not come out of the buffers")
	}
	lent := s.Lent()
	s.Reset()
	for j, v := range held.cols.Vecs {
		if v.Kind != KindNull || v.Ints != nil || v.Dict != nil || v.Codes != nil {
			t.Errorf("column %d still holds %+v after the reset", j, v)
		}
	}
	for i, str := range s.dict.buf {
		if str != "" {
			t.Errorf("dictionary slot %d keeps %q", i, str)
		}
	}
	again, err := NewCursor(data).Relation(&s)
	if err != nil {
		t.Fatal(err)
	}
	if s.Lent() != lent || &again.cols.Vecs[0] != &s.vecs.buf[0] {
		t.Errorf("the third decode lent %d bytes, the second %d, or did not reuse the buffers", s.Lent(), lent)
	}
}
