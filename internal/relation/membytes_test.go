package relation

import "testing"

func TestMemBytes(t *testing.T) {
	var nilRel *Relation
	if got := nilRel.MemBytes(); got != 0 {
		t.Fatalf("nil relation MemBytes = %d, want 0", got)
	}

	schema := MustSchema(
		Column{Name: "g", Kind: KindInt},
		Column{Name: "s", Kind: KindString},
	)
	r := New(schema)
	if got, want := r.MemBytes(), int64(2*TupleMemBytes); got != want {
		t.Fatalf("empty relation MemBytes = %d, want %d (schema headers)", got, want)
	}

	// A row costs an INT (8), a code (4), a dictionary entry (16) and its
	// string's bytes.
	r.MustAppend(Tuple{NewInt(1), NewString("abcd")})
	perRow := int64(8 + 4 + 16)
	if got, want := r.MemBytes(), int64(2*TupleMemBytes)+perRow+4; got != want {
		t.Fatalf("1-row MemBytes = %d, want %d", got, want)
	}

	r.MustAppend(Tuple{NewInt(2), NewString("")})
	if got, want := r.MemBytes(), int64(2*TupleMemBytes)+2*perRow+4; got != want {
		t.Fatalf("2-row MemBytes = %d, want %d", got, want)
	}

	// A NULL costs a bitmap word.
	r.MustAppend(Tuple{NewInt(3), Null})
	if got, want := r.MemBytes(), int64(2*TupleMemBytes)+3*8+3*4+2*16+4+8; got != want {
		t.Fatalf("3-row MemBytes = %d, want %d", got, want)
	}
}
