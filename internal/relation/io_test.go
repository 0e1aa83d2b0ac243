package relation

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"strings"
	"testing"
)

func ioTestRel() *Relation {
	r := New(MustSchema(
		Column{"id", KindInt},
		Column{"price", KindFloat},
		Column{"name", KindString},
		Column{"flag", KindBool},
	))
	r.MustAppend(Tuple{NewInt(1), NewFloat(2.5), NewString("a,b\"c"), NewBool(true)})
	r.MustAppend(Tuple{NewInt(-7), Null, NewString(""), NewBool(false)})
	r.MustAppend(Tuple{Null, NewFloat(0), NewString("line\nbreak"), Null})
	return r
}

// TestUnmarshalRejectsCorruptPartition: partition files are codec frames, and
// Unmarshal refuses what the gob reader they replace refused — bytes that are
// not a frame (a gob partition among them), a schema with an empty or
// repeated column name — while vectors that disagree with their schema never
// become a frame.
func TestUnmarshalRejectsCorruptPartition(t *testing.T) {
	var gobFile bytes.Buffer
	if err := gob.NewEncoder(&gobFile).Encode(struct{ Rows []Tuple }{ioTestRel().Rows()}); err != nil {
		t.Fatal(err)
	}
	frame := func(s Schema) []byte {
		body := AppendSchema([]byte{frameInline}, s)
		body = append(body, 0) // no rows: each column is its encoding byte
		for range s {
			body = append(body, encUniform)
		}
		return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
	}
	for name, data := range map[string][]byte{
		"not a frame":    []byte("not a frame"),
		"gob partition":  gobFile.Bytes(),
		"empty name":     frame(Schema{{Name: "", Kind: KindInt}}),
		"duplicate name": frame(Schema{{"a", KindInt}, {"a", KindString}}),
	} {
		if _, err := Unmarshal(data); err == nil {
			t.Errorf("%s: Unmarshal accepted it", name)
		}
	}
	if _, err := Unmarshal(frame(Schema{{"a", KindInt}})); err != nil {
		t.Fatalf("the valid control frame: %v", err)
	}
	bad := FromColumns(MustSchema(Column{"a", KindInt}), &Columns{Rows: 1, Vecs: New(MustSchema(Column{"a", KindInt}, Column{"b", KindInt})).Columns().Vecs})
	if _, err := Marshal(bad); err == nil {
		t.Error("arity mismatch must be rejected at encode time")
	}
}

// NULL round-trips through CSV only when the column's empty-string encoding
// is unambiguous; the string "" and NULL collide by design, so compare field
// by field except that case.
func TestCSVRoundTrip(t *testing.T) {
	r := ioTestRel()
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Schema.Equal(r.Schema) {
		t.Fatalf("schema: %s vs %s", got.Schema, r.Schema)
	}
	if got.Len() != r.Len() {
		t.Fatalf("rows: %d vs %d", got.Len(), r.Len())
	}
	for i := 0; i < r.Len(); i++ {
		for j := range r.Schema {
			want := r.Value(i, j)
			if want.Kind == KindString && want.Str == "" {
				want = Null // empty string reads back as NULL
			}
			if !got.Value(i, j).Equal(want) {
				t.Errorf("cell [%d][%d]: %v vs %v", i, j, got.Value(i, j), want)
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",                  // no header
		"a\n1",              // missing kind
		"a:WEIRD\n1",        // unknown kind
		"a:INT\nxx",         // bad int
		"a:FLOAT\nxx",       // bad float
		"a:BOOL\nxx",        // bad bool
		"a:INT,a:INT\n1,2",  // duplicate columns
		"a:NULL\nsomething", // cannot parse into NULL kind
	}
	for _, src := range cases {
		if _, err := ReadCSV(strings.NewReader(src)); err == nil {
			t.Errorf("ReadCSV(%q): expected error", src)
		}
	}
	// Valid minimal file.
	got, err := ReadCSV(strings.NewReader("a:INT,b:STRING\n1,x\n,\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || !got.Value(1, 0).IsNull() {
		t.Errorf("parsed: %s", got)
	}
}
