package relation

import (
	"bufio"
	"encoding/csv"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"strconv"
)

// WriteGob serializes the relation to w in the binary format used by the
// data-generation and site tools.
func (r *Relation) WriteGob(w io.Writer) error {
	return gob.NewEncoder(w).Encode(r)
}

// ReadGob deserializes a relation written by WriteGob.
func ReadGob(rd io.Reader) (*Relation, error) {
	var r Relation
	if err := gob.NewDecoder(rd).Decode(&r); err != nil {
		return nil, err
	}
	if err := r.Schema.Validate(); err != nil {
		return nil, err
	}
	// The tools that read partition files edit and scan rows.
	r.ownRows()
	for i, t := range r.Tuples {
		if len(t) != len(r.Schema) {
			return nil, fmt.Errorf("relation: row %d arity %d does not match schema %s", i, len(t), r.Schema)
		}
	}
	return &r, nil
}

// SaveGobFile writes the relation to a file.
func (r *Relation) SaveGobFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := r.WriteGob(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadGobFile reads a relation from a file written by SaveGobFile.
func LoadGobFile(path string) (*Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadGob(bufio.NewReader(f))
}

// WriteCSV writes the relation as CSV with a "name:KIND" header row, for
// inspection and interchange. NULLs are written as empty cells.
func (r *Relation) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, len(r.Schema))
	for i, c := range r.Schema {
		header[i] = c.Name + ":" + c.Kind.String()
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(r.Schema))
	for _, t := range r.Rows() {
		for i, v := range t {
			if v.IsNull() {
				rec[i] = ""
			} else {
				rec[i] = v.String()
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a relation written by WriteCSV, using the typed header to
// convert cells back to values.
func ReadCSV(rd io.Reader) (*Relation, error) {
	cr := csv.NewReader(rd)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: csv header: %w", err)
	}
	schema := make(Schema, len(header))
	for i, h := range header {
		name, kind, err := parseHeaderCell(h)
		if err != nil {
			return nil, err
		}
		schema[i] = Column{Name: name, Kind: kind}
	}
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	out := New(schema)
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation: csv line %d: %w", line, err)
		}
		t := make(Tuple, len(schema))
		for i, cell := range rec {
			v, err := parseCell(cell, schema[i].Kind)
			if err != nil {
				return nil, fmt.Errorf("relation: csv line %d column %s: %w", line, schema[i].Name, err)
			}
			t[i] = v
		}
		out.Tuples = append(out.Tuples, t)
	}
	return out, nil
}

func parseHeaderCell(h string) (string, Kind, error) {
	for i := len(h) - 1; i >= 0; i-- {
		if h[i] == ':' {
			name, kindStr := h[:i], h[i+1:]
			for _, k := range []Kind{KindNull, KindInt, KindFloat, KindString, KindBool} {
				if k.String() == kindStr {
					return name, k, nil
				}
			}
			return "", 0, fmt.Errorf("relation: unknown kind %q in csv header cell %q", kindStr, h)
		}
	}
	return "", 0, fmt.Errorf("relation: csv header cell %q lacks :KIND suffix", h)
}

func parseCell(cell string, kind Kind) (Value, error) {
	if cell == "" {
		return Null, nil
	}
	switch kind {
	case KindInt:
		i, err := strconv.ParseInt(cell, 10, 64)
		if err != nil {
			return Null, err
		}
		return NewInt(i), nil
	case KindFloat:
		f, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return Null, err
		}
		return NewFloat(f), nil
	case KindString:
		return NewString(cell), nil
	case KindBool:
		b, err := strconv.ParseBool(cell)
		if err != nil {
			return Null, err
		}
		return NewBool(b), nil
	default:
		return Null, fmt.Errorf("cannot parse cell into kind %s", kind)
	}
}
