package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

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
// convert cells back to values. A cell that does not parse as its column's
// kind is refused as the off-kind STRING it is (*ErrOffKind).
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
	t := make(Tuple, len(schema))
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		for i := 0; err == nil && i < len(rec); i++ {
			if t[i], err = parseCell(rec[i], schema[i].Kind); err != nil {
				err = &ErrOffKind{Column: schema[i].Name, Row: out.Len(), Kind: schema[i].Kind, Cell: NewString(rec[i])}
			}
		}
		if err == nil {
			err = out.Append(t)
		}
		if err != nil {
			return nil, fmt.Errorf("relation: csv line %d: %w", line, err)
		}
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
