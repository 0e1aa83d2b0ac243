package store

import (
	"context"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"skalla/internal/obs"
	"skalla/internal/relation"
)

func storeSchema() relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "k", Kind: relation.KindInt},
		relation.Column{Name: "v", Kind: relation.KindString},
	)
}

func row(k int64, v string) relation.Tuple {
	return relation.Tuple{relation.NewInt(k), relation.NewString(v)}
}

// rowsRel is n rows (i, v) for i from 0.
func rowsRel(n int, v string) *relation.Relation {
	rel := relation.New(storeSchema())
	for i := int64(0); i < int64(n); i++ {
		rel.MustAppend(row(i, v))
	}
	return rel
}

// materialize reads the whole table through Scan.
func materialize(tbl *Table) (*relation.Relation, error) {
	out := relation.New(tbl.Schema())
	err := tbl.Scan(context.Background(), func(r relation.Tuple) error { return out.Append(r) })
	return out, err
}

// TestCreateFromSegments: a table is its rows in segments of the given size,
// the last one short, and Scan and Images both visit them in order, Images
// as one image per segment with dictionaries of its own.
func TestCreateFromSegments(t *testing.T) {
	src := relation.New(storeSchema())
	for i := int64(0); i < 10; i++ {
		src.MustAppend(row(i, []string{"a", "b", "c", "d"}[i/3]))
	}
	tbl, err := CreateFrom(t.TempDir(), "T", src, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumSegments() != 4 || tbl.Len() != 10 {
		t.Fatalf("segments=%d len=%d", tbl.NumSegments(), tbl.Len())
	}
	var got []int64
	if err := tbl.Scan(context.Background(), func(r relation.Tuple) error {
		got = append(got, r[0].Int)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, k := range got {
		if k != int64(i) || len(got) != 10 {
			t.Fatalf("scan order: %v", got)
		}
	}
	var sizes []int
	var dicts [][]string
	if err := tbl.Images(context.Background(), func(c *relation.Columns) error {
		sizes, dicts = append(sizes, c.Rows), append(dicts, c.Vecs[1].Dict)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := []int{3, 3, 3, 1}; !reflect.DeepEqual(sizes, want) {
		t.Errorf("image sizes %v, want %v", sizes, want)
	}
	if want := [][]string{{"a"}, {"b"}, {"c"}, {"d"}}; !reflect.DeepEqual(dicts, want) {
		t.Errorf("image dictionaries %v, want %v", dicts, want)
	}
	// A hand-built BOOL vector holding 2 is refused as its segment is written.
	raw := relation.FromColumns(relation.MustSchema(relation.Column{Name: "b", Kind: relation.KindBool}),
		&relation.Columns{Rows: 5, Vecs: []relation.Vector{{Kind: relation.KindBool, Ints: []int64{0, 1, 1, 0, 2}}}})
	var off *relation.ErrOffKind
	if _, err := CreateFrom(t.TempDir(), "B", raw, 3); !errors.As(err, &off) || off.Column != "b" || off.Row != 4 {
		t.Errorf("CreateFrom = %v, want an *relation.ErrOffKind naming column b row 4", err)
	}
}

// TestImagesStopWhenCanceled: a scan whose context is canceled while it
// reads the first of several segments stops with context.Canceled before it
// reads the next, whether it walks the images or the boxed rows, and the
// request recorder the context carries is charged the one segment read.
func TestImagesStopWhenCanceled(t *testing.T) {
	tbl, err := CreateFrom(t.TempDir(), "T", rowsRel(10, "v"), 3)
	if err != nil {
		t.Fatal(err)
	}
	walks := map[string]func(context.Context, func()) error{
		"images": func(ctx context.Context, cancel func()) error {
			return tbl.Images(ctx, func(*relation.Columns) error { cancel(); return nil })
		},
		"rows": func(ctx context.Context, cancel func()) error {
			return tbl.Scan(ctx, func(relation.Tuple) error { cancel(); return nil })
		},
	}
	for name, walk := range walks {
		tbl.cache = newSegmentCache(4) // every walk starts cold
		rec := obs.NewSiteRecorder()
		ctx, cancel := context.WithCancel(obs.WithRecorder(context.Background(), rec))
		err := walk(ctx, cancel)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: canceled walk returned %v, want context.Canceled", name, err)
		}
		if b := rec.Snapshot(); b.SegDiskReads != 1 || b.SegCacheReads != 0 || b.SegRowsLoaded != 3 {
			t.Errorf("%s: charged %d disk reads (%d rows) and %d cache reads, want the first segment's one disk read",
				name, b.SegDiskReads, b.SegRowsLoaded, b.SegCacheReads)
		}
	}
}

func TestOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src := rowsRel(25, "v")
	if _, err := CreateFrom(dir, "T", src, 8); err != nil {
		t.Fatal(err)
	}
	tbl, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.name != "T" || tbl.Len() != 25 || tbl.dir != dir {
		t.Errorf("reopened: name=%q len=%d", tbl.name, tbl.Len())
	}
	if !tbl.Schema().Equal(storeSchema()) {
		t.Errorf("schema = %s", tbl.Schema())
	}
	got, err := materialize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualMultiset(src) {
		t.Error("round trip changed rows")
	}
}

func TestScanAbortsOnError(t *testing.T) {
	dir := t.TempDir()
	src := rowsRel(10, "v")
	tbl, err := CreateFrom(dir, "T", src, 4)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	err = tbl.Scan(context.Background(), func(relation.Tuple) error {
		n++
		if n == 3 {
			return os.ErrClosed
		}
		return nil
	})
	if err == nil || n != 3 {
		t.Errorf("scan abort: n=%d err=%v", n, err)
	}
}

func TestSegmentCacheEviction(t *testing.T) {
	dir := t.TempDir()
	src := rowsRel(100, "v")
	tbl, err := CreateFrom(dir, "T", src, 10) // 10 segments > cache cap 4
	if err != nil {
		t.Fatal(err)
	}
	// Repeated full scans exercise eviction; results stay correct.
	for pass := 0; pass < 3; pass++ {
		count := 0
		if err := tbl.Scan(context.Background(), func(relation.Tuple) error { count++; return nil }); err != nil {
			t.Fatal(err)
		}
		if count != 100 {
			t.Fatalf("pass %d: %d rows", pass, count)
		}
	}
	if len(tbl.cache.data) > 4 {
		t.Errorf("cache holds %d segments, cap 4", len(tbl.cache.data))
	}
}

// writeManifest writes m as dir's table manifest.
func writeManifest(t *testing.T, dir string, m tableManifest) {
	t.Helper()
	data, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// Segments are codec frames only: a manifest still naming a pre-codec gob
// segment (bare gob-encoded []Tuple, .gob extension) fails the scan with an
// error naming the segment, and nothing from it is cached.
func TestGobSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	legacy := []relation.Tuple{row(100, "old"), row(101, "old")}
	f, err := os.Create(filepath.Join(dir, "seg00000.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(f).Encode(legacy); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	writeManifest(t, dir, tableManifest{Name: "T", Schema: storeSchema(), SegmentRows: 4,
		Segments: []segmentMeta{{File: "seg00000.gob", Rows: len(legacy)}}})
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := materialize(reopened); err == nil || !strings.Contains(err.Error(), "seg00000.gob") {
		t.Fatalf("scan over a gob segment: err = %v, want an error naming seg00000.gob", err)
	}
	if n := len(reopened.cache.data); n != 0 {
		t.Errorf("failed segment left %d cache entries", n)
	}
}

// TestOlderSegmentRejected: a segment an older build wrote with a column this
// codec packs, INT or FLOAT, fails the scan with an error naming the segment
// file and the table directory to delete, and nothing from it is cached.
func TestOlderSegmentRejected(t *testing.T) {
	prices := relation.New(relation.MustSchema(relation.Column{Name: "p", Kind: relation.KindFloat}))
	for k := 0; k < 8; k++ {
		prices.MustAppend(relation.Tuple{relation.NewFloat(100 + float64(k)/4)})
	}
	for _, tc := range []struct {
		name string
		rows *relation.Relation
		// older is the segment's body as the older build wrote it: every
		// column uniform, one varint, eight bytes or a length-prefixed string
		// a value.
		older func() []byte
	}{
		{"INT", rowsRel(8, "v"), func() []byte {
			// k is a column this codec packs.
			body := relation.AppendSchema([]byte{0x01}, storeSchema())
			body = append(binary.AppendUvarint(body, 8), 0, 0) // rows; k: no NULL, uniform
			for k := int64(0); k < 8; k++ {
				body = binary.AppendVarint(body, k)
			}
			body = append(body, 0, 0) // v: no NULL, uniform
			for k := 0; k < 8; k++ {
				body = relation.AppendString(body, "v")
			}
			return body
		}},
		{"FLOAT", prices, func() []byte {
			// p, 100 to 101.75 in steps of 0.25, is a column this codec packs.
			body := relation.AppendSchema([]byte{0x01}, prices.Schema)
			body = append(binary.AppendUvarint(body, 8), 0, 0) // rows; p: no NULL, uniform
			for k := 0; k < 8; k++ {
				body = binary.LittleEndian.AppendUint64(body, math.Float64bits(100+float64(k)/4))
			}
			return body
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "T.store")
			if _, err := CreateFrom(dir, "T", tc.rows, 8); err != nil {
				t.Fatal(err)
			}
			body := tc.older()
			segment := filepath.Join(dir, "seg00000.seg")
			if err := os.WriteFile(segment, append(binary.AppendUvarint(nil, uint64(len(body))), body...), 0o644); err != nil {
				t.Fatal(err)
			}
			tbl, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			_, err = materialize(tbl)
			if err == nil || !strings.Contains(err.Error(), segment) || !strings.Contains(err.Error(), "delete "+dir) {
				t.Fatalf("scan over an older segment: err = %v, want an error naming %s and saying to delete %s", err, segment, dir)
			}
			if n := len(tbl.cache.data); n != 0 {
				t.Errorf("failed segment left %d cache entries", n)
			}
		})
	}
}

// TestOpenRefusesSegmentOutsideTable: a manifest may name segments only by a
// plain file name in the table directory. Open refuses a path that leaves it,
// before any scan could read the file.
func TestOpenRefusesSegmentOutsideTable(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "T.store")
	if _, err := CreateFrom(dir, "T", rowsRel(6, "v"), 2); err != nil {
		t.Fatal(err)
	}
	outside, err := CreateFrom(filepath.Join(root, "other"), "O", rowsRel(4, "outside"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(outside.dir, "seg00000.seg"), filepath.Join(root, "outside.seg")); err != nil {
		t.Fatal(err)
	}
	for _, file := range []string{"../outside.seg", filepath.Join(root, "outside.seg"), "sub/seg00000.seg", ".", "..", ""} {
		writeManifest(t, dir, tableManifest{Name: "T", Schema: storeSchema(), SegmentRows: 2, Segments: []segmentMeta{
			{File: file, Rows: 4}, {File: "seg00001.seg", Rows: 2},
		}})
		tbl, err := Open(dir)
		var merr *ManifestError
		if !errors.As(err, &merr) || merr.Table != "T" || !strings.Contains(err.Error(), `"T"`) {
			n := -1
			if tbl != nil {
				n = tbl.Len()
			}
			t.Errorf("segment file %q: Open returned err = %v (Len %d), want a *ManifestError naming table T", file, err, n)
		}
	}
}

// TestOpenRefusesNegativeRows: a manifest row count below zero is refused at
// Open, so Len can never go negative.
func TestOpenRefusesNegativeRows(t *testing.T) {
	dir := t.TempDir()
	if _, err := CreateFrom(dir, "T", rowsRel(6, "v"), 2); err != nil {
		t.Fatal(err)
	}
	writeManifest(t, dir, tableManifest{Name: "T", Schema: storeSchema(), SegmentRows: 2, Segments: []segmentMeta{
		{File: "seg00000.seg", Rows: 2}, {File: "seg00001.seg", Rows: -100}, {File: "seg00002.seg", Rows: 2},
	}})
	tbl, err := Open(dir)
	var merr *ManifestError
	if !errors.As(err, &merr) || merr.Table != "T" {
		n := -1
		if tbl != nil {
			n = tbl.Len()
		}
		t.Errorf("Open returned err = %v (Len %d), want a *ManifestError naming table T", err, n)
	}
}

func TestErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := CreateFrom(dir, "T", relation.New(relation.Schema{{Name: "", Kind: relation.KindInt}}), 4); err == nil {
		t.Error("invalid schema must error")
	}
	if _, err := CreateFrom(dir, "T", rowsRel(3, "v"), 4); err != nil {
		t.Fatal(err)
	}
	if _, err := CreateFrom(dir, "T2", rowsRel(3, "v"), 4); err == nil {
		t.Error("double create must error")
	}
	if _, err := Open(t.TempDir()); err == nil {
		t.Error("open without manifest must error")
	}
	// Corrupt manifest.
	bad := t.TempDir()
	if err := os.WriteFile(filepath.Join(bad, manifestName), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad); err == nil {
		t.Error("corrupt manifest must error")
	}
	// Corrupt segment.
	cdir := t.TempDir()
	if _, err := CreateFrom(cdir, "T", rowsRel(1, "a"), 1); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cdir, "seg00000.seg"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	ct, err := Open(cdir)
	if err != nil {
		t.Fatal(err)
	}
	if err := ct.Scan(context.Background(), func(relation.Tuple) error { return nil }); err == nil {
		t.Error("corrupt segment must error on scan")
	}
	// A segment holding other than the manifest's row count.
	rdir := t.TempDir()
	if _, err := CreateFrom(rdir, "T", rowsRel(4, "a"), 2); err != nil {
		t.Fatal(err)
	}
	writeManifest(t, rdir, tableManifest{Name: "T", Schema: storeSchema(), SegmentRows: 2, Segments: []segmentMeta{
		{File: "seg00000.seg", Rows: 2}, {File: "seg00001.seg", Rows: 3},
	}})
	rt, err := Open(rdir)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Images(context.Background(), func(*relation.Columns) error { return nil }); err == nil || !strings.Contains(err.Error(), "manifest says 3") {
		t.Errorf("a segment of 2 rows listed as 3: err = %v", err)
	}
	// Default segment size applies.
	ddir := t.TempDir()
	if _, err := CreateFrom(ddir, "T", rowsRel(1, "a"), 0); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(ddir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m tableManifest
	if err := json.Unmarshal(data, &m); err != nil || m.SegmentRows != DefaultSegmentRows {
		t.Errorf("default segment rows: %d, %v", m.SegmentRows, err)
	}
}

// TestConcurrentScans runs whole-table scans of one Table from several
// goroutines, as concurrent queries at one site do: each must see every row
// in order while they share the segment cache, which holds fewer segments
// than the table has.
func TestConcurrentScans(t *testing.T) {
	const rows = 400
	tbl, err := CreateFrom(t.TempDir(), "T", rowsRel(rows, "x"), 8)
	if err != nil {
		t.Fatal(err)
	}
	const scans = 8
	got := make([][]int64, scans)
	errs := make([]error, scans)
	var wg sync.WaitGroup
	for w := 0; w < scans; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = tbl.Scan(context.Background(), func(r relation.Tuple) error {
				got[w] = append(got[w], r[0].Int)
				return nil
			})
		}(w)
	}
	wg.Wait()
	for w := range got {
		if errs[w] != nil {
			t.Fatalf("scan %d: %v", w, errs[w])
		}
		if len(got[w]) != rows {
			t.Fatalf("scan %d saw %d rows, want %d", w, len(got[w]), rows)
		}
		for i, k := range got[w] {
			if k != int64(i) {
				t.Fatalf("scan %d out of order at %d: %d", w, i, k)
			}
		}
	}
}
