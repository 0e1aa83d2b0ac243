package store

import (
	"encoding/gob"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

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

func TestCreateAppendScan(t *testing.T) {
	dir := t.TempDir()
	tbl, err := Create(dir, "T", storeSchema(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if err := tbl.Append(row(i, "x")); err != nil {
			t.Fatal(err)
		}
	}
	// 10 rows at 3/segment: 3 sealed segments + 1 buffered row.
	if tbl.NumSegments() != 3 || tbl.Len() != 10 {
		t.Fatalf("segments=%d len=%d", tbl.NumSegments(), tbl.Len())
	}
	// Scan sees sealed + buffered rows in order.
	var got []int64
	if err := tbl.Scan(func(r relation.Tuple) error {
		got = append(got, r[0].Int)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, k := range got {
		if k != int64(i) {
			t.Fatalf("scan order: %v", got)
		}
	}
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	if tbl.NumSegments() != 4 {
		t.Errorf("after flush: %d segments", tbl.NumSegments())
	}
}

func TestOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src := relation.New(storeSchema())
	for i := int64(0); i < 25; i++ {
		src.MustAppend(row(i, "v"))
	}
	if _, err := CreateFrom(dir, "T", src, 8); err != nil {
		t.Fatal(err)
	}
	tbl, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Name() != "T" || tbl.Len() != 25 || tbl.Dir() != dir {
		t.Errorf("reopened: name=%q len=%d", tbl.Name(), tbl.Len())
	}
	if !tbl.Schema().Equal(storeSchema()) {
		t.Errorf("schema = %s", tbl.Schema())
	}
	got, err := tbl.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualMultiset(src) {
		t.Error("round trip changed rows")
	}
}

func TestScanAbortsOnError(t *testing.T) {
	dir := t.TempDir()
	src := relation.New(storeSchema())
	for i := int64(0); i < 10; i++ {
		src.MustAppend(row(i, "v"))
	}
	tbl, err := CreateFrom(dir, "T", src, 4)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	err = tbl.Scan(func(relation.Tuple) error {
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
	src := relation.New(storeSchema())
	for i := int64(0); i < 100; i++ {
		src.MustAppend(row(i, "v"))
	}
	tbl, err := CreateFrom(dir, "T", src, 10) // 10 segments > cache cap 4
	if err != nil {
		t.Fatal(err)
	}
	// Repeated full scans exercise eviction; results stay correct.
	for pass := 0; pass < 3; pass++ {
		count := 0
		if err := tbl.Scan(func(relation.Tuple) error { count++; return nil }); err != nil {
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

// Segments are codec frames only: a manifest still naming a pre-codec gob
// segment (bare gob-encoded []Tuple, .gob extension) fails the scan with an
// error naming the segment, and nothing from it is cached.
func TestGobSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	tbl, err := Create(dir, "T", storeSchema(), 4)
	if err != nil {
		t.Fatal(err)
	}
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
	tbl.segments = append(tbl.segments, segmentMeta{File: "seg00000.gob", Rows: len(legacy)})
	tbl.total += len(legacy)
	if err := tbl.writeManifest(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reopened.Materialize(); err == nil || !strings.Contains(err.Error(), "seg00000.gob") {
		t.Fatalf("scan over a gob segment: err = %v, want an error naming seg00000.gob", err)
	}
	if n := len(reopened.cache.data); n != 0 {
		t.Errorf("failed segment left %d cache entries", n)
	}
}

func TestErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, "T", relation.Schema{{Name: "", Kind: relation.KindInt}}, 4); err == nil {
		t.Error("invalid schema must error")
	}
	if _, err := Create(dir, "T", storeSchema(), 4); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, "T2", storeSchema(), 4); err == nil {
		t.Error("double create must error")
	}
	tbl, _ := Open(dir)
	if err := tbl.Append(relation.Tuple{relation.NewInt(1)}); err == nil {
		t.Error("arity mismatch must error")
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
	src := relation.New(storeSchema())
	src.MustAppend(row(1, "a"))
	if _, err := CreateFrom(cdir, "T", src, 1); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cdir, "seg00000.seg"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	ct, err := Open(cdir)
	if err != nil {
		t.Fatal(err)
	}
	if err := ct.Scan(func(relation.Tuple) error { return nil }); err == nil {
		t.Error("corrupt segment must error on scan")
	}
	// Default segment size applies.
	dt, err := Create(t.TempDir(), "T", storeSchema(), 0)
	if err != nil || dt.segmentRows != DefaultSegmentRows {
		t.Errorf("default segment rows: %d, %v", dt.segmentRows, err)
	}
}

// TestConcurrentScans runs whole-table scans of one Table from several
// goroutines, as concurrent queries at one site do: each must see every row
// in order while they share the segment cache, which holds fewer segments
// than the table has.
func TestConcurrentScans(t *testing.T) {
	dir := t.TempDir()
	tbl, err := Create(dir, "T", storeSchema(), 8)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 400
	for i := int64(0); i < rows; i++ {
		if err := tbl.Append(row(i, "x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Flush(); err != nil {
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
			errs[w] = tbl.Scan(func(r relation.Tuple) error {
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
