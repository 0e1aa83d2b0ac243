// Package store implements a disk-backed, segmented table for Skalla sites.
// The paper's local warehouses hold gigabytes of flow records — far more
// than fits in memory — so a site may serve a partition from disk rather
// than materializing it: a Table splits its rows into fixed-size segments on
// disk (the relation wire codec's column-major format, one frame per
// segment) and hands the scan kernels one segment's columnar image at a time
// through a small cache of images, keeping scan memory bounded by (cache
// size × segment rows) regardless of table size.
package store

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/relation"
)

// DefaultSegmentRows is the default segment granularity.
const DefaultSegmentRows = 4096

// manifestName is the table descriptor file inside the table directory.
const manifestName = "table.json"

// tableManifest is the persisted table metadata.
type tableManifest struct {
	Name        string          `json:"name"`
	Schema      relation.Schema `json:"schema"`
	SegmentRows int             `json:"segmentRows"`
	Segments    []segmentMeta   `json:"segments"`
}

type segmentMeta struct {
	File string `json:"file"`
	Rows int    `json:"rows"`
}

// ManifestError reports a table manifest that Open refuses: one naming a
// segment file outside the table directory, or a negative row count.
type ManifestError struct {
	Dir, Table string
	Reason     string
}

func (e *ManifestError) Error() string {
	return fmt.Sprintf("store: table %q in %s: %s", e.Table, e.Dir, e.Reason)
}

// Table is a disk-backed relation, immutable once written: a
// gmdj.ColumnSource whose images are its segments, in order.
type Table struct {
	dir      string
	name     string
	schema   relation.Schema
	segments []segmentMeta
	total    int

	cache *segmentCache
}

// CreateFrom writes rel as a new table in dir (which must not already
// contain one), segmentRows rows to a segment (DefaultSegmentRows when not
// positive): the conversion path for tpcgen output.
func CreateFrom(dir, name string, rel *relation.Relation, segmentRows int) (*Table, error) {
	if err := rel.Schema.Validate(); err != nil {
		return nil, err
	}
	if segmentRows <= 0 {
		segmentRows = DefaultSegmentRows
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		return nil, fmt.Errorf("store: %s already contains a table", dir)
	}
	t := &Table{dir: dir, name: name, schema: rel.Schema.Clone(), cache: newSegmentCache(4)}
	for lo := 0; lo < rel.Len(); lo += segmentRows {
		sel := make([]int32, min(segmentRows, rel.Len()-lo))
		for i := range sel {
			sel[i] = int32(lo + i)
		}
		if err := t.writeSegment(relation.FromColumns(t.schema, rel.Columns().Select(sel, nil))); err != nil {
			var off *relation.ErrOffKind
			if errors.As(err, &off) {
				off.Row += lo // the segment's row, as rel's
			}
			return nil, err
		}
	}
	m := tableManifest{Name: t.name, Schema: t.schema, SegmentRows: segmentRows, Segments: t.segments}
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	return t, nil
}

// writeSegment writes seg as the table's next segment file.
func (t *Table) writeSegment(seg *relation.Relation) error {
	file := fmt.Sprintf("seg%05d.seg", len(t.segments))
	f, err := os.Create(filepath.Join(t.dir, file))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := relation.NewEncoder(bw).Encode(seg); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	t.segments = append(t.segments, segmentMeta{File: file, Rows: seg.Len()})
	t.total += seg.Len()
	return nil
}

// Open loads an existing table directory. It refuses a manifest naming a
// segment file that is not a plain name inside the directory, or a negative
// row count, with a *ManifestError.
func Open(dir string) (*Table, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	var m tableManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("store: %s: %w", dir, err)
	}
	if err := m.Schema.Validate(); err != nil {
		return nil, err
	}
	t := &Table{dir: dir, name: m.Name, schema: m.Schema, segments: m.Segments, cache: newSegmentCache(4)}
	for i, seg := range m.Segments {
		if f := seg.File; filepath.Base(f) != f || f == "." || f == ".." {
			return nil, &ManifestError{Dir: dir, Table: m.Name, Reason: fmt.Sprintf("segment %d file %q is not a file name in the table directory", i, f)}
		}
		if seg.Rows < 0 {
			return nil, &ManifestError{Dir: dir, Table: m.Name, Reason: fmt.Sprintf("segment %d has %d rows", i, seg.Rows)}
		}
		t.total += seg.Rows
	}
	return t, nil
}

// Schema implements gmdj.RowSource.
func (t *Table) Schema() relation.Schema { return t.schema }

// Len implements gmdj.RowSource.
func (t *Table) Len() int { return t.total }

// NumSegments returns the segment count.
func (t *Table) NumSegments() int { return len(t.segments) }

// Scan implements gmdj.RowSource: the segments' images, boxed.
func (t *Table) Scan(ctx context.Context, fn func(relation.Tuple) error) error {
	return gmdj.ScanImages(ctx, t, fn)
}

// Images implements gmdj.ColumnSource: each segment's image in order,
// decoded on a cache miss. fn errors abort the scan, and a canceled ctx stops
// it before the next segment is read.
func (t *Table) Images(ctx context.Context, fn func(*relation.Columns) error) error {
	for i, seg := range t.segments {
		if err := ctx.Err(); err != nil {
			return err
		}
		cols, err := t.loadSegment(ctx, i, seg)
		if err != nil {
			return err
		}
		if err := fn(cols); err != nil {
			return err
		}
	}
	return nil
}

// loadSegment returns segment ord's image: from the cache, or decoded from
// its file, checked against the table's schema and the manifest's row count,
// and imaged through relation.BuildColumns. A segment that does not decode —
// one an older build wrote in a form this codec refuses, say — fails naming
// its file and the table directory to delete. The read is charged to the
// request recorder ctx carries.
func (t *Table) loadSegment(ctx context.Context, ord int, seg segmentMeta) (*relation.Columns, error) {
	rec := obs.RecorderFrom(ctx)
	if cols, ok := t.cache.get(ord); ok {
		rec.AddSegRead(false, 0)
		return cols, nil
	}
	f, err := os.Open(filepath.Join(t.dir, seg.File))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rel, err := relation.NewDecoder(bufio.NewReader(f)).Decode(nil)
	if err != nil {
		return nil, fmt.Errorf("store: segment %s: %w (a segment an older build wrote does not decode; delete %s to regenerate the table)",
			filepath.Join(t.dir, seg.File), err, t.dir)
	}
	if !rel.Schema.Equal(t.schema) {
		return nil, fmt.Errorf("store: segment %s schema %s does not match table schema %s",
			seg.File, rel.Schema, t.schema)
	}
	if rel.Len() != seg.Rows {
		return nil, fmt.Errorf("store: segment %s has %d rows, manifest says %d", seg.File, rel.Len(), seg.Rows)
	}
	cols, err := relation.BuildColumns(rel)
	if err != nil {
		return nil, fmt.Errorf("store: segment %s: %w", seg.File, err)
	}
	rec.AddSegRead(true, int64(cols.Rows))
	t.cache.put(ord, cols)
	return cols, nil
}

// segmentCache is a tiny LRU of segment images, keyed by segment ordinal:
// scans hit it once per segment per pass, and integer keys keep those lookups
// off the string-hashing path (and satisfy the stringkey lint).
type segmentCache struct {
	mu    sync.Mutex
	cap   int
	order []int
	data  map[int]*relation.Columns
}

func newSegmentCache(capacity int) *segmentCache {
	return &segmentCache{cap: capacity, data: make(map[int]*relation.Columns)}
}

func (c *segmentCache) get(key int) (*relation.Columns, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cols, ok := c.data[key]
	if ok {
		c.touch(key)
	}
	return cols, ok
}

func (c *segmentCache) put(key int, cols *relation.Columns) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.data[key]; !exists && len(c.data) >= c.cap {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.data, oldest)
	}
	c.data[key] = cols
	c.touch(key)
}

func (c *segmentCache) touch(key int) {
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	c.order = append(c.order, key)
}
