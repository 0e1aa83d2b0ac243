// Package store implements a disk-backed, segmented table for Skalla sites.
// The paper's local warehouses hold gigabytes of flow records — far more
// than fits in memory — so the site engine scans detail relations through
// the RowSource interface rather than materializing them: a Table splits its
// rows into fixed-size segments on disk (the relation wire codec's
// column-major format, one frame per segment) and streams them through a
// small decoded-segment cache, keeping scan memory bounded by (cache size ×
// segment rows) regardless of table size.
package store

import (
	"bufio"
	"encoding/json"
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

// Table is a disk-backed relation. It implements the engine's RowSource
// contract: Schema/Scan/Len. Tables are append-only; Append buffers rows and
// Flush (or Close) seals the current segment.
type Table struct {
	mu          sync.Mutex
	dir         string
	name        string
	schema      relation.Schema
	segmentRows int
	segments    []segmentMeta
	buf         []relation.Tuple
	total       int

	cache *segmentCache
}

// Create initializes a new table directory (which must not already contain a
// table).
func Create(dir, name string, schema relation.Schema, segmentRows int) (*Table, error) {
	if err := schema.Validate(); err != nil {
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
	t := &Table{
		dir: dir, name: name, schema: schema.Clone(),
		segmentRows: segmentRows,
		cache:       newSegmentCache(4),
	}
	if err := t.writeManifest(); err != nil {
		return nil, err
	}
	return t, nil
}

// Open loads an existing table directory.
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
	t := &Table{
		dir: dir, name: m.Name, schema: m.Schema,
		segmentRows: m.SegmentRows, segments: m.Segments,
		cache: newSegmentCache(4),
	}
	for _, seg := range m.Segments {
		t.total += seg.Rows
	}
	return t, nil
}

// CreateFrom builds a table from a materialized relation (the conversion
// path for tpcgen output).
func CreateFrom(dir, name string, rel *relation.Relation, segmentRows int) (*Table, error) {
	t, err := Create(dir, name, rel.Schema, segmentRows)
	if err != nil {
		return nil, err
	}
	for _, row := range rel.Rows() {
		if err := t.Append(row); err != nil {
			return nil, err
		}
	}
	if err := t.Flush(); err != nil {
		return nil, err
	}
	return t, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Dir returns the table directory.
func (t *Table) Dir() string { return t.dir }

// Schema implements the RowSource contract.
func (t *Table) Schema() relation.Schema { return t.schema }

// Len implements the RowSource contract (buffered rows included).
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total + len(t.buf)
}

// NumSegments returns the sealed segment count.
func (t *Table) NumSegments() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.segments)
}

// Append adds one row, sealing a segment when the buffer fills.
func (t *Table) Append(row relation.Tuple) error {
	if len(row) != len(t.schema) {
		return fmt.Errorf("store: row arity %d does not match schema %s", len(row), t.schema)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, row)
	if len(t.buf) >= t.segmentRows {
		return t.sealLocked()
	}
	return nil
}

// Flush seals any buffered rows into a segment and persists the manifest.
func (t *Table) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.buf) > 0 {
		if err := t.sealLocked(); err != nil {
			return err
		}
	}
	return t.writeManifestLocked()
}

func (t *Table) sealLocked() error {
	file := fmt.Sprintf("seg%05d.seg", len(t.segments))
	f, err := os.Create(filepath.Join(t.dir, file))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	seg := relation.New(t.schema)
	for _, row := range t.buf {
		seg.MustAppend(row)
	}
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
	t.segments = append(t.segments, segmentMeta{File: file, Rows: len(t.buf)})
	t.total += len(t.buf)
	t.buf = nil
	return t.writeManifestLocked()
}

func (t *Table) writeManifest() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.writeManifestLocked()
}

func (t *Table) writeManifestLocked() error {
	m := tableManifest{Name: t.name, Schema: t.schema, SegmentRows: t.segmentRows, Segments: t.segments}
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(t.dir, manifestName), append(data, '\n'), 0o644)
}

// Scan implements the RowSource contract: it streams every row through fn in
// segment order, decoding one segment at a time (with a small LRU of decoded
// segments for re-scans). fn errors abort the scan.
func (t *Table) Scan(fn func(relation.Tuple) error) error { return t.scanWith(nil, fn) }

func (t *Table) scanWith(rec *obs.SiteRecorder, fn func(relation.Tuple) error) error {
	t.mu.Lock()
	segs := append([]segmentMeta{}, t.segments...)
	buffered := append([]relation.Tuple{}, t.buf...)
	t.mu.Unlock()
	for i, seg := range segs {
		rows, err := t.loadSegment(rec, i, seg)
		if err != nil {
			return err
		}
		for _, row := range rows {
			if err := fn(row); err != nil {
				return err
			}
		}
	}
	for _, row := range buffered {
		if err := fn(row); err != nil {
			return err
		}
	}
	return nil
}

// Materialize reads the whole table into memory (tests and small tables).
func (t *Table) Materialize() (*relation.Relation, error) {
	out := relation.New(t.schema)
	err := t.Scan(func(row relation.Tuple) error {
		out.MustAppend(row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (t *Table) loadSegment(rec *obs.SiteRecorder, ord int, seg segmentMeta) ([]relation.Tuple, error) {
	if rows, ok := t.cache.get(ord); ok {
		obs.StoreSegmentReads.With("cache").Inc()
		rec.AddSegRead(false, 0)
		return rows, nil
	}
	obs.StoreSegmentReads.With("disk").Inc()
	f, err := os.Open(filepath.Join(t.dir, seg.File))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rel, err := relation.NewDecoder(bufio.NewReader(f)).Decode()
	if err != nil {
		return nil, fmt.Errorf("store: segment %s: %w", seg.File, err)
	}
	if !rel.Schema.Equal(t.schema) {
		return nil, fmt.Errorf("store: segment %s schema %s does not match table schema %s",
			seg.File, rel.Schema, t.schema)
	}
	rows := rel.Rows()
	if len(rows) != seg.Rows {
		return nil, fmt.Errorf("store: segment %s has %d rows, manifest says %d", seg.File, len(rows), seg.Rows)
	}
	obs.StoreSegmentRows.Add(int64(len(rows)))
	rec.AddSegRead(true, int64(len(rows)))
	t.cache.put(ord, rows)
	return rows, nil
}

// Recorded returns a view of the table that charges segment reads to rec in
// addition to the process-wide counters. The engine wraps detail sources this
// way per request, so /debug/queries profiles carry per-query segment I/O;
// the underlying table (and its segment cache) is shared as usual.
func (t *Table) Recorded(rec *obs.SiteRecorder) gmdj.RowSource {
	if rec == nil {
		return t
	}
	return recordedTable{t: t, rec: rec}
}

// recordedTable binds a Table to one request's recorder.
type recordedTable struct {
	t   *Table
	rec *obs.SiteRecorder
}

// Schema implements the RowSource contract.
func (r recordedTable) Schema() relation.Schema { return r.t.schema }

// Len implements the RowSource contract.
func (r recordedTable) Len() int { return r.t.Len() }

// Scan implements the RowSource contract, charging segment reads to the
// recorder.
func (r recordedTable) Scan(fn func(relation.Tuple) error) error { return r.t.scanWith(r.rec, fn) }

// segmentCache is a tiny LRU of decoded segments, keyed by segment ordinal:
// scans hit it once per segment per pass, and integer keys keep those lookups
// off the string-hashing path (and satisfy the stringkey lint).
type segmentCache struct {
	mu    sync.Mutex
	cap   int
	order []int
	data  map[int][]relation.Tuple
}

func newSegmentCache(capacity int) *segmentCache {
	return &segmentCache{cap: capacity, data: make(map[int][]relation.Tuple)}
}

func (c *segmentCache) get(key int) ([]relation.Tuple, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rows, ok := c.data[key]
	if ok {
		c.touch(key)
	}
	return rows, ok
}

func (c *segmentCache) put(key int, rows []relation.Tuple) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.data[key]; !exists && len(c.data) >= c.cap {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.data, oldest)
	}
	c.data[key] = rows
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
