package engine

import (
	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/relation"
)

// Per-request evaluation accounting. The gmdj evaluator stays context-free
// (its interfaces are pure catalog/scan surfaces), so per-query attribution
// happens here: detail sources are wrapped in recording adapters before they
// reach the evaluator, and the adapters charge the request's SiteRecorder as
// rows flow through.

// recordedSource is the optional interface a source implements to bind its
// own internals (e.g. store.Table segment reads) to a request recorder.
type recordedSource interface {
	Recorded(rec *obs.SiteRecorder) gmdj.ColumnSource
}

// instrument wraps src so the passes made over it are accounted for: scanned
// rows (and, when the source supports it, its internal I/O) are charged to
// rec, and the path each evaluation took to skalla_engine_scan_path_total.
// Under a nil recorder only the path is counted.
func instrument(src gmdj.ColumnSource, rec *obs.SiteRecorder) gmdj.ColumnSource {
	if rs, ok := src.(recordedSource); ok && rec != nil {
		src = rs.Recorded(rec)
	}
	return recordedRows{src: src, rec: rec}
}

// recordedRows charges every scanned row to the request.
type recordedRows struct {
	src gmdj.ColumnSource
	rec *obs.SiteRecorder
}

// Schema implements the RowSource contract.
func (r recordedRows) Schema() relation.Schema { return r.src.Schema() }

// Len implements the RowSource contract.
func (r recordedRows) Len() int { return r.src.Len() }

// Scan implements the RowSource contract: one recorder add per scan, never
// per row, mirroring the process-wide counter discipline.
func (r recordedRows) Scan(fn func(relation.Tuple) error) error {
	if r.rec == nil {
		return r.src.Scan(fn)
	}
	rows := int64(0)
	err := r.src.Scan(func(t relation.Tuple) error {
		rows++
		return fn(t)
	})
	r.rec.AddRows(rows)
	r.rec.NoteScan(false)
	return err
}

// Images implements gmdj.ColumnSource by delegation.
func (r recordedRows) Images(fn func(*relation.Columns) error) error { return r.src.Images(fn) }

// ChargeColumnScan is the evaluator's notice of one kernel pass over this
// source: it is charged the rows a Scan would have been.
func (r recordedRows) ChargeColumnScan() {
	r.rec.AddRows(int64(r.Len()))
	r.rec.NoteScan(true)
}

// NoteScanPath is the evaluator's notice of the path one evaluation's detail
// passes take and why. Counting here, not in the evaluator, keeps the
// coordinator's and the oracle's evaluations out of the site's counter.
func (r recordedRows) NoteScanPath(path, reason string, passes int) {
	obs.EngineScanPath.With(path, reason).Add(int64(passes))
}

// recordedSnapshot is a catalog snapshot whose detail sources come out
// instrumented — the DataSource the prefix evaluator sees under an EvalLocal
// request.
type recordedSnapshot struct {
	snapshot
	rec *obs.SiteRecorder
}

// DetailSource implements gmdj.DataSource.
func (rs recordedSnapshot) DetailSource(name string) (gmdj.RowSource, error) {
	src, err := rs.snapshot.source(name)
	if err != nil {
		return nil, err
	}
	return instrument(src, rs.rec), nil
}
