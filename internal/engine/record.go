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
// rows flow through. Sharded evaluation attributes rows per worker because
// the parallel scheduler always hands shard w to worker w — a recorded
// wrapper that tags each Split shard with its index therefore observes
// exactly the per-worker row assignment.

// recordedSource is the optional interface a RowSource implements to bind
// its own internals (e.g. store.Table segment reads) to a request recorder.
type recordedSource interface {
	Recorded(rec *obs.SiteRecorder) gmdj.RowSource
}

// instrument wraps src so the passes made over it are accounted for: scanned
// rows (and, when the source supports it, its internal I/O) are charged to
// rec, and the path each evaluation took to skalla_engine_scan_path_total.
// Under a nil recorder only the path is counted.
func instrument(src gmdj.RowSource, rec *obs.SiteRecorder) gmdj.RowSource {
	if rs, ok := src.(recordedSource); ok && rec != nil {
		src = rs.Recorded(rec)
	}
	return recordedRows{src: src, rec: rec}
}

// recordedRows charges every scanned row to its worker index (0 for
// sequential scans; shard index after a Split).
type recordedRows struct {
	src    gmdj.RowSource
	rec    *obs.SiteRecorder
	worker int
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
	r.rec.AddWorkerRows(r.worker, rows)
	r.rec.NoteScan(false)
	return err
}

// ColumnRange implements gmdj.ColumnSource by delegation; a source without a
// columnar image declines, which keeps the evaluator on Scan.
func (r recordedRows) ColumnRange() (*relation.Columns, int, int) {
	cs, ok := r.src.(gmdj.ColumnSource)
	if !ok {
		return nil, 0, 0
	}
	return cs.ColumnRange()
}

// ChargeColumnScan is the evaluator's notice of one kernel pass over this
// source's range: it is charged the rows a Scan of the range would have been.
func (r recordedRows) ChargeColumnScan() {
	_, lo, hi := r.ColumnRange()
	r.rec.AddWorkerRows(r.worker, int64(hi-lo))
	r.rec.NoteScan(true)
}

// NoteScanPath is the evaluator's notice of the path one evaluation's detail
// passes take and why. Counting here, not in the evaluator, keeps the
// coordinator's and the oracle's evaluations out of the site's counter.
func (r recordedRows) NoteScanPath(path, reason string, passes int) {
	obs.EngineScanPath.With(path, reason).Add(int64(passes))
}

// Split implements gmdj.SplittableSource by delegation: shard i is tagged
// with worker index i. A non-splittable underlying source declines, which
// sends the evaluator down its sequential path.
func (r recordedRows) Split(n int) []gmdj.RowSource {
	ss, ok := r.src.(gmdj.SplittableSource)
	if !ok {
		return nil
	}
	shards := ss.Split(n)
	if len(shards) <= 1 {
		return nil
	}
	r.rec.SetWorkers(len(shards))
	out := make([]gmdj.RowSource, len(shards))
	for i, sh := range shards {
		out[i] = recordedRows{src: sh, rec: r.rec, worker: i}
	}
	return out
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
	src, err := rs.snapshot.DetailSource(name)
	if err != nil {
		return nil, err
	}
	return instrument(src, rs.rec), nil
}
