package gmdj

import (
	"sync"

	"skalla/internal/agg"
	"skalla/internal/relation"
)

// Operator fan-in: several registered consumers — concurrent queries whose
// current MD operators aggregate over the same detail relation — share ONE
// scan of the detail partition. Each detail row is offered to every job's
// grouping-variable feeders, so the scan cost (the dominant site-side cost
// for disk-backed partitions) is paid once per round instead of once per
// query. Correctness rests on the same observation as worker sharding: each
// job accumulates into private per-base-row partials, so jobs never interact
// — the fan-in result for a job is byte-identical to evaluating it alone.

// OperatorJob pairs one registered consumer's base-result fragment X with the
// MD operator to accumulate for it. All jobs in a batch must aggregate over
// the same detail source; their base relations and operators are otherwise
// independent.
type OperatorJob struct {
	X  *relation.Relation
	Op Operator
}

// AccumulateOperatorsFanIn evaluates every job's grouping variables over a
// single scan of the detail source (a single scan per shard under
// worker-parallel evaluation), returning one OperatorAccum per job in input
// order. A single-job batch delegates to AccumulateOperatorWorkers; any
// evaluation error aborts the whole batch (callers that need per-job error
// isolation fall back to per-job evaluation).
func AccumulateOperatorsFanIn(jobs []OperatorJob, detail RowSource, useHash bool, workers int) ([]*OperatorAccum, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	if len(jobs) == 1 {
		acc, err := AccumulateOperatorWorkers(jobs[0].X, jobs[0].Op, detail, useHash, workers)
		if err != nil {
			return nil, err
		}
		return []*OperatorAccum{acc}, nil
	}
	schema := detail.Schema()
	states := make([][]*varState, len(jobs))
	outs := make([]*OperatorAccum, len(jobs))
	for j, job := range jobs {
		st, err := bindVarStates(job.X, job.Op, schema)
		if err != nil {
			return nil, err
		}
		if useHash {
			indexVarStates(job.X, st, schema)
		}
		states[j] = st
		outs[j] = newOperatorAccum(job.X.Len(), st)
	}

	if shards := splitSource(detail, resolveWorkers(workers, detail.Len())); shards != nil {
		if err := fanInParallel(jobs, states, outs, shards); err != nil {
			return nil, err
		}
		return outs, nil
	}

	// Sequential: one pass over the detail drives every job's every feeder.
	// Feeders only touch their own job's partials, so interleaving them on a
	// shared row preserves each job's accumulation order exactly.
	feeders := make([]func(relation.Tuple) error, 0, len(jobs))
	hitsByJob := make([][]uint32, len(jobs))
	for j, job := range jobs {
		hits := make([]uint32, job.X.Len())
		hitsByJob[j] = hits
		for vi, st := range states[j] {
			feeders = append(feeders, st.feeder(job.X, outs[j].Accs[vi], hits))
		}
	}
	if err := scanCounted(detail, func(dr relation.Tuple) error {
		for _, f := range feeders {
			if err := f(dr); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for j := range jobs {
		for i, h := range hitsByJob[j] {
			outs[j].Touched[i] = h > 0
		}
	}
	return outs, nil
}

// newOperatorAccum allocates an accum with identity partials for every
// (variable, base row) cell.
func newOperatorAccum(baseRows int, states []*varState) *OperatorAccum {
	out := &OperatorAccum{
		Layouts: make([]*agg.Layout, len(states)),
		Accs:    make([][]relation.Tuple, len(states)),
		Touched: make([]bool, baseRows),
	}
	for vi, st := range states {
		out.Layouts[vi] = st.layout
		out.Accs[vi] = identityRows(st.layout, baseRows)
	}
	return out
}

// identityRows returns n identity tuples of the layout carved from one Value
// slab: one allocation for the values instead of one per base row.
func identityRows(l *agg.Layout, n int) []relation.Tuple {
	id := l.Identity()
	w := len(id)
	slab := make([]relation.Value, n*w)
	rows := make([]relation.Tuple, n)
	for i := range rows {
		rows[i] = slab[i*w : (i+1)*w : (i+1)*w]
		copy(rows[i], id)
	}
	return rows
}

// fanInParallel is the sharded fan-in: one goroutine per detail shard scans
// its rows once, feeding every job's feeders over per-(worker, job) private
// partials — the same per-worker accumulator isolation as accumulateParallel,
// replicated per job. Each job's partials are then folded with the standard
// skew-aware worker merge, so per-job results match its solo evaluation.
func fanInParallel(jobs []OperatorJob, states [][]*varState, outs []*OperatorAccum, shards []RowSource) error {
	// was[j][w] is worker w's private partials for job j.
	was := make([][]*workerAccum, len(jobs))
	for j, job := range jobs {
		was[j] = make([]*workerAccum, len(shards))
		for w := range shards {
			wa := &workerAccum{
				accs: make([][]relation.Tuple, len(states[j])),
				hits: make([]uint32, job.X.Len()),
			}
			for vi, st := range states[j] {
				wa.accs[vi] = identityRows(st.layout, job.X.Len())
			}
			was[j][w] = wa
		}
	}
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for w := range shards {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			feeders := make([]func(relation.Tuple) error, 0, len(jobs))
			for j, job := range jobs {
				for vi, st := range states[j] {
					feeders = append(feeders, st.feeder(job.X, was[j][w].accs[vi], was[j][w].hits))
				}
			}
			errs[w] = scanCountedWorker(shards[w], w, func(dr relation.Tuple) error {
				for _, f := range feeders {
					if err := f(dr); err != nil {
						return err
					}
				}
				return nil
			})
		}(w)
	}
	wg.Wait()
	// Lowest worker index wins so the reported error is deterministic.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for j, job := range jobs {
		if err := mergeWorkerAccums(job.X.Len(), states[j], outs[j], was[j]); err != nil {
			return err
		}
	}
	return nil
}
