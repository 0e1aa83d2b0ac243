package gmdj

import (
	"runtime"
	"sync"

	"skalla/internal/obs"
	"skalla/internal/relation"
)

// SplittableSource is an optional RowSource extension for worker-parallel
// evaluation: a source that can carve itself into disjoint shards whose
// concatenated scans reproduce the full scan exactly (same rows, same order).
// In-memory relations split on contiguous row ranges; disk-backed
// store.Tables split on segment boundaries so no segment is decoded twice.
type SplittableSource interface {
	RowSource
	// Split returns up to n shards covering the source in order. A return of
	// nil (or fewer than two shards) declines the split — e.g. the source is
	// too small — and callers fall back to the sequential path.
	Split(n int) []RowSource
}

// minAutoShardRows is the smallest shard worth a goroutine under automatic
// worker selection: below ~2k rows per worker the spawn/merge overhead beats
// the scan savings.
const minAutoShardRows = 2048

// Heavy-hitter thresholds for the skew-aware merge: a base row is heavy when
// its accumulated hit mass is at least heavyFactor times the mean row mass
// (and at least heavyMinHits, so uniform tiny workloads never trigger the
// skew path). Heavy rows are routed to a dedicated combiner goroutine so a
// handful of hot group keys cannot stall the balanced light-row mergers.
const (
	heavyFactor  = 8
	heavyMinHits = 4096
)

// resolveWorkers maps the user-facing workers knob (0 = auto, 1 = off,
// n = exactly n) to an effective worker count for a source of rows rows.
func resolveWorkers(workers, rows int) int {
	if workers == 1 || rows <= 0 {
		return 1
	}
	if workers <= 0 {
		w := (rows + minAutoShardRows - 1) / minAutoShardRows
		if p := runtime.GOMAXPROCS(0); w > p {
			w = p
		}
		if w < 1 {
			w = 1
		}
		return w
	}
	if workers > rows {
		workers = rows
	}
	return workers
}

// splitSource shards a source for workers-way parallel evaluation, or returns
// nil when evaluation should stay sequential (one worker, a source that is
// not splittable, or a source that declines).
func splitSource(src RowSource, workers int) []RowSource {
	if workers <= 1 {
		obs.EngineEvalWorkers.Set(1)
		return nil
	}
	ss, ok := src.(SplittableSource)
	if !ok {
		obs.EngineEvalWorkers.Set(1)
		return nil
	}
	shards := ss.Split(workers)
	if len(shards) <= 1 {
		obs.EngineEvalWorkers.Set(1)
		return nil
	}
	obs.EngineEvalWorkers.Set(int64(len(shards)))
	return shards
}

// workerAccum is one worker's private accumulation state: per-variable
// physical partials for every base row, plus per-base-row hit counts. Hits
// drive two things after the scans join: Touched flags (Prop. 1) and the
// skew-aware merge plan.
type workerAccum struct {
	accs [][]relation.Tuple // [variable][baseRow]
	hits []uint32
	err  error
}

// accumulateParallel runs one worker goroutine per detail shard, each
// accumulating into private partials, then merges the partials into out in
// worker order. Merging per-worker partials is exactly the per-site
// sub-aggregate merge of Theorem 1 applied to finer horizontal partitions.
func accumulateParallel(x *relation.Relation, states []*varState, out *OperatorAccum, shards []RowSource) error {
	ws := make([]*workerAccum, len(shards))
	var wg sync.WaitGroup
	for w := range shards {
		wa := &workerAccum{
			accs: make([][]relation.Tuple, len(states)),
			hits: make([]uint32, x.Len()),
		}
		for vi, st := range states {
			wa.accs[vi] = identityRows(st.layout, x.Len())
		}
		ws[w] = wa
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for vi, st := range states {
				if err := st.scan(x, shards[w], wa.accs[vi], wa.hits, w); err != nil {
					wa.err = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Lowest worker index wins so the reported error is deterministic.
	for _, wa := range ws {
		if wa.err != nil {
			return wa.err
		}
	}
	return mergeWorkerAccums(x.Len(), states, out, ws)
}

// mergeWorkerAccums folds every worker's partials into out. Each base row is
// merged independently (workers visited in index order, so the fold order is
// deterministic), which makes the merge itself parallel: light rows are split
// into contiguous runs balanced by hit mass, while heavy-hitter rows — hot
// group keys that dominate the mass — go to one dedicated combiner goroutine
// so they cannot stall a balanced run.
func mergeWorkerAccums(n int, states []*varState, out *OperatorAccum, ws []*workerAccum) error {
	if n == 0 {
		return nil
	}
	mass := make([]uint64, n)
	var total uint64
	for _, wa := range ws {
		for i, h := range wa.hits {
			mass[i] += uint64(h)
			total += uint64(h)
		}
	}

	// mergeRow folds base row i across workers in worker order. Workers that
	// never hit the row hold identity partials for it — skipping them is a
	// no-op by the identity-merge property of every physical aggregate.
	mergeRow := func(i int) error {
		for _, wa := range ws {
			if wa.hits[i] == 0 {
				continue
			}
			for vi, st := range states {
				if err := st.layout.MergePhys(out.accs[vi][i], wa.accs[vi][i]); err != nil {
					return err
				}
			}
		}
		out.Touched[i] = mass[i] > 0
		return nil
	}

	// Classify heavy hitters.
	thr := uint64(heavyMinHits)
	if n > 0 {
		if m := total / uint64(n) * heavyFactor; m > thr {
			thr = m
		}
	}
	var heavy []int
	heavyMass := uint64(0)
	isHeavy := make([]bool, n)
	for i, m := range mass {
		if m >= thr {
			heavy = append(heavy, i)
			heavyMass += m
			isHeavy[i] = true
		}
	}

	// Partition the light rows into contiguous runs of near-equal hit mass,
	// one merger goroutine per run, plus the dedicated heavy combiner.
	lightMass := total - heavyMass
	mergers := len(ws)
	if mergers > n {
		mergers = n
	}
	type run struct{ lo, hi int }
	var runs []run
	perRun := lightMass/uint64(mergers) + 1
	acc, lo := uint64(0), 0
	for i := 0; i < n; i++ {
		if isHeavy[i] {
			continue
		}
		acc += mass[i]
		if acc >= perRun && len(runs) < mergers-1 {
			runs = append(runs, run{lo, i + 1})
			acc, lo = 0, i+1
		}
	}
	runs = append(runs, run{lo, n})

	errs := make([]error, len(runs)+1)
	var wg sync.WaitGroup
	for ri, r := range runs {
		wg.Add(1)
		go func(ri int, r run) {
			defer wg.Done()
			for i := r.lo; i < r.hi; i++ {
				if isHeavy[i] {
					continue
				}
				if err := mergeRow(i); err != nil {
					errs[ri] = err
					return
				}
			}
		}(ri, r)
	}
	if len(heavy) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range heavy {
				if err := mergeRow(i); err != nil {
					errs[len(runs)] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// evalBaseParallel runs one worker per shard, each collecting its shard's
// distinct projections in first-occurrence order, then dedupes the per-worker
// lists in shard order. Because shards are contiguous and in order, the
// merged first-occurrence order equals the sequential scan's exactly.
func evalBaseParallel(p *baseProg, shards []RowSource) (*relation.Relation, error) {
	type part struct {
		rows []relation.Tuple
		err  error
	}
	parts := make([]part, len(shards))
	var wg sync.WaitGroup
	for w := range shards {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seen := relation.NewKeySet(64)
			parts[w].err = p.scanShard(shards[w], w, seen, &parts[w].rows)
		}(w)
	}
	wg.Wait()
	for _, pt := range parts {
		if pt.err != nil {
			return nil, pt.err
		}
	}
	out := relation.New(p.schema)
	seen := relation.NewKeySet(64)
	for _, pt := range parts {
		for _, t := range pt.rows {
			interned, fresh := seen.Add(t, p.allCols)
			if fresh {
				out.Tuples = append(out.Tuples, interned)
			}
		}
	}
	return out, nil
}
