package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"skalla/internal/tpc"
)

// runConfig is one run of one workload.
type runConfig struct {
	w        workload
	seed     int64
	seconds  time.Duration // measured window
	warmup   time.Duration // untimed; lets plan/result caches and schema lookups fill
	traced   bool
	traceOut string // JSON-lines span file; "" writes none
}

// setupRepeats is how many times an untraced run sets the system up; setup_s
// is their median, because one set-up is a single sub-second sample.
const setupRepeats = 3

// quietShare is the quiet pass's length as a share of the measured window:
// a dozen or more statements of the slowest workload.
const quietShare = 10

// runResult is what one run reports.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Samples is the number of latency samples behind the percentiles.
	Samples int `json:"samples"`
	// P99 is informational and only set with at least 1000 samples.
	P99ms float64 `json:"latency_p99_ms,omitempty"`
	// CheckS is the benchmark's own cost: generating the instance and
	// evaluating the oracle.
	CheckS  float64           `json:"check_s"`
	Traffic []templateTraffic `json:"traffic,omitempty"`
	Problem string            `json:"problem,omitempty"`
}

func (r *runResult) problem(format string, args ...any) {
	r.Correct = false
	if r.Problem == "" {
		r.Problem = fmt.Sprintf(format, args...)
	}
}

// run executes one workload once: set-up, oracle check, warm-up, measured
// window. An untraced run yields the end-to-end metrics; a traced run yields
// the per-layer metrics from a wrapped system, after a short untraced window
// that gives the tracing overhead its base.
func run(ctx context.Context, cfg runConfig) (*runResult, error) {
	res := &runResult{Workload: cfg.w.name, Seed: cfg.seed, Traced: cfg.traced, Correct: true, Metrics: map[string]float64{}}
	t0 := time.Now()
	ds, err := tpc.Generate(cfg.w.config(cfg.seed), numSites)
	if err != nil {
		return nil, err
	}
	want, err := oracle(cfg.w, ds)
	if err != nil {
		return nil, err
	}
	res.CheckS = time.Since(t0).Seconds()
	wantRows := make([]int, len(want))
	for i, rel := range want {
		wantRows[i] = rel.Len()
	}
	gens := make([]*stmtGen, numClients)
	for c := range gens {
		gens[c] = newStmtGen(cfg.w, cfg.seed, c)
	}
	// count adds a window's statements to the run's attempted and failed.
	count := func(w *window) {
		if w.failed > 0 {
			res.problem("%d of %d statements failed; first: %s", w.failed, len(w.replies), w.firstErr)
		}
		res.Attempted += len(w.replies)
		res.Failed += w.failed
	}
	// measure checks a system's cold pass against the oracle — those
	// statements are attempts too, a mismatch a failure — warms it up and
	// runs one window on it.
	measure := func(sys *system, d time.Duration, rec *recorder) *window {
		bad := checkOracle(cfg.w, sys.cold, want)
		if len(bad) > 0 {
			res.problem("oracle mismatch (Thm. 3) on %s", strings.Join(bad, ", "))
		}
		res.Attempted += len(sys.cold)
		res.Failed += len(bad)
		runWindow(ctx, sys.sessions, gens, wantRows, cfg.warmup, nil)
		if rec != nil {
			rec.reset()
		}
		w := runWindow(ctx, sys.sessions, gens, wantRows, d, rec)
		count(w)
		return w
	}

	if !cfg.traced {
		var setups []float64
		var sys *system
		for k := 0; k < setupRepeats; k++ {
			if sys != nil {
				if err := sys.Close(); err != nil {
					return nil, err
				}
			}
			if sys, err = setUp(ctx, cfg.w, ds, nil, k == setupRepeats-1); err != nil {
				return nil, err
			}
			setups = append(setups, sys.setupTime.Seconds())
		}
		defer sys.Close()
		w := measure(sys, cfg.seconds, nil)
		lat := w.latencies()
		res.Samples = len(lat)
		if len(lat) >= 1000 {
			res.P99ms = percentile(lat, 0.99)
		}
		sort.Float64s(setups)
		res.Traffic = sys.wire
		res.Metrics["qps"] = w.qps()
		res.Metrics["latency_p50_ms"] = percentile(lat, 0.50)
		res.Metrics["latency_p95_ms"] = percentile(lat, 0.95)
		res.Metrics["wire_bytes_per_query"] = wireBytesPerQuery(sys.wire)
		res.Metrics["alloc_mb_per_query"] = float64(w.allocBytes) / 1e6 / float64(max(w.completed(), 1))
		res.Metrics["setup_s"] = percentile(setups, 0.50)
		res.Metrics[failRatio.Name] = float64(res.Failed) / float64(res.Attempted)
		return res, nil
	}

	for _, d := range perLayer {
		res.Metrics[d.Name] = 0
	}
	// Untraced half: the base of trace.overhead_ratio, and the process
	// figures, which tracing would inflate.
	plain, err := setUp(ctx, cfg.w, ds, nil, false)
	if err != nil {
		return nil, err
	}
	base := measure(plain, cfg.seconds/2, nil)
	if err := plain.Close(); err != nil {
		return nil, err
	}
	res.Metrics["process.gc_pause_ms_per_s"] = float64(base.gcPauseNS) / 1e6 / base.elapsed.Seconds()
	res.Metrics["process.heap_peak_mb"] = float64(base.heapPeak) / 1e6
	runtime.GC() // the first system's caches are garbage now; do not bill them to the second

	rec := newRecorder()
	sys, err := setUp(ctx, cfg.w, ds, rec, false)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	w := measure(sys, cfg.seconds/2, rec)
	res.Samples = w.completed()
	spans := rec.snapshot()
	orphans := link(spans)
	path := layerMetrics(spans, w, sys.partRows, res.Metrics)
	if q := base.qps(); q > 0 {
		res.Metrics["trace.overhead_ratio"] = 1 - w.qps()/q
	}

	// Quiet pass: one session, and the wrappers let one site call run at a
	// time, so every layer has the machine to itself. Its spans give the
	// layers' own times; what the load adds is the wait for a processor.
	rec.reset()
	rec.quiet.Store(true)
	quiet := runWindow(ctx, sys.sessions[:1], gens[:1], wantRows, cfg.seconds/quietShare, rec)
	rec.quiet.Store(false)
	count(quiet)
	quietSpans := rec.snapshot()
	orphans += link(quietSpans)
	own := make(map[string]float64)
	layerMetrics(quietSpans, quiet, sys.partRows, own)
	splitSchedWait(res.Metrics, path, own)
	spans = append(spans, quietSpans...)

	if err := directCalls(ctx, cfg.w, sys, cfg.seed, rec.keptPayloads(), res.Metrics); err != nil {
		return nil, err
	}
	res.Metrics["trace.orphan_spans"] = float64(orphans)
	if orphans > 0 {
		res.problem("%d orphan engine spans", orphans)
	}
	if cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}
