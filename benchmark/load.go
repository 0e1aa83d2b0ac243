package main

import (
	"context"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"skalla"
)

// reply is what the closed loop keeps of one statement.
type reply struct {
	tmpl     int
	latency  time.Duration
	failed   bool
	qid      string
	rows     int
	cacheHit bool
	queueNS  int64
}

// window is one measured interval of the closed loop.
type window struct {
	replies []reply
	elapsed time.Duration
	failed  int
	// firstErr is the first failure's description, for the log.
	firstErr string

	allocBytes uint64 // TotalAlloc delta, whole process
	gcPauseNS  uint64 // PauseTotalNs delta
	heapPeak   uint64 // highest sampled live-object bytes
}

func (w *window) completed() int { return len(w.replies) - w.failed }

func (w *window) qps() float64 { return float64(w.completed()) / w.elapsed.Seconds() }

// latencies returns the sorted wall times of the statements that succeeded,
// in milliseconds.
func (w *window) latencies() []float64 {
	out := make([]float64, 0, len(w.replies))
	for _, r := range w.replies {
		if !r.failed {
			out = append(out, float64(r.latency)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// percentile returns the p-quantile (0..1) of sorted values, interpolating
// linearly between the two nearest ranks; 0 for no values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// heapSampleEvery is how often the window samples the live heap: often
// enough to see a 100 ms query's peak, cheap enough (no stop-the-world) not
// to be load.
const heapSampleEvery = 20 * time.Millisecond

// runWindow drives the closed loop for d: every session sends its stream's
// next statement only after the previous reply, checks the reply for error
// and for the template's expected row count, and stops issuing at the
// deadline; statements in flight then are completed and counted, and elapsed
// runs to the last reply. With a recorder each statement also leaves a
// client-side span.
func runWindow(ctx context.Context, sessions []*skalla.QueryClient, gens []*stmtGen, wantRows []int, d time.Duration, rec *recorder) *window {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	stop := make(chan struct{})
	var sampler sync.WaitGroup
	var heapPeak uint64
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > heapPeak {
				heapPeak = v
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()

	start := time.Now()
	deadline := start.Add(d)
	perClient := make([][]reply, len(sessions))
	errs := make([]string, len(sessions))
	var wg sync.WaitGroup
	for c := range sessions {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sess, gen := sessions[c], gens[c]
			for time.Now().Before(deadline) {
				tmpl, stmt := gen.Next()
				var s span
				if rec != nil {
					s = rec.begin(spanQuery, 0, "", -1)
				}
				t0 := time.Now()
				rel, info, err := sess.Query(ctx, stmt)
				r := reply{tmpl: tmpl, latency: time.Since(t0)}
				if info != nil {
					r.qid, r.rows, r.cacheHit, r.queueNS = info.QueryID, info.Rows, info.CacheHit, info.QueueNS
				}
				if rec != nil {
					s.Stmt = r.qid
					rec.end(s)
				}
				switch {
				case err != nil:
					r.failed = true
					if errs[c] == "" {
						errs[c] = err.Error()
					}
				case rel.Len() != wantRows[tmpl]:
					r.failed = true
					if errs[c] == "" {
						errs[c] = "template " + gen.w.templates[tmpl].name + ": wrong row count"
					}
				}
				perClient[c] = append(perClient[c], r)
			}
		}(c)
	}
	wg.Wait()
	w := &window{elapsed: time.Since(start)}
	close(stop)
	sampler.Wait()
	runtime.ReadMemStats(&ms1)

	for c, rs := range perClient {
		w.replies = append(w.replies, rs...)
		if w.firstErr == "" {
			w.firstErr = errs[c]
		}
	}
	for _, r := range w.replies {
		if r.failed {
			w.failed++
		}
	}
	w.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	w.gcPauseNS = ms1.PauseTotalNs - ms0.PauseTotalNs
	w.heapPeak = heapPeak
	return w
}
