package core

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"skalla/internal/distrib"
	"skalla/internal/engine"
	"skalla/internal/gmdj"
	"skalla/internal/plan"
	"skalla/internal/relation"
	"skalla/internal/stats"
	"skalla/internal/transport"
)

// TestBackoffEqualJitterEnvelope pins the equal-jitter contract: every sample
// of backoff(attempt) must land in [d/2, d] where d is the deterministic
// exponential ramp value for that attempt. The old implementation drew from
// the global math/rand mutex; the envelope itself must not drift with the
// switch to math/rand/v2.
func TestBackoffEqualJitterEnvelope(t *testing.T) {
	p := RetryPolicy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond}
	for attempt := 1; attempt <= 8; attempt++ {
		// Mirror the deterministic ramp: base doubling per retry, capped.
		d := p.BaseBackoff
		for i := 1; i < attempt; i++ {
			d *= 2
			if d >= p.MaxBackoff {
				d = p.MaxBackoff
				break
			}
		}
		lo, hi := d/2, d
		seenLowHalf, seenHighHalf := false, false
		for i := 0; i < 400; i++ {
			got := p.backoff(attempt)
			if got < lo || got > hi {
				t.Fatalf("attempt %d: backoff %v outside equal-jitter envelope [%v, %v]", attempt, got, lo, hi)
			}
			mid := lo + (hi-lo)/2
			if got < mid {
				seenLowHalf = true
			} else {
				seenHighHalf = true
			}
		}
		// The jitter must actually jitter: 400 draws hitting only one half of
		// the envelope means the random term is broken (probability ~2^-400).
		if !seenLowHalf || !seenHighHalf {
			t.Errorf("attempt %d: 400 samples never left one half of [%v, %v] — jitter degenerate", attempt, lo, hi)
		}
	}
	// Zero base disables backoff entirely.
	if got := (RetryPolicy{}).backoff(3); got != 0 {
		t.Errorf("zero policy backoff = %v, want 0", got)
	}
	// Uncapped ramp: attempt 3 doubles twice.
	up := RetryPolicy{BaseBackoff: 4 * time.Millisecond}
	for i := 0; i < 100; i++ {
		got := up.backoff(3)
		if got < 8*time.Millisecond || got > 16*time.Millisecond {
			t.Fatalf("uncapped attempt 3: backoff %v outside [8ms, 16ms]", got)
		}
	}
}

// TestBackoffConcurrentDraws exercises the per-P rand/v2 sources under -race:
// many goroutines drawing backoff simultaneously (as per-site retry loops do)
// must stay race-free and in-envelope.
func TestBackoffConcurrentDraws(t *testing.T) {
	p := RetryPolicy{BaseBackoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond}
	var wg sync.WaitGroup
	errs := make(chan time.Duration, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				attempt := 1 + i%5
				d := p.BaseBackoff
				for j := 1; j < attempt; j++ {
					d *= 2
					if d >= p.MaxBackoff {
						d = p.MaxBackoff
						break
					}
				}
				if got := p.backoff(attempt); got < d/2 || got > d {
					select {
					case errs <- got:
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if bad, ok := <-errs; ok {
		t.Fatalf("concurrent draw escaped the envelope: %v", bad)
	}
}

// workerCluster is buildCluster, but it keeps the engine.Site handles so the
// test can dial per-site evaluation parallelism.
func workerCluster(t *testing.T, global *relation.Relation, n int, per int64) ([]transport.Site, []*engine.Site, *distrib.Catalog) {
	t.Helper()
	gi := global.Schema.MustIndex("g")
	sites := make([]transport.Site, n)
	engines := make([]*engine.Site, n)
	filters := make([]distrib.SiteFilter, n)
	for i := 0; i < n; i++ {
		lo, hi := int64(i)*per, int64(i+1)*per-1
		if i == n-1 {
			hi = 1 << 30
		}
		filters[i] = distrib.IntRange{Lo: lo, Hi: hi}
		part := global.Filter(func(tp relation.Tuple) bool {
			return tp[gi].Int >= lo && tp[gi].Int <= hi
		})
		es := engine.NewSite(i)
		if err := es.Load(context.Background(), "T", part); err != nil {
			t.Fatal(err)
		}
		engines[i] = es
		sites[i] = transport.NewFastLocalSite(es)
	}
	cat := distrib.NewCatalog(&distrib.Distribution{
		Relation: "T",
		NumSites: n,
		Attrs:    []distrib.AttrInfo{{Attr: "g", Filters: filters, Disjoint: true}},
	})
	return sites, engines, cat
}

// TestWorkersByteIdenticalMatrix is the pinned-seed property sweep: every
// chaos-matrix query shape — plain rounds, Prop. 1 guard-filtered rounds,
// Prop. 2 / Cor. 1 sync-reduced prefix plans, and streamed row blocking — must
// produce byte-identical results, rows in the same order, at every tested
// scan worker count: X's rows come from the site-ordered base union and the
// stages commit in site order.
func TestWorkersByteIdenticalMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	global := randomGlobal(rng, 900, 16)
	queries := map[string]gmdj.Query{
		"chain":       chainQuery(),
		"independent": independentQuery(),
		"nonaligned":  nonAlignedQuery(),
	}
	rounds := []struct {
		name      string
		sel       plan.Selection
		blockRows int
	}{
		{"plain", plan.SelectNone(), 0},
		{"guard-filtered", plan.SelectRules("group-reduce-coord", "group-reduce-site"), 0},
		{"sync-reduced", plan.SelectRules("local-prefix", "sync-skip"), 0},
		{"blocking", plan.SelectNone(), 3},
	}
	workerCounts := []int{1, 2, 7, runtime.GOMAXPROCS(0), 0}
	for qname, q := range queries {
		for _, round := range rounds {
			want := ""
			for _, w := range workerCounts {
				sites, engines, cat := workerCluster(t, global, 4, 4)
				for _, es := range engines {
					es.SetWorkers(w)
				}
				coord, err := New(sites, cat, stats.NetModel{})
				if err != nil {
					t.Fatal(err)
				}
				coord.SetRowBlocking(round.blockRows)
				res, err := coord.ExecuteWith(context.Background(), q, round.sel)
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", qname, round.name, w, err)
				}
				text := res.Rel.Format(-1)
				if w == 1 {
					want = text
					continue
				}
				if text != want {
					t.Fatalf("%s/%s workers=%d diverges from sequential\ngot:\n%.2000s\nwant:\n%.2000s",
						qname, round.name, w, text, want)
				}
			}
		}
	}
}
