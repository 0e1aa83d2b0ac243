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

// TestCommitStageShardedMatchesSerial commits the same staged streams through
// the serial path and the sharded path (concurrently, as the coordinator's
// merge loop does) and demands identical X contents.
func TestCommitStageShardedMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	q := chainQuery()
	src := gmdj.Schemas{"T": tSchema}
	xs, err := gmdj.XSchemas(q, src)
	if err != nil {
		t.Fatal(err)
	}
	hSchema := relation.MustSchema(
		relation.Column{Name: engine.OrdinalColumn, Kind: relation.KindInt},
		relation.Column{Name: "cnt1", Kind: relation.KindInt},
		relation.Column{Name: "sum1", Kind: relation.KindInt},
		relation.Column{Name: "avg1_sum", Kind: relation.KindInt},
		relation.Column{Name: "avg1_cnt", Kind: relation.KindInt},
	)
	const groups, nSites = 40, 6
	newBase := func() *relation.Relation {
		b := relation.New(xs[0])
		for g := 0; g < groups; g++ {
			b.MustAppend(relation.Tuple{relation.NewInt(int64(g)), relation.NewInt(int64(g % 4))})
		}
		return b
	}
	// Each "site" reports a random subset of the groups — several sites hit
	// the same group, so stripe contention actually happens.
	siteH := make([]*relation.Relation, nSites)
	for s := range siteH {
		h := relation.New(hSchema)
		for g := 0; g < groups; g++ {
			if rng.Intn(3) == 0 {
				continue
			}
			cnt := int64(rng.Intn(50) + 1)
			sum := int64(rng.Intn(1000))
			h.MustAppend(relation.Tuple{
				relation.NewInt(int64(g)), // group g is X row g
				relation.NewInt(cnt), relation.NewInt(sum),
				relation.NewInt(sum), relation.NewInt(cnt),
			})
		}
		siteH[s] = h
	}
	run := func(sharded bool) *relation.Relation {
		segs, err := buildSegments(q, src, 2)
		if err != nil {
			t.Fatal(err)
		}
		m := mustMerger(t, []string{"g", "h"}, xs, segs, nil)
		if err := m.InitBase(newBase()); err != nil {
			t.Fatal(err)
		}
		if err := m.Extend(); err != nil {
			t.Fatal(err)
		}
		stages := make([]*hStage, nSites)
		for s := range stages {
			stages[s] = m.NewStage(0, groups, nil)
			if err := stages[s].Add(siteH[s].Clone()); err != nil {
				t.Fatal(err)
			}
		}
		if sharded {
			var wg sync.WaitGroup
			errc := make(chan error, nSites)
			for _, st := range stages {
				wg.Add(1)
				go func(st *hStage) {
					defer wg.Done()
					errc <- m.CommitStageSharded(st, 0)
				}(st)
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				if err != nil {
					t.Fatal(err)
				}
			}
		} else {
			for _, st := range stages {
				if err := m.CommitStage(st, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		m.RecomputeDerived(1)
		return m.X()
	}
	want := sortedText(run(false))
	for trial := 0; trial < 10; trial++ {
		if got := sortedText(run(true)); got != want {
			t.Fatalf("trial %d: sharded commit diverges from serial\ngot:\n%.2000s\nwant:\n%.2000s", trial, got, want)
		}
	}
	// A stage for the wrong operator must be rejected, not merged.
	segs, _ := buildSegments(q, src, 2)
	m := mustMerger(t, []string{"g", "h"}, xs, segs, nil)
	if err := m.InitBase(newBase()); err != nil {
		t.Fatal(err)
	}
	if err := m.Extend(); err != nil {
		t.Fatal(err)
	}
	st := m.NewStage(0, groups, nil)
	if err := st.Add(siteH[0].Clone()); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitStageSharded(st, 1); err == nil {
		t.Error("sharded commit of the wrong operator must error")
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
// produce byte-identical results at every tested worker count, with the
// coordinator's concurrent stage commits enabled alongside the sites'
// parallel scans.
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
				coord.SetMergeWorkers(w)
				coord.SetRowBlocking(round.blockRows)
				res, err := coord.ExecuteWith(context.Background(), q, round.sel)
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", qname, round.name, w, err)
				}
				text := sortedText(res.Rel)
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
