package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"skalla/internal/obs"
	"skalla/internal/plan"
	"skalla/internal/relation"
	"skalla/internal/stats"
	"skalla/internal/transport/faultinject"
)

// chaosPolicy is tuned for the matrix: enough attempts to absorb every
// transient mode, millisecond backoff so the suite stays fast, and a short
// per-attempt deadline so hung sites are cut loose promptly.
func chaosPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
		CallTimeout: 250 * time.Millisecond,
	}
}

// sortedText renders a relation in a canonical row order, so two runs can be
// compared byte for byte.
func sortedText(r *relation.Relation) string {
	s := r.Clone()
	s.Sort()
	return s.Format(1 << 20)
}

// The chaos matrix: every fault mode crossed with every round shape must,
// under the retry policy, produce output byte-identical to the fault-free
// run — retries must never double-count (the staging invariant) and never
// lose rows.
func TestChaosMatrix(t *testing.T) {
	modes := []struct {
		name       string
		cfg        faultinject.Config
		wantsRetry bool
	}{
		// Outright call errors that clear up after two failures.
		{"fail-then-recover", faultinject.Config{FailFirst: 2}, true},
		// A hang only the per-attempt deadline frees.
		{"hang-until-deadline", faultinject.Config{HangFirst: 1}, true},
		// Added latency well under the deadline: no retries, just slow.
		{"slow-site", faultinject.Config{Delay: 5 * time.Millisecond}, false},
		// A stream dying after delivering one block, twice.
		{"mid-stream-death", faultinject.Config{FailStreams: 2, StreamFailAfterBlocks: 1}, false},
	}
	rounds := []struct {
		name      string
		sel       plan.Selection
		blockRows int
	}{
		{"base+operator", plan.SelectNone(), 0},
		{"local-prefix", plan.SelectRules("local-prefix", "sync-skip"), 0},
		{"operator-blocking", plan.SelectNone(), 3},
	}
	for _, mode := range modes {
		for _, round := range rounds {
			t.Run(mode.name+"/"+round.name, func(t *testing.T) {
				// Fault-free reference on an identically built cluster.
				clean := faultCluster(t, faultinject.Config{})
				clean.SetRowBlocking(round.blockRows)
				want, err := clean.ExecuteWith(context.Background(), chainQuery(), round.sel)
				if err != nil {
					t.Fatal(err)
				}

				coord := faultCluster(t, mode.cfg)
				coord.SetRetryPolicy(chaosPolicy())
				coord.SetRowBlocking(round.blockRows)
				retries0 := obs.CoordRetries.With("1").Value()
				got, err := coord.ExecuteWith(context.Background(), chainQuery(), round.sel)
				if err != nil {
					t.Fatalf("faulted run failed despite retry policy: %v", err)
				}
				if g, w := sortedText(got.Rel), sortedText(want.Rel); g != w {
					t.Fatalf("retried run differs from fault-free run\ngot:\n%s\nwant:\n%s", g, w)
				}
				if mode.wantsRetry && obs.CoordRetries.With("1").Value() == retries0 {
					t.Errorf("mode %s completed without recording a retry", mode.name)
				}
			})
		}
	}
}

// The acceptance scenario from the issue: a query over 4 sites with row
// blocking where one site fails its first EvalOperatorStream attempt after
// emitting at least one block. The query must complete, match the fault-free
// run byte for byte, and the retry must be visible in the metrics registry.
func TestRetryAfterPartialStream(t *testing.T) {
	build := func(cfg faultinject.Config) (*Coordinator, *faultinject.Site) {
		global := randomGlobal(rand.New(rand.NewSource(99)), 120, 16)
		sites, cat := buildCluster(t, global, "T", 4, 4)
		faulty := faultinject.Wrap(sites[2], cfg)
		sites[2] = faulty
		coord, err := New(sites, cat, stats.NetModel{})
		if err != nil {
			t.Fatal(err)
		}
		coord.SetRowBlocking(2) // small blocks: the stream dies mid-flight
		return coord, faulty
	}

	clean, cleanSite := build(faultinject.Config{})
	want, err := clean.ExecuteWith(context.Background(), chainQuery(), plan.SelectNone())
	if err != nil {
		t.Fatal(err)
	}

	coord, faulty := build(faultinject.Config{FailStreams: 1, StreamFailAfterBlocks: 1})
	coord.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond})
	retries0 := obs.CoordRetries.With("2").Value()
	got, err := coord.ExecuteWith(context.Background(), chainQuery(), plan.SelectNone())
	if err != nil {
		t.Fatalf("query did not survive a partial-stream failure: %v", err)
	}
	if g, w := sortedText(got.Rel), sortedText(want.Rel); g != w {
		t.Fatalf("retried result differs from fault-free result\ngot:\n%s\nwant:\n%s", g, w)
	}
	if obs.CoordRetries.With("2").Value() <= retries0 {
		t.Error("retries_total did not increase")
	}
	// Every attempt, first or retried, is one direct call on the site: the
	// faulted run makes exactly one call more than the fault-free one.
	if g, w := faulty.Calls(), cleanSite.Calls()+1; g != w {
		t.Errorf("faulted site saw %d data calls, want %d (fault-free count plus one retry)", g, w)
	}
	var sb strings.Builder
	if err := obs.Default.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "skalla_coord_site_retries_total") {
		t.Error("/metrics text is missing skalla_coord_site_retries_total")
	}
}

// Retry sleeps must yield to query cancellation: a persistent failure plus a
// generous backoff cannot hold Execute hostage once the context is canceled.
func TestRetryBackoffHonorsCancel(t *testing.T) {
	coord := faultCluster(t, faultinject.Config{FailFrom: 1})
	coord.SetRetryPolicy(RetryPolicy{MaxAttempts: 100, BaseBackoff: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := coord.ExecuteWith(ctx, chainQuery(), plan.SelectNone())
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Error("canceled retried query returned nil error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Execute still blocked in backoff after cancel")
	}
}
