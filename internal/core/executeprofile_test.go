package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"skalla/internal/obs"
	"skalla/internal/plan"
	"skalla/internal/stats"
	"skalla/internal/transport/faultinject"
)

// TestProfileMatchesMetrics is the profiler's accounting contract: the
// stitched QueryProfile must agree with stats.Metrics — the quantity
// -stats-json exports — exactly, round by round, byte for byte.
func TestProfileMatchesMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	global := randomGlobal(rng, 200, 16)
	sites, cat := buildCluster(t, global, "T", 3, 6)
	coord, err := New(sites, cat, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sel := range []plan.Selection{plan.SelectNone(), plan.SelectAll()} {
		res, err := coord.ExecuteWith(context.Background(), chainQuery(), sel)
		if err != nil {
			t.Fatal(err)
		}
		p := res.Profile
		if p == nil {
			t.Fatal("Result.Profile nil")
		}
		if p.QueryID == "" || p.Start.IsZero() || p.Elapsed <= 0 {
			t.Errorf("profile envelope incomplete: %+v", p)
		}
		if p.Plan.Fingerprint == "" || p.Plan.Fingerprint != res.Plan.Fingerprint {
			t.Errorf("profile fingerprint %q, plan %q", p.Plan.Fingerprint, res.Plan.Fingerprint)
		}
		m := res.Metrics
		if len(p.Rounds) != len(m.Rounds) {
			t.Fatalf("profile has %d rounds, metrics %d", len(p.Rounds), len(m.Rounds))
		}
		for i := range m.Rounds {
			mr, pr := &m.Rounds[i], &p.Rounds[i]
			if pr.Name != mr.Name {
				t.Errorf("round %d named %q in profile, %q in metrics", i, pr.Name, mr.Name)
			}
			if pr.BytesDown != mr.BytesDown() || pr.BytesUp != mr.BytesUp() {
				t.Errorf("round %s bytes %d/%d in profile, %d/%d in metrics",
					mr.Name, pr.BytesDown, pr.BytesUp, mr.BytesDown(), mr.BytesUp())
			}
			if pr.RowsDown != mr.RowsDown() || pr.RowsUp != mr.RowsUp() {
				t.Errorf("round %s rows %d/%d in profile, %d/%d in metrics",
					mr.Name, pr.RowsDown, pr.RowsUp, mr.RowsDown(), mr.RowsUp())
			}
			if len(pr.Calls) != len(mr.Calls) {
				t.Errorf("round %s has %d profile calls, %d metric calls", mr.Name, len(pr.Calls), len(mr.Calls))
			}
			for _, c := range pr.Calls {
				if c.Attempt != 1 {
					t.Errorf("round %s site %d attempt %d, want 1 (no faults injected)", mr.Name, c.Site, c.Attempt)
				}
				if c.Breakdown == nil {
					t.Errorf("round %s site %d has no site-side breakdown", mr.Name, c.Site)
					continue
				}
				if c.Breakdown.EvalNS < 0 {
					t.Errorf("round %s site %d eval %dns", mr.Name, c.Site, c.Breakdown.EvalNS)
				}
				if c.Breakdown.RowsScanned <= 0 {
					t.Errorf("round %s site %d scanned %d rows", mr.Name, c.Site, c.Breakdown.RowsScanned)
				}
			}
		}
		if p.BytesDown() != m.TotalBytesDown() || p.BytesUp() != m.TotalBytesUp() {
			t.Errorf("profile totals %d/%d, metrics %d/%d",
				p.BytesDown(), p.BytesUp(), m.TotalBytesDown(), m.TotalBytesUp())
		}
		// The profile is retained for /debug/queries.
		if got := obs.Profiles.Get(p.QueryID); got == nil || got.QueryID != p.QueryID {
			t.Errorf("profile %s not retained in the ring", p.QueryID)
		}
	}
}

// TestProfileEstimatesJoined: the cost model's per-round predictions land on
// the profile next to the measured bytes.
func TestProfileEstimatesJoined(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	global := randomGlobal(rng, 100, 8)
	sites, cat := buildCluster(t, global, "T", 2, 4)
	coord, err := New(sites, cat, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.ExecuteWith(context.Background(), chainQuery(), plan.SelectNone())
	if err != nil {
		t.Fatal(err)
	}
	p := res.Profile
	if p.Plan.EstRounds != res.Plan.Estimate.Rounds ||
		p.Plan.EstBytesDown != res.Plan.Estimate.BytesDown ||
		p.Plan.EstBytesUp != res.Plan.Estimate.BytesUp {
		t.Errorf("profile plan estimate %+v, want %+v", p.Plan, res.Plan.Estimate)
	}
	var estDown int64
	for i := range p.Rounds {
		estDown += p.Rounds[i].EstBytesDown
	}
	if estDown != res.Plan.Estimate.BytesDown {
		t.Errorf("per-round estimates sum to %d, plan estimate %d", estDown, res.Plan.Estimate.BytesDown)
	}
}

// TestProfileRetriedAttempts: with a site that fails its first attempts and
// then recovers, the profile must show the failed attempts as distinct
// annotated calls — and count none of their bytes (the retried traffic would
// otherwise double against -stats-json).
func TestProfileRetriedAttempts(t *testing.T) {
	coord := faultCluster(t, faultinject.Config{FailFirst: 2})
	coord.SetRetryPolicy(RetryPolicy{MaxAttempts: 3})
	res, err := coord.ExecuteWith(context.Background(), chainQuery(), plan.SelectNone())
	if err != nil {
		t.Fatal(err)
	}
	p := res.Profile
	var failed, succeededAfterRetry int
	for i := range p.Rounds {
		pr := &p.Rounds[i]
		var prBytesDown, prBytesUp int
		for _, c := range pr.Calls {
			if c.Failed {
				failed++
				if c.Site != 1 {
					t.Errorf("failed call at site %d, injector wraps site 1", c.Site)
				}
				if c.Err == "" {
					t.Error("failed call carries no error")
				}
				continue
			}
			if c.Attempt > 1 {
				succeededAfterRetry++
			}
			prBytesDown += c.BytesDown
			prBytesUp += c.BytesUp
		}
		// Round totals count successful calls only: no double-counted bytes.
		if pr.BytesDown != prBytesDown || pr.BytesUp != prBytesUp {
			t.Errorf("round %s totals %d/%d but successful calls sum to %d/%d",
				pr.Name, pr.BytesDown, pr.BytesUp, prBytesDown, prBytesUp)
		}
	}
	if failed != 2 {
		t.Errorf("%d failed attempts in profile, want 2 (FailFirst: 2)", failed)
	}
	if succeededAfterRetry == 0 {
		t.Error("no call records a retry attempt > 1")
	}
	// And the profile still agrees with the metrics exactly.
	if p.BytesDown() != res.Metrics.TotalBytesDown() || p.BytesUp() != res.Metrics.TotalBytesUp() {
		t.Errorf("profile totals %d/%d, metrics %d/%d",
			p.BytesDown(), p.BytesUp(), res.Metrics.TotalBytesDown(), res.Metrics.TotalBytesUp())
	}
}

// TestSlowQueryThreshold: a query over the threshold increments the counter
// (every query beats a 1ns threshold; a zero threshold disables).
func TestSlowQueryThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	global := randomGlobal(rng, 50, 8)
	sites, cat := buildCluster(t, global, "T", 2, 4)
	coord, err := New(sites, cat, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	before := obs.CoordSlowQueries.Value()
	if _, err := coord.ExecuteWith(context.Background(), chainQuery(), plan.SelectNone()); err != nil {
		t.Fatal(err)
	}
	if got := obs.CoordSlowQueries.Value(); got != before {
		t.Errorf("slow-query counter moved with no threshold set: %d -> %d", before, got)
	}
	coord.SetSlowQueryThreshold(time.Nanosecond)
	if _, err := coord.ExecuteWith(context.Background(), chainQuery(), plan.SelectNone()); err != nil {
		t.Fatal(err)
	}
	if got := obs.CoordSlowQueries.Value(); got != before+1 {
		t.Errorf("slow-query counter %d, want %d", got, before+1)
	}
}
