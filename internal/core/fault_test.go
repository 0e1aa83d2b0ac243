package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"skalla/internal/engine"
	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/plan"
	"skalla/internal/relation"
	"skalla/internal/stats"
	"skalla/internal/transport"
	"skalla/internal/transport/faultinject"
)

// faultCluster builds a 3-site cluster with site 1 wrapped in the fault
// injector, so failures are partial.
func faultCluster(t *testing.T, cfg faultinject.Config) *Coordinator {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	global := randomGlobal(rng, 80, 12)
	sites, cat := buildCluster(t, global, "T", 3, 4)
	sites[1] = faultinject.Wrap(sites[1], cfg)
	coord, err := New(sites, cat, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	return coord
}

// A site failing at any round must surface a clean error for every
// optimization combination — never a hang, panic, or silent wrong answer.
// The coordinator runs its default (zero) retry policy here: persistent
// failures must stay fail-fast for callers that have their own recovery.
func TestSiteFailureSurfacesError(t *testing.T) {
	for failFrom := 1; failFrom <= 4; failFrom++ {
		coord := faultCluster(t, faultinject.Config{FailFrom: failFrom})
		for _, sel := range switchCombos() {
			_, err := coord.ExecuteWith(context.Background(), chainQuery(), sel)
			// With generous budgets some plans finish (full-local plans make
			// only one call per site); if an error comes back it must be ours.
			if err != nil && !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("failFrom=%d [%s]: unexpected error %v", failFrom, sel, err)
			}
			if failFrom == 1 && err == nil {
				t.Fatalf("failFrom=1 [%s]: expected failure", sel)
			}
		}
	}
}

// A persistent failure must also defeat a retry policy: MaxAttempts are spent
// and the injected error surfaces instead of looping forever.
func TestPersistentFailureExhaustsRetries(t *testing.T) {
	coord := faultCluster(t, faultinject.Config{FailFrom: 1})
	coord.SetRetryPolicy(RetryPolicy{MaxAttempts: 3})
	_, err := coord.ExecuteWith(context.Background(), chainQuery(), plan.SelectNone())
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want injected failure after exhausted retries", err)
	}
}

// corruptKeyBlock swaps a row's ordinal for one outside the shipped fragment.
func corruptKeyBlock(b *relation.Relation) *relation.Relation {
	if b.Len() == 0 {
		return b
	}
	bad := b.Clone()
	bad.Columns().Vecs[0].Set(0, bad.Len(), relation.NewInt(999999))
	return bad
}

// corruptSchemaBlock replaces the block with one of an unrelated schema.
func corruptSchemaBlock(*relation.Relation) *relation.Relation {
	bad := relation.New(relation.MustSchema(relation.Column{Name: "zz", Kind: relation.KindInt}))
	bad.MustAppend(relation.Tuple{relation.NewInt(1)})
	return bad
}

// Corrupted synchronization input (a row X does not have) must be detected by
// the merger rather than silently dropped.
func TestCorruptKeyDetected(t *testing.T) {
	coord := faultCluster(t, faultinject.Config{MutateBlock: corruptKeyBlock})
	_, err := coord.ExecuteWith(context.Background(), chainQuery(), plan.SelectNone())
	if !errors.Is(err, ErrMalformedH) {
		t.Errorf("corrupt key: err = %v, want ErrMalformedH", err)
	}
}

// A wrong-schema H must be rejected by stage validation — and a retry policy
// must not mask it: data-shaped corruption is permanent, so attempts are not
// burned re-fetching it.
func TestCorruptSchemaDetected(t *testing.T) {
	coord := faultCluster(t, faultinject.Config{MutateBlock: corruptSchemaBlock})
	coord.SetRetryPolicy(RetryPolicy{MaxAttempts: 5})
	_, err := coord.ExecuteWith(context.Background(), chainQuery(), plan.SelectNone())
	if err == nil {
		t.Fatal("corrupt schema: expected error")
	}
	fs := coord.sites[1].(*faultinject.Site)
	// Base round + one corrupt operator attempt; a retry loop would show more.
	if fs.Calls() > 2 {
		t.Errorf("corrupt schema burned %d calls — retried a permanent error", fs.Calls())
	}
}

// corruptResultSite returns well-formed transport results whose payload has a
// schema the merger must reject — the failure happens at merge time, after
// every site call completed.
type corruptResultSite struct {
	transport.Site
}

func badRelation() *relation.Relation {
	bad := relation.New(relation.MustSchema(relation.Column{Name: "zz", Kind: relation.KindInt}))
	bad.MustAppend(relation.Tuple{relation.NewInt(1)})
	return bad
}

func (s corruptResultSite) EvalBase(ctx context.Context, bq gmdj.BaseQuery) (*relation.Relation, stats.Call, error) {
	_, call, err := s.Site.EvalBase(ctx, bq)
	if err != nil {
		return nil, call, err
	}
	return badRelation(), call, nil
}

func (s corruptResultSite) EvalLocal(ctx context.Context, req engine.LocalRequest) (*relation.Relation, stats.Call, error) {
	_, call, err := s.Site.EvalLocal(ctx, req)
	if err != nil {
		return nil, call, err
	}
	return badRelation(), call, nil
}

// When the coordinator's merge fails after the site calls succeeded, the
// round must still record every completed call — the traffic happened, and
// dropping it silently skews -stats-json and traces.
func TestRoundStatsRecordedOnMergeError(t *testing.T) {
	for _, tc := range []struct {
		name string
		sel  plan.Selection
	}{
		{"base-union", plan.SelectNone()},
		{"local-merge", plan.SelectRules("local-prefix", "sync-skip")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(77))
			global := randomGlobal(rng, 80, 12)
			sites, cat := buildCluster(t, global, "T", 3, 4)
			sites[1] = corruptResultSite{sites[1]}
			coord, err := New(sites, cat, stats.NetModel{})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			coord.SetTrace(&buf)
			if _, err := coord.ExecuteWith(context.Background(), chainQuery(), tc.sel); err == nil {
				t.Fatal("corrupt payload must fail the merge")
			}
			out := buf.String()
			for _, frag := range []string{"site 0", "site 1", "site 2", ": done"} {
				if !strings.Contains(out, frag) {
					t.Errorf("trace after merge error is missing %q:\n%s", frag, out)
				}
			}
		})
	}
}

// A retried attempt is part of the trace: the span writes the failed
// attempt's own line between the round's start and the site line of the
// attempt that succeeded.
func TestLineObserverTraceShowsRetries(t *testing.T) {
	coord := faultCluster(t, faultinject.Config{FailFirst: 1})
	coord.SetRetryPolicy(RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond})
	var buf bytes.Buffer
	coord.SetTrace(&buf)
	if _, err := coord.ExecuteWith(context.Background(), chainQuery(), plan.SelectNone()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	const retryLine = "round base: site 1 attempt 1 failed (faultinject: injected failure), retrying\n"
	if strings.Count(out, retryLine) != 1 {
		t.Errorf("trace wants exactly one line %q:\n%s", retryLine, out)
	}
	// The 15 lines of the fault-free trace plus the retry line.
	if lines := strings.Count(out, "\n"); lines != 16 {
		t.Errorf("trace lines = %d, want 16:\n%s", lines, out)
	}
}

// A failed query's profile records every attempt of the failing site as a
// Failed call — the final one included — in whichever kind of round it
// failed, and only successful calls as calls: no phantom entry for the failed
// site, and none of its bytes in the round's totals.
func TestFailedQueryProfileRecordsEveryAttempt(t *testing.T) {
	for _, tc := range []struct {
		name     string
		failFrom int // site 1's first failing data call
		round    string
	}{
		{"base-round", 1, "base"},
		{"operator-round", 2, "MD1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coord := faultCluster(t, faultinject.Config{FailFrom: tc.failFrom})
			coord.SetRetryPolicy(RetryPolicy{MaxAttempts: 2})
			var trace bytes.Buffer
			coord.SetTrace(&trace)
			qid := obs.NewQueryID()
			ctx := obs.WithQueryID(context.Background(), qid)
			if _, err := coord.ExecuteWith(ctx, chainQuery(), plan.SelectNone()); !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("err = %v, want the injected failure", err)
			}
			p := obs.Profiles.Get(qid)
			if p == nil {
				t.Fatal("failed query left no profile")
			}
			last := &p.Rounds[len(p.Rounds)-1]
			if last.Name != tc.round {
				t.Fatalf("query failed in round %s, want %s", last.Name, tc.round)
			}
			var failed []int
			var ok []int
			var down, up int
			for _, c := range last.Calls {
				if c.Failed {
					if c.Site != 1 || c.Err == "" {
						t.Errorf("failed call %+v, want site 1 with an error", c)
					}
					failed = append(failed, c.Attempt)
					continue
				}
				ok = append(ok, c.Site)
				down += c.BytesDown
				up += c.BytesUp
			}
			if len(failed) != 2 || failed[0] != 1 || failed[1] != 2 {
				t.Errorf("failed attempts %v, want [1 2]", failed)
			}
			if len(ok) != 2 || ok[0] != 0 || ok[1] != 2 {
				t.Errorf("successful calls at sites %v, want [0 2]", ok)
			}
			if last.BytesDown != down || last.BytesUp != up {
				t.Errorf("round totals %d/%d, successful calls sum to %d/%d", last.BytesDown, last.BytesUp, down, up)
			}
			final := "round " + tc.round + ": site 1 attempt 2 failed (faultinject: injected failure)\n"
			if strings.Count(trace.String(), final) != 1 {
				t.Errorf("trace wants exactly one line %q:\n%s", final, trace.String())
			}
		})
	}
}

// A TCP site process dying mid-conversation must produce a transport error
// under the default (no-retry) policy, and other queries against remaining
// connections must not be affected.
func TestTCPSiteDeath(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	global := randomGlobal(rng, 50, 12)
	gi := global.Schema.MustIndex("g")

	var sites []transport.Site
	var servers []*transport.Server
	for i := 0; i < 2; i++ {
		lo, hi := int64(i)*6, int64(i)*6+5
		es := engine.NewSite(i)
		part := global.Filter(func(tp relation.Tuple) bool { return tp[gi].Int >= lo && tp[gi].Int <= hi })
		if err := es.Load(context.Background(), "T", part); err != nil {
			t.Fatal(err)
		}
		srv, err := transport.Serve(es, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		cli, err := transport.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		sites = append(sites, cli)
	}
	defer servers[0].Close()

	coord, _ := New(sites, nil, stats.NetModel{})
	if _, err := coord.ExecuteWith(context.Background(), chainQuery(), plan.SelectNone()); err != nil {
		t.Fatalf("healthy run failed: %v", err)
	}
	// Kill site 1's server; the next query must fail cleanly.
	servers[1].Close()
	if _, err := coord.ExecuteWith(context.Background(), chainQuery(), plan.SelectNone()); err == nil {
		t.Error("query against dead site must fail")
	}
}
