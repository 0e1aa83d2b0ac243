package core

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"skalla/internal/engine"
	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/plan"
	"skalla/internal/relation"
	"skalla/internal/server"
	"skalla/internal/stats"
	"skalla/internal/transport"
)

// gateSite parks every site entry point until the gate channel closes,
// counting entries — it lets a test pin a query inside execution (holding
// its admission slot) and observe whether a second query's site work ever
// starts.
type gateSite struct {
	transport.Site
	gate  <-chan struct{}
	calls *atomic.Int64
}

func (g *gateSite) wait(ctx context.Context) error {
	g.calls.Add(1)
	select {
	case <-g.gate:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (g *gateSite) EvalBase(ctx context.Context, bq gmdj.BaseQuery) (*relation.Relation, stats.Call, error) {
	if err := g.wait(ctx); err != nil {
		return nil, stats.Call{}, err
	}
	return g.Site.EvalBase(ctx, bq)
}

func (g *gateSite) EvalOperatorStream(ctx context.Context, req engine.OperatorRequest, sink func(*relation.Relation) error) (stats.Call, error) {
	if err := g.wait(ctx); err != nil {
		return stats.Call{}, err
	}
	return g.Site.EvalOperatorStream(ctx, req, sink)
}

func (g *gateSite) EvalLocal(ctx context.Context, req engine.LocalRequest) (*relation.Relation, stats.Call, error) {
	if err := g.wait(ctx); err != nil {
		return nil, stats.Call{}, err
	}
	return g.Site.EvalLocal(ctx, req)
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// A queued query whose session disconnects before admission must release its
// queue slot without executing: the skalla_server_queued_queries gauge drops
// back to zero, no site work starts for it, and no orphan profile appears in
// /debug/queries under its query ID.
func TestQueuedQueryReleasedOnSessionDisconnect(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	global := randomGlobal(rng, 60, 12)
	sites, cat := buildCluster(t, global, "T", 3, 4, true)

	gate := make(chan struct{})
	var siteCalls atomic.Int64
	for i := range sites {
		sites[i] = &gateSite{Site: sites[i], gate: gate, calls: &siteCalls}
	}
	coord, err := New(sites, cat, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	coord.SetAdmission(1, 4) // one slot; the second query must queue

	srv, err := server.Serve(func(ctx context.Context, stmt string) (*server.Result, error) {
		res, err := coord.Execute(ctx, chainQuery(), plan.None())
		if err != nil {
			return nil, err
		}
		var queued time.Duration
		if res.Profile != nil {
			queued = res.Profile.QueueTime
		}
		return &server.Result{Rel: res.Rel, Queued: queued}, nil
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if got := obs.ServerQueuedQueries.Value(); got != 0 {
		t.Fatalf("queued gauge = %d before test, want 0", got)
	}

	// Session 1: a query that parks inside site evaluation, holding the only
	// admission slot.
	c1, err := server.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	first := make(chan error, 1)
	go func() {
		_, _, err := c1.Query(context.Background(), "q1")
		first <- err
	}()
	waitFor(t, "first query to reach the sites", func() bool { return siteCalls.Load() > 0 })

	// Session 2: its query cannot get a slot and parks in the admission
	// queue.
	c2, err := server.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	second := make(chan error, 1)
	go func() {
		_, _, err := c2.Query(context.Background(), "q2")
		second <- err
	}()
	waitFor(t, "second query to queue", func() bool { return obs.ServerQueuedQueries.Value() == 1 })
	callsBeforeDisconnect := siteCalls.Load()

	// The second session disconnects while queued: the server must cancel its
	// statement, releasing the queue slot without executing anything.
	c2.Close()
	waitFor(t, "queue slot release", func() bool { return obs.ServerQueuedQueries.Value() == 0 })
	if err := <-second; err == nil {
		t.Fatal("second query reported success after its session disconnected")
	}

	// The gate is still closed, so any site entry past this point could only
	// have come from the abandoned query starting to execute — it must not.
	if got := siteCalls.Load(); got != callsBeforeDisconnect {
		t.Fatalf("abandoned queued query reached the sites: %d calls, had %d", got, callsBeforeDisconnect)
	}

	// Unblock the first query and let it finish normally — its slot was never
	// disturbed.
	close(gate)
	if err := <-first; err != nil {
		t.Fatalf("first query failed: %v", err)
	}

	// The abandoned query never started site work and never recorded a
	// profile. Session IDs are sequential: session 2's first statement is
	// s2-1.
	if p := obs.Profiles.Get("s2-1"); p != nil {
		t.Fatalf("abandoned queued query left an orphan profile: %+v", p)
	}
	prof := obs.Profiles.Get("s1-1")
	if prof == nil {
		t.Fatal("completed query s1-1 missing from the profile ring")
	}
	if got := obs.ServerQueuedQueries.Value(); got != 0 {
		t.Fatalf("queued gauge = %d after drain, want 0", got)
	}
}

// A client-side cancellation of a queued statement surfaces the context
// error through the coordinator (covered by TestAdmissionQueueCancellation
// at the admission layer); this exercises the full stack: the handler
// returns the context error, and the wire reports it as an internal-coded
// failure rather than executing.
func TestQueuedQueryClientCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	global := randomGlobal(rng, 60, 12)
	sites, cat := buildCluster(t, global, "T", 3, 4, true)

	gate := make(chan struct{})
	var siteCalls atomic.Int64
	for i := range sites {
		sites[i] = &gateSite{Site: sites[i], gate: gate, calls: &siteCalls}
	}
	coord, err := New(sites, cat, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	coord.SetAdmission(1, 4)

	hold := make(chan error, 1)
	go func() {
		_, err := coord.Execute(context.Background(), chainQuery(), plan.None())
		hold <- err
	}()
	waitFor(t, "holder to reach the sites", func() bool { return siteCalls.Load() > 0 })

	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() {
		_, err := coord.Execute(ctx, chainQuery(), plan.None())
		queued <- err
	}()
	waitFor(t, "second query to queue", func() bool { return obs.ServerQueuedQueries.Value() == 1 })
	cancel()
	if err := <-queued; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled queued query returned %v, want context.Canceled", err)
	}
	if got := obs.ServerQueuedQueries.Value(); got != 0 {
		t.Fatalf("queued gauge = %d after cancellation, want 0", got)
	}
	close(gate)
	if err := <-hold; err != nil {
		t.Fatalf("holder failed: %v", err)
	}
}
