package core

import (
	"context"
	"sync"
	"time"

	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/plan"
	"skalla/internal/relation"
)

// The shared-work layer: concurrent statements that compile to the same plan
// fingerprint elect a leader that runs the distributed rounds once while the
// followers await its committed result (Theorem 1 makes the merged X
// reusable: it is a pure function of the plan and the site data, both pinned
// by the fingerprint's catalog-generation hash). Under storm traffic this
// turns O(queries) site rounds into O(distinct plans).
//
// Lifecycle: the leader registers its flight before admission, so every
// follower arriving during the admission wait also collapses onto it.
// Execution runs on a context detached from the leader's own — a leader whose
// session disconnects mid-round must not fail its followers — and the
// detached context is refcounted: each waiter (leader included) holds one
// reference while it waits, and only when the last waiter leaves is the
// execution cancelled (nobody is left to consume the result). A cancelled
// flight stays registered until its rounds return, but it is abandoned: an
// arrival that finds no waiter on it starts a fresh flight in its place
// instead of joining an execution that can only fail. Completion removes the
// flight from the group — unless a fresh one has replaced it — before
// publishing, so late arrivals start a fresh flight (or hit the result cache)
// instead of reading a closed one.
//
// Results: the finished relation is built once and never copied. It becomes
// the flight's result and the cache entry as it is, its rows read-only and
// its wire frame cut once (relation.ShareFrame); every consumer — leader,
// follower, cache hit — gets its own header over those rows
// (relation.View), which it may re-slice or point at a copy but not write.

// flightGroup tracks in-flight executions by plan fingerprint.
type flightGroup struct {
	mu sync.Mutex
	//skallavet:allow stringkey -- flights keyed by plan fingerprint: one lookup per query, not per tuple
	inflight map[string]*flight
}

// flight is one leader execution plus its waiters.
type flight struct {
	fp        string
	done      chan struct{} // closed after rel/err publish
	rel       *relation.Relation
	err       error
	refs      int // waiters still waiting (leader included)
	followers int
	cancel    context.CancelFunc // cancels the detached execution context
	group     *flightGroup
}

func newFlightGroup() *flightGroup {
	//skallavet:allow stringkey -- flights keyed by plan fingerprint: one lookup per query, not per tuple
	return &flightGroup{inflight: make(map[string]*flight)}
}

// leave drops one waiter reference; when the last waiter is gone the detached
// execution is cancelled — a result nobody will read is not worth the site
// rounds. Cancelling after completion is a harmless no-op.
func (fl *flight) leave() {
	fl.group.mu.Lock()
	fl.refs--
	last := fl.refs == 0
	fl.group.mu.Unlock()
	if last {
		fl.cancel()
	}
}

// SetSingleFlight toggles cross-query single-flight collapsing: when enabled,
// concurrent executions of plans with equal fingerprints share one
// distributed execution (see the package comment on the shared-work layer).
// Disabled by default; Serve enables it for the multi-tenant server.
func (c *Coordinator) SetSingleFlight(enabled bool) {
	if enabled {
		c.flights = newFlightGroup()
	} else {
		c.flights = nil
	}
}

// executeShared is ExecutePlan's path when the shared-work layer is active:
// result cache first (zero rounds), then single-flight join-or-lead, then a
// plain execution with a cache commit.
func (c *Coordinator) executeShared(ctx context.Context, pl *plan.Plan, src gmdj.SchemaSource) (*Result, error) {
	if rel, ok := c.results.get(pl.Fingerprint, c.cat.Gen()); ok {
		return c.sharedResult(ctx, pl, rel, 0, "cache")
	}
	g := c.flights
	if g == nil {
		// Result cache only: execute normally and commit the result.
		res, err := c.executeUnshared(ctx, pl, src)
		if err == nil && res != nil {
			c.commitResult(pl, shareResult(res))
		}
		return res, err
	}
	g.mu.Lock()
	if fl, ok := g.inflight[pl.Fingerprint]; ok && fl.refs > 0 {
		fl.refs++
		fl.followers++
		g.mu.Unlock()
		return c.awaitFlight(ctx, fl, pl)
	}
	// Detach execution from the leader's own context (values — query ID,
	// trace tags — are preserved): the flight's refcount, not the leader's
	// session, decides when the rounds are abandoned.
	execCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	fl := &flight{fp: pl.Fingerprint, done: make(chan struct{}), refs: 1, cancel: cancel, group: g}
	g.inflight[pl.Fingerprint] = fl
	g.mu.Unlock()
	return c.leadFlight(ctx, execCtx, fl, pl, src)
}

// leadFlight runs the distributed rounds as the flight's leader and publishes
// the outcome to every follower.
func (c *Coordinator) leadFlight(ctx, execCtx context.Context, fl *flight, pl *plan.Plan, src gmdj.SchemaSource) (*Result, error) {
	// The leader's own waiter reference: released when its context dies (a
	// disconnected session stops holding the execution alive) or when the
	// execution finishes. Bounded by stop, closed below.
	stop := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		select {
		case <-ctx.Done():
			fl.leave()
		case <-stop:
		}
	}()
	res, prof, err := c.executeSpanned(execCtx, pl, src)
	close(stop)
	watch.Wait()

	// Unregister before publishing: a statement arriving after this point
	// must not join a flight whose done channel is about to close under it.
	// An abandoned flight may have been replaced already; the entry is then
	// the fresh flight's to remove.
	g := fl.group
	g.mu.Lock()
	if g.inflight[fl.fp] == fl {
		delete(g.inflight, fl.fp)
	}
	followers := fl.followers
	g.mu.Unlock()

	var shared *relation.Relation
	if err == nil && res != nil {
		shared = shareResult(res)
	}
	fl.rel, fl.err = shared, err
	close(fl.done)
	c.commitResult(pl, shared)

	if followers > 0 {
		obs.ServerSingleflightLeaders.Inc()
		if prof != nil {
			prof.Shared = "leader"
		}
	}
	c.finishProfile(prof, pl, res)
	return res, err
}

// awaitFlight waits for a concurrent leader's committed result. The wait is
// reported as the follower's queue time: it is time spent parked behind
// shared work, exactly like an admission wait.
func (c *Coordinator) awaitFlight(ctx context.Context, fl *flight, pl *plan.Plan) (*Result, error) {
	obs.ServerSingleflightFollowers.Inc()
	start := time.Now()
	select {
	case <-ctx.Done():
		fl.leave()
		return nil, ctx.Err()
	case <-fl.done:
	}
	if fl.err != nil {
		return nil, fl.err
	}
	return c.sharedResult(ctx, pl, fl.rel, time.Since(start), "follower")
}

// shareResult declares a finished result shared: its relation becomes
// read-only, with one wire frame cut for every consumer, and the caller's
// Result keeps a header (relation.View) over the same rows. The returned
// relation is what followers and the result cache hold.
func shareResult(res *Result) *relation.Relation {
	shared := res.Rel
	shared.ShareFrame()
	res.Rel = shared.View()
	return shared
}

// sharedResult serves one query from a shared relation (a leader's committed
// X or a result-cache entry): the caller gets its own header over the shared,
// read-only rows, and the rows' bytes are charged against a fresh per-query
// memory budget — shared results get no free ride past -query-mem-budget,
// and the leader is not double-charged (its own budget covered its own
// execution). A synthesized zero-round profile lands in the ring so
// /debug/queries accounts for every served query.
func (c *Coordinator) sharedResult(ctx context.Context, pl *plan.Plan, shared *relation.Relation, wait time.Duration, how string) (*Result, error) {
	qid := obs.QueryIDFrom(ctx)
	if qid == "" {
		qid = obs.NewQueryID()
	}
	start := time.Now()
	rel := shared.View()
	err := newMemBudget(c.memBudget).charge(rel.MemBytes())
	prof := &obs.QueryProfile{QueryID: qid, Start: start, QueueTime: wait, Shared: how}
	var res *Result
	if err == nil {
		res = &Result{Rel: rel, Plan: pl}
		obs.CoordQueries.With("ok").Inc()
	} else {
		prof.Err = err.Error()
		obs.CoordQueries.With("error").Inc()
	}
	prof.Elapsed = time.Since(start)
	c.finishProfile(prof, pl, res)
	return res, err
}

// commitResult stores a finalized result in the cache, re-checking the
// catalog generation at commit time: a generation bump that lands between
// plan compile and result commit means the result may describe data the
// catalog no longer does, so it is dropped rather than cached (a stale entry
// would additionally be caught at lookup, but not committing it at all keeps
// the window closed for readers racing the bump). rel must be a shared
// relation (shareResult): hits hand out views of it, never write it.
func (c *Coordinator) commitResult(pl *plan.Plan, rel *relation.Relation) {
	if c.results == nil || rel == nil {
		return
	}
	if c.cat.Gen() != pl.CatalogGen {
		return
	}
	c.results.put(pl.Fingerprint, pl.CatalogGen, rel)
}
