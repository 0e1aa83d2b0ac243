package core

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"skalla/internal/obs"
	"skalla/internal/plan"
	"skalla/internal/relation"
	"skalla/internal/stats"
	"skalla/internal/transport"
)

// TestSingleFlightStorm is the shared-work acceptance check: 32 concurrent
// executions of the same plan must run the distributed rounds exactly once —
// one leader, 31 followers — and every caller's result must be byte-identical
// to the serial evaluation. The sites are gated so the leader parks inside
// its first round until every follower has joined the flight, making the
// collapse deterministic under -race.
func TestSingleFlightStorm(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	global := randomGlobal(rng, 200, 12)
	sites, cat := buildCluster(t, global, "T", 3, 5)

	plain, err := New(sites, cat, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := plain.ExecuteWith(context.Background(), chainQuery(), plan.SelectAll())
	if err != nil {
		t.Fatal(err)
	}
	want := sortedText(serial.Rel)

	gate := make(chan struct{})
	var siteCalls atomic.Int64
	gated := make([]transport.Site, len(sites))
	for i := range sites {
		gated[i] = &gateSite{Site: sites[i], gate: gate, calls: &siteCalls}
	}
	coord, err := New(gated, cat, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	coord.SetSingleFlight(true)

	leaders0 := obs.ServerSingleflightLeaders.Value()
	followers0 := obs.ServerSingleflightFollowers.Value()
	const storm = 32
	results := make([]*Result, storm)
	errs := make([]error, storm)
	var wg sync.WaitGroup
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = coord.ExecuteWith(context.Background(), chainQuery(), plan.SelectAll())
		}(i)
	}
	// The leader is parked at the gate; wait until the other 31 statements
	// have all joined its flight, then release the rounds.
	waitFor(t, "31 followers to join the flight", func() bool {
		return obs.ServerSingleflightFollowers.Value()-followers0 == storm-1
	})
	close(gate)
	wg.Wait()

	for i := range results {
		if errs[i] != nil {
			t.Fatalf("storm execution %d: %v", i, errs[i])
		}
		if got := sortedText(results[i].Rel); got != want {
			t.Fatalf("storm execution %d diverges from serial run\ngot:\n%.2000s\nwant:\n%.2000s", i, got, want)
		}
	}
	if got := obs.ServerSingleflightLeaders.Value() - leaders0; got != 1 {
		t.Errorf("leaders = %d, want 1", got)
	}
	stormCalls := siteCalls.Load()

	// The whole storm must have cost exactly one execution's site calls: a
	// fresh (non-concurrent) run on the same coordinator re-runs the rounds
	// and establishes that count.
	if _, err := coord.ExecuteWith(context.Background(), chainQuery(), plan.SelectAll()); err != nil {
		t.Fatal(err)
	}
	soloCalls := siteCalls.Load() - stormCalls
	if stormCalls != soloCalls {
		t.Errorf("storm issued %d site calls, want %d (one execution)", stormCalls, soloCalls)
	}
}

// TestSingleFlightResultsArePrivate checks that collapsed executions do not
// share mutable state: truncating one caller's result header (as SQL LIMIT
// postprocessing does) must not corrupt another's.
func TestSingleFlightResultsArePrivate(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	global := randomGlobal(rng, 120, 12)
	sites, cat := buildCluster(t, global, "T", 3, 5)

	gate := make(chan struct{})
	var siteCalls atomic.Int64
	gated := make([]transport.Site, len(sites))
	for i := range sites {
		gated[i] = &gateSite{Site: sites[i], gate: gate, calls: &siteCalls}
	}
	coord, err := New(gated, cat, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	coord.SetSingleFlight(true)

	followers0 := obs.ServerSingleflightFollowers.Value()
	const n = 4
	results := make([]*Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _ = coord.ExecuteWith(context.Background(), chainQuery(), plan.SelectNone())
		}(i)
	}
	waitFor(t, "followers to join", func() bool {
		return obs.ServerSingleflightFollowers.Value()-followers0 == n-1
	})
	close(gate)
	wg.Wait()

	for i := range results {
		if results[i] == nil {
			t.Fatalf("execution %d returned no result", i)
		}
	}
	want := sortedText(results[1].Rel)
	// Truncate one caller's relation in place; the others must be unaffected.
	results[0].Rel.KeepRows([]int32{0})
	for i := 1; i < n; i++ {
		if got := sortedText(results[i].Rel); got != want {
			t.Fatalf("mutating result 0 corrupted result %d", i)
		}
	}
}

// TestSingleFlightLeaderCancelDoesNotFailFollowers: the execution runs on a
// context detached from the leader's own, so cancelling the leader's context
// while a follower waits must still deliver the follower a correct result
// (the refcount — not the leader's session — keeps the rounds alive).
func TestSingleFlightLeaderCancelDoesNotFailFollowers(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	global := randomGlobal(rng, 120, 12)
	sites, cat := buildCluster(t, global, "T", 3, 5)

	plain, err := New(sites, cat, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := plain.ExecuteWith(context.Background(), chainQuery(), plan.SelectNone())
	if err != nil {
		t.Fatal(err)
	}
	want := sortedText(serial.Rel)

	gate := make(chan struct{})
	var siteCalls atomic.Int64
	gated := make([]transport.Site, len(sites))
	for i := range sites {
		gated[i] = &gateSite{Site: sites[i], gate: gate, calls: &siteCalls}
	}
	coord, err := New(gated, cat, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	coord.SetSingleFlight(true)

	followers0 := obs.ServerSingleflightFollowers.Value()
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		coord.ExecuteWith(leaderCtx, chainQuery(), plan.SelectNone())
	}()
	waitFor(t, "leader to reach the sites", func() bool { return siteCalls.Load() > 0 })

	followerRes := make(chan *Result, 1)
	followerErr := make(chan error, 1)
	go func() {
		res, err := coord.ExecuteWith(context.Background(), chainQuery(), plan.SelectNone())
		followerRes <- res
		followerErr <- err
	}()
	waitFor(t, "follower to join the flight", func() bool {
		return obs.ServerSingleflightFollowers.Value()-followers0 == 1
	})

	// The leader's session dies mid-round. The follower's reference must keep
	// the detached execution alive.
	cancelLeader()
	close(gate)
	<-leaderDone
	if err := <-followerErr; err != nil {
		t.Fatalf("follower failed after leader cancellation: %v", err)
	}
	res := <-followerRes
	if got := sortedText(res.Rel); got != want {
		t.Fatalf("follower result diverges after leader cancellation\ngot:\n%.2000s\nwant:\n%.2000s", got, want)
	}
}

// TestSingleFlightAbandonedCancelsExecution: when every waiter leaves, the
// detached execution is cancelled rather than left running for nobody.
func TestSingleFlightAbandonedCancelsExecution(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	global := randomGlobal(rng, 120, 12)
	sites, cat := buildCluster(t, global, "T", 3, 5)

	gate := make(chan struct{})
	defer close(gate)
	var siteCalls atomic.Int64
	gated := make([]transport.Site, len(sites))
	for i := range sites {
		gated[i] = &gateSite{Site: sites[i], gate: gate, calls: &siteCalls}
	}
	coord, err := New(gated, cat, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	coord.SetSingleFlight(true)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := coord.ExecuteWith(ctx, chainQuery(), plan.SelectNone())
		done <- err
	}()
	waitFor(t, "leader to reach the sites", func() bool { return siteCalls.Load() > 0 })
	cancel()
	// With no followers the execution context dies with the leader: the gated
	// site call returns the cancellation instead of waiting for the gate.
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned flight returned %v, want context.Canceled", err)
	}
}

// TestSingleFlightJoinAfterAbandonStartsFresh: once every waiter has left a
// flight, its execution is canceled but stays registered until its site calls
// return. A statement arriving in that window must not join the doomed
// flight: it leads a fresh one and gets the correct result.
func TestSingleFlightJoinAfterAbandonStartsFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	global := randomGlobal(rng, 120, 12)
	sites, cat := buildCluster(t, global, "T", 3, 5)

	plain, err := New(sites, cat, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := plain.ExecuteWith(context.Background(), chainQuery(), plan.SelectNone())
	if err != nil {
		t.Fatal(err)
	}
	want := sortedText(serial.Rel)

	gate := make(chan struct{})
	var siteCalls atomic.Int64
	gated := make([]transport.Site, len(sites))
	for i := range sites {
		gated[i] = &gateSite{Site: sites[i], gate: gate, calls: &siteCalls, deaf: true}
	}
	coord, err := New(gated, cat, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	coord.SetSingleFlight(true)
	// waiters reports the flights registered and the waiters they hold.
	waiters := func() (flights, refs int) {
		g := coord.flights
		g.mu.Lock()
		defer g.mu.Unlock()
		for _, fl := range g.inflight {
			flights, refs = flights+1, refs+fl.refs
		}
		return flights, refs
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		coord.ExecuteWith(leaderCtx, chainQuery(), plan.SelectNone())
	}()
	waitFor(t, "leader to reach the sites", func() bool { return siteCalls.Load() > 0 })
	cancelLeader()
	waitFor(t, "the leader to abandon its flight", func() bool {
		flights, refs := waiters()
		return flights == 1 && refs == 0
	})

	type outcome struct {
		res *Result
		err error
	}
	second := make(chan outcome, 1)
	go func() {
		res, err := coord.ExecuteWith(context.Background(), chainQuery(), plan.SelectNone())
		second <- outcome{res, err}
	}()
	waitFor(t, "the second statement to wait on a flight", func() bool {
		_, refs := waiters()
		return refs == 1
	})
	close(gate)
	<-leaderDone
	got := <-second
	if got.err != nil {
		t.Fatalf("statement arriving after the abandon failed: %v", got.err)
	}
	if text := sortedText(got.res.Rel); text != want {
		t.Fatalf("statement arriving after the abandon diverges\ngot:\n%.2000s\nwant:\n%.2000s", text, want)
	}
	if flights, _ := waiters(); flights != 0 {
		t.Errorf("%d flights still registered after both statements returned", flights)
	}
}

// TestResultCacheServesWithZeroSiteRounds: a repeat of a cached query is
// answered entirely at the coordinator — no site exchange of any kind — with
// a result identical to the executed one.
func TestResultCacheServesWithZeroSiteRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	global := randomGlobal(rng, 150, 12)
	sites, cat := buildCluster(t, global, "T", 3, 5)

	gate := make(chan struct{})
	close(gate) // never parked; the counter is what matters
	var siteCalls atomic.Int64
	gated := make([]transport.Site, len(sites))
	for i := range sites {
		gated[i] = &gateSite{Site: sites[i], gate: gate, calls: &siteCalls}
	}
	coord, err := New(gated, cat, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	coord.SetResultCache(8)

	hits0 := obs.CoordResultCacheHits.Value()
	cold, err := coord.ExecuteWith(context.Background(), chainQuery(), plan.SelectAll())
	if err != nil {
		t.Fatal(err)
	}
	if coord.ResultCacheLen() != 1 {
		t.Fatalf("cache holds %d entries after cold run, want 1", coord.ResultCacheLen())
	}
	coldCalls := siteCalls.Load()

	hot, err := coord.ExecuteWith(context.Background(), chainQuery(), plan.SelectAll())
	if err != nil {
		t.Fatal(err)
	}
	if got := siteCalls.Load(); got != coldCalls {
		t.Errorf("cache hit issued %d site calls", got-coldCalls)
	}
	if got := obs.CoordResultCacheHits.Value() - hits0; got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}
	if got, want := sortedText(hot.Rel), sortedText(cold.Rel); got != want {
		t.Fatalf("cached result diverges\ngot:\n%.2000s\nwant:\n%.2000s", got, want)
	}
	if hot.Profile == nil || hot.Profile.Shared != "cache" {
		t.Errorf("cache-hit profile Shared = %+v, want \"cache\"", hot.Profile)
	}

	// The hit hands out a private header: truncating it must not corrupt the
	// cached entry.
	hot.Rel.KeepRows([]int32{0})
	again, err := coord.ExecuteWith(context.Background(), chainQuery(), plan.SelectAll())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sortedText(again.Rel), sortedText(cold.Rel); got != want {
		t.Fatal("mutating a cache-hit result corrupted the cached entry")
	}
}

// TestResultCacheGenerationBumpMidExecution is the satellite's stale-read
// check: a catalog Generation bump landing while an execution is in flight —
// after its plan was compiled, before its result commits — must prevent the
// commit, so no later statement can be served a super-aggregate computed
// under the old generation.
func TestResultCacheGenerationBumpMidExecution(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	global := randomGlobal(rng, 150, 12)
	sites, cat := buildCluster(t, global, "T", 3, 5)

	gate := make(chan struct{})
	var siteCalls atomic.Int64
	gated := make([]transport.Site, len(sites))
	for i := range sites {
		gated[i] = &gateSite{Site: sites[i], gate: gate, calls: &siteCalls}
	}
	coord, err := New(gated, cat, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	coord.SetResultCache(8)

	done := make(chan error, 1)
	go func() {
		_, err := coord.ExecuteWith(context.Background(), chainQuery(), plan.SelectAll())
		done <- err
	}()
	waitFor(t, "execution to reach the sites", func() bool { return siteCalls.Load() > 0 })
	cat.Generation++ // distribution knowledge re-derived mid-execution
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The result was computed under generation 0 and must not be committed.
	if got := coord.ResultCacheLen(); got != 0 {
		t.Fatalf("stale result committed to the cache: %d entries", got)
	}
	// The next execution recompiles under the new generation, runs real
	// rounds, and its commit (generation unchanged since compile) sticks.
	calls0 := siteCalls.Load()
	if _, err := coord.ExecuteWith(context.Background(), chainQuery(), plan.SelectAll()); err != nil {
		t.Fatal(err)
	}
	if siteCalls.Load() == calls0 {
		t.Fatal("post-bump execution did not reach the sites")
	}
	if got := coord.ResultCacheLen(); got != 1 {
		t.Fatalf("post-bump result not cached: %d entries", got)
	}
}

// TestResultCacheConcurrentGenerationBumps hammers the cache with a storm of
// executions racing generation bumps under -race: every result must still
// match the oracle (stale entries are dropped at lookup and never committed),
// regardless of how lookups, commits, and bumps interleave.
func TestResultCacheConcurrentGenerationBumps(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	global := randomGlobal(rng, 150, 12)
	sites, cat := buildCluster(t, global, "T", 3, 5)
	plain, err := New(sites, cat, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := plain.ExecuteWith(context.Background(), chainQuery(), plan.SelectNone())
	if err != nil {
		t.Fatal(err)
	}
	want := sortedText(serial.Rel)

	coord, err := New(sites, cat, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	coord.SetResultCache(8)
	coord.SetSingleFlight(true)

	// One plan, compiled once under generation 0, executed across rounds of a
	// concurrent storm separated by generation bumps (the barrier between
	// rounds is what makes the bump itself race-free: the Generation field is
	// a plain counter, synchronized here exactly as a catalog rebuild would
	// be). Within a round, cold executions, cache commits, cache hits, and
	// single-flight collapses race freely; after a bump the cached entry is
	// stale — the lookup must drop it (miss reason "generation") and the
	// commit-time re-check must refuse to re-commit results of the now-stale
	// plan, so the cache ends the test empty rather than poisoned.
	pl, err := coord.PlanWith(context.Background(), chainQuery(), plan.SelectNone())
	if err != nil {
		t.Fatal(err)
	}
	src := coord.SchemaSource(context.Background())
	genMisses0 := obs.CoordResultCacheMisses.With("generation").Value()
	const rounds = 4
	const queriers = 8
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for i := 0; i < queriers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := coord.ExecutePlan(context.Background(), pl, src)
				if err != nil {
					t.Errorf("round %d querier %d: %v", r, i, err)
					return
				}
				if got := sortedText(res.Rel); got != want {
					t.Errorf("round %d querier %d: result diverges from oracle", r, i)
				}
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		cat.Generation++
	}
	// Each post-bump round found at most a stale entry: at least one
	// generation miss per round after the first, and — because the plan's
	// compile generation never matches again — nothing left committed.
	if got := obs.CoordResultCacheMisses.With("generation").Value() - genMisses0; got < 1 {
		t.Errorf("generation misses = %d, want >= 1", got)
	}
	if got := coord.ResultCacheLen(); got != 0 {
		t.Errorf("stale-plan results left in the cache: %d entries", got)
	}
}

// TestSharedResultsChargeMemBudget: results served from shared work (cache
// hits and single-flight followers) get no free ride past the per-query
// memory budget — each served query charges the bytes of the rows it holds.
func TestSharedResultsChargeMemBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	global := randomGlobal(rng, 150, 12)
	sites, cat := buildCluster(t, global, "T", 3, 5)

	t.Run("cache-hit", func(t *testing.T) {
		coord, err := New(sites, cat, stats.NetModel{})
		if err != nil {
			t.Fatal(err)
		}
		coord.SetResultCache(8)
		cold, err := coord.ExecuteWith(context.Background(), chainQuery(), plan.SelectAll())
		if err != nil {
			t.Fatal(err)
		}
		// A budget below the result's own footprint: the cached copy exists,
		// but serving it must still fail the over-budget query.
		coord.SetQueryMemBudget(cold.Rel.MemBytes() / 2)
		if _, err := coord.ExecuteWith(context.Background(), chainQuery(), plan.SelectAll()); !errors.Is(err, ErrQueryMemBudget) {
			t.Fatalf("over-budget cache hit returned %v, want ErrQueryMemBudget", err)
		}
		// A sufficient budget serves the hit normally.
		coord.SetQueryMemBudget(cold.Rel.MemBytes() * 4)
		if _, err := coord.ExecuteWith(context.Background(), chainQuery(), plan.SelectAll()); err != nil {
			t.Fatalf("within-budget cache hit failed: %v", err)
		}
	})

	t.Run("follower", func(t *testing.T) {
		gate := make(chan struct{})
		var siteCalls atomic.Int64
		gated := make([]transport.Site, len(sites))
		for i := range sites {
			gated[i] = &gateSite{Site: sites[i], gate: gate, calls: &siteCalls}
		}
		coord, err := New(gated, cat, stats.NetModel{})
		if err != nil {
			t.Fatal(err)
		}
		coord.SetSingleFlight(true)

		// Budget below the result footprint (measured on an unshared run).
		plain, err := New(sites, cat, stats.NetModel{})
		if err != nil {
			t.Fatal(err)
		}
		serial, err := plain.ExecuteWith(context.Background(), chainQuery(), plan.SelectNone())
		if err != nil {
			t.Fatal(err)
		}
		coord.SetQueryMemBudget(serial.Rel.MemBytes() * 100) // leader's own budget: ample

		followers0 := obs.ServerSingleflightFollowers.Value()
		leaderDone := make(chan error, 1)
		go func() {
			_, err := coord.ExecuteWith(context.Background(), chainQuery(), plan.SelectNone())
			leaderDone <- err
		}()
		waitFor(t, "leader to reach the sites", func() bool { return siteCalls.Load() > 0 })
		// Shrink the budget before the follower joins: the leader has already
		// created its budget, so only the follower is affected.
		coord.SetQueryMemBudget(serial.Rel.MemBytes() / 2)
		followerDone := make(chan error, 1)
		go func() {
			_, err := coord.ExecuteWith(context.Background(), chainQuery(), plan.SelectNone())
			followerDone <- err
		}()
		waitFor(t, "follower to join the flight", func() bool {
			return obs.ServerSingleflightFollowers.Value()-followers0 == 1
		})
		close(gate)
		if err := <-leaderDone; err != nil {
			t.Fatalf("leader failed: %v", err)
		}
		if err := <-followerDone; !errors.Is(err, ErrQueryMemBudget) {
			t.Fatalf("over-budget follower returned %v, want ErrQueryMemBudget", err)
		}
	})
}

// TestResultCacheUnitInvalidation exercises the cache directly: generation
// mismatches evict at lookup, first-writer-wins keeps one stable relation for
// duplicate commits of the same generation, and newer generations replace.
func TestResultCacheUnitInvalidation(t *testing.T) {
	rc := newResultCache(2)
	relA := relation.New(tSchema)
	relA.MustAppend(relation.Tuple{relation.NewInt(1), relation.NewInt(1), relation.NewInt(1)})
	relB := relation.New(tSchema)

	cold0 := obs.CoordResultCacheMisses.With("cold").Value()
	gen0 := obs.CoordResultCacheMisses.With("generation").Value()
	if _, ok := rc.get("fp", 1); ok {
		t.Fatal("empty cache reported a hit")
	}
	if got := obs.CoordResultCacheMisses.With("cold").Value() - cold0; got != 1 {
		t.Fatalf("cold misses = %d, want 1", got)
	}

	rc.put("fp", 1, relA)
	if got, ok := rc.get("fp", 1); !ok || got != relA {
		t.Fatal("get after put did not return the committed relation")
	}
	// Duplicate commit of the same generation (two racing leaders): the first
	// writer wins so concurrent readers keep one stable relation.
	rc.put("fp", 1, relB)
	if got, _ := rc.get("fp", 1); got != relA {
		t.Fatal("duplicate same-generation commit replaced the entry")
	}

	// A moved generation is a miss that evicts.
	if _, ok := rc.get("fp", 2); ok {
		t.Fatal("stale-generation entry served")
	}
	if got := obs.CoordResultCacheMisses.With("generation").Value() - gen0; got != 1 {
		t.Fatalf("generation misses = %d, want 1", got)
	}
	if rc.len() != 0 {
		t.Fatalf("stale entry not evicted: len = %d", rc.len())
	}

	// A newer-generation commit over a stale entry replaces it in place.
	rc.put("fp", 1, relA)
	rc.put("fp", 2, relB)
	if got, ok := rc.get("fp", 2); !ok || got != relB {
		t.Fatal("newer-generation commit did not replace the stale entry")
	}

	// Nil cache (disabled) never hits and never stores.
	var off *resultCache
	off.put("x", 1, relA)
	if _, ok := off.get("x", 1); ok || off.len() != 0 {
		t.Fatal("disabled cache misbehaved")
	}
	if newResultCache(0) != nil {
		t.Fatal("capacity 0 should disable caching")
	}
}
