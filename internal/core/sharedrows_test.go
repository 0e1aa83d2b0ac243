package core

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"skalla/internal/egil"
	"skalla/internal/obs"
	"skalla/internal/plan"
	"skalla/internal/relation"
	"skalla/internal/stats"
	"skalla/internal/transport"
)

// sharedCoordinator builds a gated coordinator over in-process sites with
// the result cache and single-flight on, so a test can park a leader inside
// its rounds until its followers have joined.
func sharedCoordinator(t *testing.T, global *relation.Relation) (*Coordinator, chan struct{}) {
	t.Helper()
	sites, cat := buildCluster(t, global, "T", 3, 5)
	gate := make(chan struct{})
	var calls atomic.Int64
	gated := make([]transport.Site, len(sites))
	for i := range sites {
		gated[i] = &gateSite{Site: sites[i], gate: gate, calls: &calls}
	}
	coord, err := New(gated, cat, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	coord.SetResultCache(8)
	coord.SetSingleFlight(true)
	return coord, gate
}

// leaderAndFollower runs pl twice concurrently on coord and returns the
// leader's result, then the follower's: the first to register leads, the
// other joins its flight before the gate opens.
func leaderAndFollower(t *testing.T, coord *Coordinator, gate chan struct{}, pl *plan.Plan) [2]*Result {
	t.Helper()
	src := coord.SchemaSource(context.Background())
	followers0 := obs.ServerSingleflightFollowers.Value()
	var out [2]*Result
	var errs [2]error
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = coord.ExecutePlan(context.Background(), pl, src)
		}(i)
	}
	waitFor(t, "the follower to join the flight", func() bool {
		return obs.ServerSingleflightFollowers.Value()-followers0 == 1
	})
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("execution %d: %v", i, err)
		}
	}
	if out[0].Profile.Shared == "follower" {
		out[0], out[1] = out[1], out[0]
	}
	if out[0].Profile.Shared != "leader" || out[1].Profile.Shared != "follower" {
		t.Fatalf("profiles say %q and %q, want a leader and a follower", out[0].Profile.Shared, out[1].Profile.Shared)
	}
	return out
}

// TestSharedFramesAreByteIdentical: the cold run's reply frame, a follower's
// and a cache hit's are the same bytes — the hit's are the very frame the
// cold run cut, so serving it encodes nothing
// (skalla_codec_encode_bytes_total stays put).
func TestSharedFramesAreByteIdentical(t *testing.T) {
	coord, gate := sharedCoordinator(t, randomGlobal(rand.New(rand.NewSource(139)), 150, 12))
	pl, err := coord.PlanWith(context.Background(), chainQuery(), plan.SelectAll())
	if err != nil {
		t.Fatal(err)
	}
	flight := leaderAndFollower(t, coord, gate, pl)
	cold, err := flight[0].Rel.Frame()
	if err != nil {
		t.Fatal(err)
	}
	follower, err := flight[1].Rel.Frame()
	if err != nil {
		t.Fatal(err)
	}

	enc0 := obs.CodecEncodeBytes.Value()
	hit, err := coord.ExecutePlan(context.Background(), pl, coord.SchemaSource(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	if hit.Profile == nil || hit.Profile.Shared != "cache" {
		t.Fatalf("third execution was not a cache hit: %+v", hit.Profile)
	}
	hitFrame, err := hit.Rel.Frame()
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.CodecEncodeBytes.Value() - enc0; got != 0 {
		t.Errorf("a cache hit encoded %d bytes", got)
	}
	if !bytes.Equal(cold, follower) || !bytes.Equal(cold, hitFrame) {
		t.Fatal("cold, follower and cache-hit frames differ")
	}
	if &hitFrame[0] != &cold[0] || &follower[0] != &cold[0] {
		t.Error("a shared result's consumers were served separately encoded frames")
	}
	if want, _ := relation.Marshal(flight[0].Rel.Clone()); !bytes.Equal(cold, want) {
		t.Error("the shared frame is not Marshal of the result")
	}
}

// TestPostprocessLeavesSharedRowsInPlace: ORDER BY … DESC LIMIT 3 on one
// consumer's result reorders and truncates only that consumer's header — the
// concurrent follower's result and the cached entry keep their order and
// length, and the next hit serves them unchanged.
func TestPostprocessLeavesSharedRowsInPlace(t *testing.T) {
	coord, gate := sharedCoordinator(t, randomGlobal(rand.New(rand.NewSource(149)), 150, 12))
	st, err := egil.ParseStatement("SELECT g, COUNT(*) AS c, SUM(v) AS s FROM T GROUP BY g ORDER BY s DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	q, err := st.ToQuery()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := coord.PlanWith(context.Background(), q, plan.SelectAll())
	if err != nil {
		t.Fatal(err)
	}
	flight := leaderAndFollower(t, coord, gate, pl)
	cached, ok := coord.results.get(pl.Fingerprint, coord.cat.Gen())
	if !ok {
		t.Fatal("the flight's result was not cached")
	}
	want := cached.Format(-1)
	head := cached.View()
	head.KeepRows([]int32{0, 1, 2})
	firstThree := head.Format(-1)
	if flight[1].Rel.Format(-1) != want {
		t.Fatal("the follower's result differs from the cached entry")
	}

	if err := st.Postprocess(flight[0].Rel); err != nil {
		t.Fatal(err)
	}
	ordered := flight[0].Rel
	si := ordered.Schema.MustIndex("s")
	if rows := ordered.Rows(); ordered.Len() != 3 || rows[0][si].Int < rows[1][si].Int || rows[1][si].Int < rows[2][si].Int {
		t.Fatalf("postprocessed result is not the top 3 by s:\n%s", ordered)
	}
	if ordered.Format(-1) == firstThree {
		t.Fatal("the test data is already in ORDER BY order: nothing was reordered")
	}
	if got := flight[1].Rel.Format(-1); got != want {
		t.Errorf("postprocessing the leader's result changed the follower's:\n%s\nwant:\n%s", got, want)
	}
	if got := cached.Format(-1); got != want {
		t.Errorf("postprocessing the leader's result changed the cached entry:\n%s\nwant:\n%s", got, want)
	}
	hit, err := coord.ExecutePlan(context.Background(), pl, coord.SchemaSource(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	if got := hit.Rel.Format(-1); got != want {
		t.Errorf("a later hit serves postprocessed rows:\n%s\nwant:\n%s", got, want)
	}
}

// TestCacheHitAllocationIsFlatInRows: serving a cache hit hands out a header,
// not a copy, so what one hit allocates through ExecutePlan does not grow
// with the result: a 10 000-row result costs what a 100-row one does.
func TestCacheHitAllocationIsFlatInRows(t *testing.T) {
	type cost struct{ allocs, bytes float64 }
	measure := func(groups int) cost {
		global := relation.New(tSchema)
		for i := 0; i < groups; i++ {
			global.MustAppend(relation.Tuple{relation.NewInt(int64(i)), relation.NewInt(0), relation.NewInt(int64(i % 100))})
		}
		sites, cat := buildCluster(t, global, "T", 3, int64(groups/3+1))
		coord, err := New(sites, cat, stats.NetModel{})
		if err != nil {
			t.Fatal(err)
		}
		coord.SetResultCache(8)
		ctx := context.Background()
		src := coord.SchemaSource(ctx)
		pl, err := coord.PlanWith(ctx, chainQuery(), plan.SelectAll())
		if err != nil {
			t.Fatal(err)
		}
		hit := func() {
			res, err := coord.ExecutePlan(ctx, pl, src)
			if err != nil {
				t.Fatal(err)
			}
			if res.Rel.Len() != groups {
				t.Fatalf("result has %d rows, want %d", res.Rel.Len(), groups)
			}
		}
		hit() // cold: runs the rounds and commits
		hit() // first hit
		const runs = 50
		allocs := testing.AllocsPerRun(runs, hit)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			hit()
		}
		runtime.ReadMemStats(&after)
		return cost{allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs}
	}
	small, large := measure(100), measure(10_000)
	t.Logf("per hit: 100 rows %.0f allocs / %.0f B, 10 000 rows %.0f allocs / %.0f B", small.allocs, small.bytes, large.allocs, large.bytes)
	if large.allocs > small.allocs {
		t.Errorf("a 10 000-row hit makes %.0f allocations, a 100-row one %.0f", large.allocs, small.allocs)
	}
	// A copy of 9 900 more rows would be over 1 MB; allow for allocator noise.
	if large.bytes > small.bytes+1024 {
		t.Errorf("a 10 000-row hit allocates %.0f B, a 100-row one %.0f B", large.bytes, small.bytes)
	}
}
