package core

import (
	"context"
	"math/rand"
	"testing"

	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/plan"
	"skalla/internal/stats"
)

func TestPlanCacheHitMissGeneration(t *testing.T) {
	pc := newPlanCache(4)
	key := planKey{text: "Q1", sel: "auto"}
	p1 := &plan.Plan{}

	hits0 := obs.ServerPlanCacheHits.Value()
	cold0 := obs.ServerPlanCacheMisses.With("cold").Value()
	gen0 := obs.ServerPlanCacheMisses.With("generation").Value()

	if _, ok := pc.get(key, 1); ok {
		t.Fatal("empty cache reported a hit")
	}
	if got := obs.ServerPlanCacheMisses.With("cold").Value() - cold0; got != 1 {
		t.Fatalf("cold misses = %d, want 1", got)
	}

	pc.put(key, p1, 1)
	got, ok := pc.get(key, 1)
	if !ok || got != p1 {
		t.Fatalf("get after put = (%v, %v), want (p1, true)", got, ok)
	}
	if n := obs.ServerPlanCacheHits.Value() - hits0; n != 1 {
		t.Fatalf("hits = %d, want 1", n)
	}

	// Catalog generation moved: the stale entry is dropped, not served.
	if _, ok := pc.get(key, 2); ok {
		t.Fatal("stale-generation entry served")
	}
	if n := obs.ServerPlanCacheMisses.With("generation").Value() - gen0; n != 1 {
		t.Fatalf("generation misses = %d, want 1", n)
	}
	if pc.len() != 0 {
		t.Fatalf("stale entry not evicted: len = %d", pc.len())
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	pc := newPlanCache(2)
	a := planKey{text: "A", sel: "auto"}
	b := planKey{text: "B", sel: "auto"}
	c := planKey{text: "C", sel: "auto"}
	pc.put(a, &plan.Plan{}, 1)
	pc.put(b, &plan.Plan{}, 1)
	if _, ok := pc.get(a, 1); !ok { // touch A so B is the LRU victim
		t.Fatal("A missing before eviction")
	}
	pc.put(c, &plan.Plan{}, 1)
	if pc.len() != 2 {
		t.Fatalf("len = %d, want 2", pc.len())
	}
	if _, ok := pc.get(b, 1); ok {
		t.Fatal("LRU entry B survived eviction")
	}
	if _, ok := pc.get(a, 1); !ok {
		t.Fatal("recently used entry A was evicted")
	}
	if _, ok := pc.get(c, 1); !ok {
		t.Fatal("newest entry C was evicted")
	}
}

func TestPlanCacheNilAndSelectionKeying(t *testing.T) {
	var pc *planCache // caching disabled
	pc.put(planKey{text: "Q", sel: "auto"}, &plan.Plan{}, 1)
	if _, ok := pc.get(planKey{text: "Q", sel: "auto"}, 1); ok {
		t.Fatal("nil cache reported a hit")
	}
	if pc.len() != 0 {
		t.Fatal("nil cache has nonzero len")
	}
	if newPlanCache(0) != nil {
		t.Fatal("capacity 0 should disable caching")
	}

	real := newPlanCache(4)
	pAuto, pNone := &plan.Plan{}, &plan.Plan{}
	real.put(planKey{text: "Q", sel: "auto"}, pAuto, 1)
	real.put(planKey{text: "Q", sel: "none"}, pNone, 1)
	got, ok := real.get(planKey{text: "Q", sel: "none"}, 1)
	if !ok || got != pNone {
		t.Fatal("selection is not part of the cache key")
	}
}

// The cache keys on the selection's canonical text: a reordered rule list,
// and a list of every rule against all, compile the same plan, so the second
// of each pair is a hit.
func TestPlanCacheKeysOnCanonicalSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sites, cat := buildCluster(t, randomGlobal(rng, 60, 8), "T", 3, 3)
	coord, err := New(sites, cat, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	coord.SetPlanCache(8)
	q := chainQuery()
	parse := func() (gmdj.Query, error) { return q, nil }
	ctx := context.Background()
	for _, pair := range [][2]plan.Selection{
		{plan.SelectRules("sync-skip", "coalesce"), plan.SelectRules("coalesce", "sync-skip")},
		{plan.SelectAll(), plan.SelectRules(plan.RuleNames()...)},
	} {
		for i, sel := range pair {
			_, hit, err := coord.ExecuteCached(ctx, q.String(), sel, parse)
			if err != nil {
				t.Fatal(err)
			}
			if want := i == 1; hit != want {
				t.Errorf("%#v: cache hit %v, want %v", sel, hit, want)
			}
		}
	}
	if n := coord.PlanCacheLen(); n != 2 {
		t.Errorf("%d cached plans, want 2", n)
	}
}
