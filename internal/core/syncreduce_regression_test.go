package core

import (
	"context"
	"math/rand"
	"testing"

	"skalla/internal/gmdj"
	"skalla/internal/plan"
	"skalla/internal/stats"
)

// Regression: Prop. 2 base-sync folding over a filtered local base is unsound
// when the base query has a WHERE clause — a site holding rows for a group
// whose filter-passing rows all live elsewhere silently drops those
// contributions. These two seeds reproduced the miscounted aggregates before
// the planner gate; they replay the exact construction of
// TestQuickRandomQueries. A filtered base folds only with a witness.
func TestSyncReduceFilteredBaseRegression(t *testing.T) {
	for _, seed := range []int64{-7389486403440659013, -7136345867355969278} {
		rng := rand.New(rand.NewSource(seed))
		global := randomGlobal(rng, 20+rng.Intn(80), 1+int64(rng.Intn(12)))
		nSites := 2 + rng.Intn(3)
		per := int64(12/nSites + 1)
		sites, cat, err := buildClusterImpl(t, global, "T", nSites, per)
		if err != nil {
			t.Fatal(err)
		}
		coord, err := New(sites, cat, stats.NetModel{})
		if err != nil {
			t.Fatal(err)
		}
		q := randomQuery(rng)
		want, err := gmdj.EvalCentral(q, gmdj.Data{"T": global}, true)
		if err != nil {
			t.Fatal(err)
		}
		sel := switchSelection(rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0)
		coord.SetRowBlocking([]int{0, 0, 3}[rng.Intn(3)])
		res, err := coord.ExecuteWith(context.Background(), q, sel)
		if err != nil {
			t.Fatal(err)
		}
		if r := res.Plan.Steps[0]; r.Kind == plan.RoundBaseMD1 && q.Base.Where != nil && !r.Witness {
			t.Errorf("seed %d: planner folded base sync over a base WHERE without a witness", seed)
		}
		if !res.Rel.EqualMultiset(want) {
			t.Errorf("seed %d [%s]: distributed result diverges from centralized oracle", seed, sel)
		}
	}
}
