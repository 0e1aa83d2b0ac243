package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"skalla/internal/egil"
	"skalla/internal/gmdj"
	"skalla/internal/plan"
	"skalla/internal/stats"
)

// subsetSelection returns the rule selection for bitmask mask over the
// canonical rule list (bit i set → rule i enabled).
func subsetSelection(mask int) plan.Selection {
	var names []string
	for i, name := range plan.RuleNames() {
		if mask&(1<<i) != 0 {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return plan.SelectNone()
	}
	return plan.SelectRules(names...)
}

// TestRuleSubsetsByteIdentical is the planner's core invariant: every rule
// subset — all 2^5 of them, covering every pairwise combination and the full
// set — produces a byte-identical merged result, and matches both the legacy
// Options execution path and the cost-driven auto mode, on each matrix query —
// and that result is the centralized evaluation's (Thm. 3). The sites hold
// their partitions Load-ed, so the grouping-set queries run the compiled
// pattern kernels at the sites against EvalCentral's scalar scan.
func TestRuleSubsetsByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	global := randomGlobal(rng, 400, 8)
	translate := func(statement string) gmdj.Query {
		q, err := egil.Translate(statement)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	queries := map[string]gmdj.Query{
		"chain":       chainQuery(),
		"independent": independentQuery(),
		"nonaligned":  nonAlignedQuery(),
		"cube":        translate("SELECT g, h, COUNT(*) AS cnt, SUM(v) AS total, MIN(v) AS lo FROM T WHERE v >= 20 CUBE BY g, h"),
		"rollup":      translate("SELECT h, g, COUNT(*) AS cnt, AVG(v) AS mean FROM T WHERE v >= 20 ROLLUP BY h, g"),
	}
	nRules := len(plan.RuleNames())
	for qname, q := range queries {
		run := func(sel plan.Selection) (string, string) {
			t.Helper()
			sites, cat := buildCluster(t, global, "T", 3, 3, true)
			coord, err := New(sites, cat, stats.NetModel{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := coord.ExecuteWith(context.Background(), q, sel)
			if err != nil {
				t.Fatalf("%s under %s: %v", qname, sel, err)
			}
			return sortedText(res.Rel), res.Plan.Fingerprint
		}
		want, _ := run(plan.SelectNone())
		central, err := gmdj.EvalCentral(q, gmdj.Data{"T": global}, true)
		if err != nil {
			t.Fatalf("%s: central: %v", qname, err)
		}
		if got := sortedText(central); got != want {
			t.Errorf("%s: baseline diverges from EvalCentral\ndistributed:\n%s\ncentral:\n%s", qname, want, got)
		}
		for mask := 1; mask < 1<<nRules; mask++ {
			sel := subsetSelection(mask)
			if got, _ := run(sel); got != want {
				t.Errorf("%s: subset %s diverges from baseline", qname, sel)
			}
		}
		if got, _ := run(plan.SelectAuto()); got != want {
			t.Errorf("%s: auto mode diverges from baseline", qname)
		}
		// Legacy Options path: same results, and the shim's fingerprint
		// matches the equivalent rule selection's.
		sites, cat := buildCluster(t, global, "T", 3, 3, true)
		coord, err := New(sites, cat, stats.NetModel{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := coord.Execute(context.Background(), q, plan.All())
		if err != nil {
			t.Fatal(err)
		}
		if got := sortedText(res.Rel); got != want {
			t.Errorf("%s: legacy Options(all) diverges from baseline", qname)
		}
		_, selFP := run(plan.OptionsSelection(plan.All()))
		if res.Plan.Fingerprint != selFP {
			t.Errorf("%s: Options shim fingerprint %s != selection fingerprint %s",
				qname, res.Plan.Fingerprint, selFP)
		}
	}
}

// TestAutoEstimateNeverWorse is the cost model's property: on randomized
// queries and partitionings, auto mode's estimated cost is never worse than
// the best of the 16 legacy boolean combinations, and auto's execution stays
// byte-identical to the unoptimized baseline.
func TestAutoEstimateNeverWorse(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		global := randomGlobal(rng, 20+rng.Intn(80), 1+int64(rng.Intn(12)))
		nSites := 2 + rng.Intn(3)
		per := int64(12/nSites + 1)
		sites, cat, err := buildClusterImpl(global, "T", nSites, per, true)
		if err != nil {
			t.Logf("seed %d: cluster: %v", seed, err)
			return false
		}
		coord, err := New(sites, cat, stats.NetModel{})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		q := randomQuery(rng)
		if err := q.Validate(gmdj.Data{"T": global}); err != nil {
			t.Logf("seed %d: generated invalid query: %v", seed, err)
			return false
		}
		ctx := context.Background()
		auto, err := coord.PlanWith(ctx, q, plan.SelectAuto())
		if err != nil {
			t.Logf("seed %d: auto plan: %v", seed, err)
			return false
		}
		for mask := 0; mask < 16; mask++ {
			opts := plan.Options{
				Coalesce:         mask&1 != 0,
				GroupReduceSite:  mask&2 != 0,
				GroupReduceCoord: mask&4 != 0,
				SyncReduce:       mask&8 != 0,
			}
			p, err := coord.PlanWith(ctx, q, plan.OptionsSelection(opts))
			if err != nil {
				t.Logf("seed %d [%s]: plan: %v", seed, opts, err)
				return false
			}
			if auto.Estimate.Compare(p.Estimate) > 0 {
				t.Logf("seed %d: auto estimate (%s, rules %s) worse than %s (%s)\n%s",
					seed, auto.Estimate, strings.Join(auto.Rules, ","), opts, p.Estimate, q)
				return false
			}
		}
		base, err := coord.ExecuteWith(ctx, q, plan.SelectNone())
		if err != nil {
			t.Logf("seed %d: baseline execute: %v", seed, err)
			return false
		}
		got, err := coord.ExecuteWith(ctx, q, plan.SelectAuto())
		if err != nil {
			t.Logf("seed %d: auto execute: %v", seed, err)
			return false
		}
		if sortedText(got.Rel) != sortedText(base.Rel) {
			t.Logf("seed %d: auto result diverges from baseline\n%s", seed, q)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 6
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
