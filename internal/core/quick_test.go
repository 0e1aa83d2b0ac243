package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"skalla/internal/agg"
	"skalla/internal/expr"
	"skalla/internal/gmdj"
	"skalla/internal/stats"
)

// randomQuery assembles a structurally valid random complex GMDJ expression:
// 1–3 operators, 1–2 grouping variables each, with conditions drawn from a
// pool of equality links, residual predicates, disjunctions, and
// correlations against aggregates produced by earlier operators.
func randomQuery(rng *rand.Rand) gmdj.Query {
	keys := [][]string{{"g"}, {"h"}, {"g", "h"}}[rng.Intn(3)]
	q := gmdj.Query{Base: gmdj.BaseQuery{Detail: "T", Cols: keys}}
	if rng.Intn(4) == 0 {
		q.Base.Where = expr.MustParse("R.v > 10")
	}

	var priorNumeric []string // aggregate columns usable in later conditions
	nOps := 1 + rng.Intn(3)
	col := 0
	for opi := 0; opi < nOps; opi++ {
		nVars := 1 + rng.Intn(2)
		var vars []gmdj.GroupVar
		var produced []string // becomes referenceable only after this operator
		for vi := 0; vi < nVars; vi++ {
			var conjuncts []string
			// Link a random subset of the keys (possibly none → cross join
			// flavored conditions are allowed and exercise the nested loop).
			for _, k := range keys {
				if rng.Intn(3) > 0 {
					conjuncts = append(conjuncts, fmt.Sprintf("B.%s = R.%s", k, k))
				}
			}
			switch rng.Intn(4) {
			case 0:
				conjuncts = append(conjuncts, "R.v > 40")
			case 1:
				conjuncts = append(conjuncts, "R.v % 3 = 0")
			case 2:
				conjuncts = append(conjuncts, "(R.v < 20 || R.v > 80)")
			}
			if len(priorNumeric) > 0 && rng.Intn(2) == 0 {
				ref := priorNumeric[rng.Intn(len(priorNumeric))]
				conjuncts = append(conjuncts, fmt.Sprintf("R.v * 2 >= B.%s", ref))
			}
			if len(conjuncts) == 0 {
				conjuncts = append(conjuncts, "true")
			}
			cond := conjuncts[0]
			for _, c := range conjuncts[1:] {
				cond += " && " + c
			}

			var aggs []agg.Spec
			nAggs := 1 + rng.Intn(3)
			for ai := 0; ai < nAggs; ai++ {
				name := fmt.Sprintf("a%d", col)
				col++
				switch rng.Intn(7) {
				case 0:
					aggs = append(aggs, agg.Spec{Func: agg.Count, As: name})
					produced = append(produced, name)
				case 1:
					aggs = append(aggs, agg.Spec{Func: agg.Sum, Arg: "v", As: name})
					produced = append(produced, name)
				case 2:
					aggs = append(aggs, agg.Spec{Func: agg.Avg, Arg: "v", As: name})
					produced = append(produced, name)
				case 3:
					aggs = append(aggs, agg.Spec{Func: agg.Min, Arg: "v", As: name})
				case 4:
					aggs = append(aggs, agg.Spec{Func: agg.Max, Arg: "v", As: name})
				case 5:
					aggs = append(aggs, agg.Spec{Func: agg.Variance, Arg: "v", As: name})
				default:
					aggs = append(aggs, agg.Spec{Func: agg.StdDev, Arg: "v", As: name})
				}
			}
			vars = append(vars, gmdj.GroupVar{Aggs: aggs, Cond: expr.MustParse(cond)})
		}
		q.Ops = append(q.Ops, gmdj.Operator{Detail: "T", Vars: vars})
		priorNumeric = append(priorNumeric, produced...)
	}
	return q
}

// The engine-wide property: any random query, any random data, any random
// partitioning and option set — distributed equals centralized.
func TestQuickRandomQueries(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		global := randomGlobal(rng, 20+rng.Intn(80), 1+int64(rng.Intn(12)))
		nSites := 2 + rng.Intn(3)
		per := int64(12/nSites + 1)
		sites, cat, err := buildClusterImpl(t, global, "T", nSites, per)
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
			t.Logf("seed %d: generated invalid query: %v\n%s", seed, err, q)
			return false
		}
		want, err := gmdj.EvalCentral(q, gmdj.Data{"T": global}, true)
		if err != nil {
			t.Logf("seed %d: oracle: %v", seed, err)
			return false
		}
		sel := switchSelection(rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0)
		coord.SetRowBlocking([]int{0, 0, 3}[rng.Intn(3)])
		res, err := coord.ExecuteWith(context.Background(), q, sel)
		if err != nil {
			t.Logf("seed %d [%s]: execute: %v\n%s", seed, sel, err, q)
			return false
		}
		if !res.Rel.EqualMultiset(want) {
			t.Logf("seed %d [%s]: mismatch for query\n%s\nplan:\n%s", seed, sel, q, res.Plan.Describe())
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
