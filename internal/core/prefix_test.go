package core

import (
	"context"
	"math/rand"
	"testing"

	"skalla/internal/agg"
	"skalla/internal/expr"
	"skalla/internal/gmdj"
	"skalla/internal/plan"
	"skalla/internal/stats"
)

// prefixQuery has three operators: the first two link the partition
// attribute g (locally evaluable), the third links only h (groups span
// sites), so the Thm. 5 local prefix covers exactly MD1..MD2.
func prefixQuery() gmdj.Query {
	return gmdj.Query{
		Base: gmdj.BaseQuery{Detail: "T", Cols: []string{"g", "h"}},
		Ops: []gmdj.Operator{
			{Detail: "T", Vars: []gmdj.GroupVar{{
				Aggs: []agg.Spec{{Func: agg.Count, As: "c1"}, {Func: agg.Avg, Arg: "v", As: "a1"}},
				Cond: expr.MustParse("B.g = R.g && B.h = R.h"),
			}}},
			{Detail: "T", Vars: []gmdj.GroupVar{{
				Aggs: []agg.Spec{{Func: agg.Count, As: "c2"}},
				Cond: expr.MustParse("B.g = R.g && R.v >= B.a1"),
			}}},
			{Detail: "T", Vars: []gmdj.GroupVar{{
				Aggs: []agg.Spec{{Func: agg.Count, As: "c3"}, {Func: agg.Sum, Arg: "v", As: "s3"}},
				Cond: expr.MustParse("B.h = R.h && R.v >= B.a1"),
			}}},
		},
	}
}

func TestLocalPrefixPlanShape(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	global := randomGlobal(rng, 60, 12)
	sites, cat := buildCluster(t, global, "T", 3, 4)
	coord, _ := New(sites, cat, stats.NetModel{})
	pl, err := coord.PlanWith(context.Background(), prefixQuery(), plan.SelectRules("local-prefix", "sync-skip"))
	if err != nil {
		t.Fatal(err)
	}
	if first := pl.Steps[0]; first.Kind != plan.RoundLocalPrefix || first.UpTo != 2 || first.Name != "local-MD1..MD2" {
		t.Errorf("first round = %+v; want the local prefix MD1..MD2", first)
	}
	if pl.Rounds() != 2 { // one local prefix round + MD3
		t.Errorf("Rounds = %d, want 2", pl.Rounds())
	}
}

func TestLocalPrefixMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 4; trial++ {
		global := randomGlobal(rng, 40+40*trial, 12)
		sites, cat := buildCluster(t, global, "T", 3, 4)
		coord, _ := New(sites, cat, stats.NetModel{})
		q := prefixQuery()
		want, err := gmdj.EvalCentral(q, gmdj.Data{"T": global}, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, sel := range switchCombos() {
			res, err := coord.ExecuteWith(context.Background(), q, sel)
			if err != nil {
				t.Fatalf("[%s]: %v", sel, err)
			}
			if !res.Rel.EqualMultiset(want) {
				t.Fatalf("trial %d [%s]: prefix query mismatch\nplan:\n%s", trial, sel, res.Plan.Describe())
			}
			if res.Metrics.NumRounds() != res.Plan.Rounds() {
				t.Errorf("[%s]: rounds %d != plan %d", sel, res.Metrics.NumRounds(), res.Plan.Rounds())
			}
		}
	}
}

// The partial prefix must cut traffic relative to no sync reduction: the
// first two operators ship nothing down and only the final X up.
func TestLocalPrefixReducesTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	global := randomGlobal(rng, 300, 12)
	sites, cat := buildCluster(t, global, "T", 3, 4)
	coord, _ := New(sites, cat, stats.NetModel{})
	q := prefixQuery()
	base, err := coord.ExecuteWith(context.Background(), q, plan.SelectNone())
	if err != nil {
		t.Fatal(err)
	}
	red, err := coord.ExecuteWith(context.Background(), q, plan.SelectRules("local-prefix", "sync-skip"))
	if err != nil {
		t.Fatal(err)
	}
	if red.Metrics.NumRounds() != 2 || base.Metrics.NumRounds() != 4 {
		t.Fatalf("rounds: %d vs %d", red.Metrics.NumRounds(), base.Metrics.NumRounds())
	}
	if red.Metrics.TotalRows() >= base.Metrics.TotalRows() {
		t.Errorf("prefix reduction moved %d rows, baseline %d", red.Metrics.TotalRows(), base.Metrics.TotalRows())
	}
}
