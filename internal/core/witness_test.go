package core

import (
	"context"
	"fmt"
	"testing"

	"skalla/internal/agg"
	"skalla/internal/egil"
	"skalla/internal/engine"
	"skalla/internal/expr"
	"skalla/internal/gmdj"
	"skalla/internal/plan"
	"skalla/internal/relation"
	"skalla/internal/stats"
	"skalla/internal/tpc"
	"skalla/internal/transport"
	"skalla/internal/transport/faultinject"
)

// placed is one detail row of T at a site, among four; h < 0 is a NULL h.
type placed struct {
	site    int
	g, h, v int64
}

// placeOn builds the partitions of T for n sites, row by row at site % n.
func placeOn(rows []placed, n int) []*relation.Relation {
	parts := make([]*relation.Relation, n)
	for i := range parts {
		parts[i] = relation.New(tSchema)
	}
	for _, r := range rows {
		h := relation.NewInt(r.h)
		if r.h < 0 {
			h = relation.Null
		}
		parts[r.site%n].MustAppend(relation.Tuple{relation.NewInt(r.g), h, relation.NewInt(r.v)})
	}
	return parts
}

// partialLinkQuery is observedQuery over keys g and h, except that MD2 links
// h alone: a row of one site matches groups whose other rows all sit
// elsewhere, so the local round's answers must not bound MD2's fragments.
func partialLinkQuery() gmdj.Query {
	q := observedQuery("g", "h")
	q.Ops[1] = gmdj.Operator{Detail: "T", Vars: []gmdj.GroupVar{{
		Aggs: []agg.Spec{{Func: agg.Count, As: "cnt2"}, {Func: agg.Max, Arg: "v", As: "max2"}},
		Cond: expr.MustParse("B.h = R.h && R.v >= B.avg1"),
	}}}
	return q
}

// witnessPlacement is one adversarial placement of T's rows for a query
// whose base filter is σ: R.v >= 5.
type witnessPlacement struct {
	name  string
	rows  []placed
	retry bool // the last site's first call, a local one, fails and is retried
}

// witnessPlacements are the placements a witnessed local round must survive.
func witnessPlacements() []witnessPlacement {
	return []witnessPlacement{
		{name: "a group's only σ-row on one site, its other rows on the others", rows: []placed{
			{0, 0, 1, 10}, {1, 4, 1, 2}, {1, 5, 1, 3}, {2, 8, 1, 1}, {3, 12, 1, 4},
			{1, 4, 2, 20}, {3, 13, 2, 30}, {0, 1, 2, 1},
		}},
		{name: "rows on every site, no σ-row anywhere", rows: []placed{
			{0, 0, 3, 1}, {1, 4, 3, 2}, {2, 8, 3, 3}, {3, 12, 3, 4},
			{0, 1, 2, 50}, {2, 5, 2, 60},
		}},
		{name: "a NULL-key group's σ-row on one site, its other rows elsewhere", rows: []placed{
			{1, 4, -1, 50}, {0, 0, -1, 1}, {2, 8, -1, 2}, {3, 12, -1, 3},
			{0, 1, 1, 9}, {3, 13, 1, 1},
		}},
		{name: "a site with no rows", rows: []placed{
			{0, 0, 1, 10}, {0, 1, 2, 3}, {2, 8, 1, 2}, {2, 9, 2, 40}, {3, 12, 2, 7},
		}},
		{name: "a retried local round", retry: true, rows: []placed{
			{0, 0, 1, 10}, {1, 4, 1, 2}, {1, 5, 1, 3}, {2, 8, 1, 1}, {3, 12, 1, 4},
			{1, 4, 2, 20}, {3, 13, 2, 30}, {0, 1, 2, 1},
		}},
	}
}

// testTransports connects a site in process (over a pipe, as every in-process
// cluster is) and over TCP on loopback, each closed when the test ends: the
// core tests' one transport list.
func testTransports() map[string]func(*testing.T, transport.Backend) transport.Site {
	return map[string]func(*testing.T, transport.Backend) transport.Site{
		"local": func(t *testing.T, b transport.Backend) transport.Site { return localSite(t, b) },
		"tcp":   func(t *testing.T, b transport.Backend) transport.Site { return dialSite(t, b) },
	}
}

// TestWitnessPlacementsMatchCentral is Thm. 3 for Prop. 2 over a filtered
// base (σ: R.v >= 5) under adversarial placements of σ's rows: sync-skip
// folds the base round into MD1 with a witness, every site reports every
// group it holds a row of, and the coordinator keeps the groups whose counts
// sum to a positive total. On one to four sites and over the in-process and
// TCP transports, the result equals EvalCentral's in two
// rounds, for a query whose MD2 observes the local round and one whose MD2
// may not.
func TestWitnessPlacementsMatchCentral(t *testing.T) {
	placements, transports := witnessPlacements(), testTransports()
	queries := map[string]gmdj.Query{"observed": observedQuery("h"), "partial link": partialLinkQuery()}
	for _, pc := range placements {
		for n := 1; n <= 4; n++ {
			parts := placeOn(pc.rows, n)
			global := relation.New(tSchema)
			for _, p := range parts {
				if err := global.Union(p); err != nil {
					t.Fatal(err)
				}
			}
			for tname, connect := range transports {
				t.Run(fmt.Sprintf("%s/%d sites/%s", pc.name, n, tname), func(t *testing.T) {
					sites := make([]transport.Site, n)
					for i, p := range parts {
						es := engine.NewSite(i)
						if err := es.Load(context.Background(), "T", p); err != nil {
							t.Fatal(err)
						}
						sites[i] = connect(t, es)
					}
					var faulty *faultinject.Site
					if pc.retry {
						faulty = faultinject.Wrap(sites[n-1], faultinject.Config{FailFirst: 1})
						sites[n-1] = faulty
					}
					coord, err := New(sites, nil, stats.NetModel{})
					if err != nil {
						t.Fatal(err)
					}
					coord.SetRetryPolicy(RetryPolicy{MaxAttempts: 2})
					for qname, q := range queries {
						want, err := gmdj.EvalCentral(q, gmdj.Data{"T": global}, true)
						if err != nil {
							t.Fatal(err)
						}
						res, err := coord.ExecuteWith(context.Background(), q, plan.SelectAll())
						if err != nil {
							t.Fatalf("%s: %v", qname, err)
						}
						if got, exp := sortedText(res.Rel), sortedText(want); got != exp {
							t.Fatalf("%s: distributed diverges from EvalCentral\nplan:\n%s\ngot:\n%s\nwant:\n%s", qname, res.Plan.Describe(), got, exp)
						}
						if r := res.Plan.Steps[0]; r.Kind != plan.RoundBaseMD1 || !r.Witness || res.Metrics.NumRounds() != 2 {
							t.Errorf("%s: ran %d round(s) from %+v, want base+MD1 with a witness, then MD2", qname, res.Metrics.NumRounds(), r)
						}
						observed := res.Plan.Steps[1].Observed
						if want := map[string]int{"observed": 1, "partial link": 0}[qname]; observed != want {
							t.Errorf("%s: MD2 observes MD%d, want %d", qname, observed, want)
						}
					}
					// The first call, a local one, failed and was retried.
					if faulty != nil && faulty.Calls() < 3 {
						t.Errorf("the fault did not fire: the faulty site took %d calls", faulty.Calls())
					}
				})
			}
		}
	}
}

// The served group_heavy statement — Example 1 over the unaligned Clerk —
// runs in two rounds and eight site calls on four sites: the witnessed
// base+MD1 round, then MD2 shipping each site only the groups it reported.
func TestClerkTemplateRunsTwoRounds(t *testing.T) {
	cfg := tpc.DefaultConfig()
	cfg.Rows, cfg.Customers, cfg.Clerks, cfg.Seed = 2000, 400, 200, 3
	d, err := tpc.Generate(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	sites := make([]transport.Site, 4)
	for i := range sites {
		es := engine.NewSite(i)
		if err := es.Load(context.Background(), tpc.RelationName, d.Parts[i]); err != nil {
			t.Fatal(err)
		}
		sites[i] = localSite(t, es)
	}
	cat, err := d.Catalog(4)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := New(sites, cat, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := egil.Translate("SELECT Clerk, COUNT(*) AS cnt, AVG(ExtendedPrice) AS avgp FROM TPCR WHERE Discount >= 0.005 GROUP BY Clerk HAVING EACH ExtendedPrice >= avgp")
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.ExecuteWith(context.Background(), q, plan.SelectAll())
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	for _, r := range res.Metrics.Rounds {
		calls += len(r.Calls)
	}
	if res.Metrics.NumRounds() != 2 || calls != 8 {
		t.Errorf("%d round(s), %d site call(s), want 2 and 8:\n%s", res.Metrics.NumRounds(), calls, res.Plan.Describe())
	}
	if md2 := res.Plan.Steps[1]; md2.Observed != 1 {
		t.Errorf("MD2 does not observe the local round:\n%s", res.Plan.Describe())
	}
	want, err := gmdj.EvalCentral(q, gmdj.Data{tpc.RelationName: d.Global()}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rel.EqualMultisetApprox(want, 1e-9) {
		t.Error("result differs from EvalCentral")
	}
}
