package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
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

// TestWitnessMergeBuildsXOnce: a witnessed MergeLocal drops the groups whose
// counts sum to 0 before it builds X, and builds the X a merge that installs
// every reply key and then gathers the kept rows builds: the same rows in the
// same order, the same cells, the same observed lists (-1 for a reply row of
// a dropped group). X is charged once, for the rows it keeps: a budget of
// exactly the final X's bytes and the observed lists' is enough, and one byte
// less is not.
func TestWitnessMergeBuildsXOnce(t *testing.T) {
	q := observedQuery("h") // σ: R.v >= 5
	src := gmdj.Schemas{"T": tSchema}
	xs, err := gmdj.XSchemas(q, src)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := buildSegments(q, src, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		rows []placed // {site, g, h, v}
	}{
		{"groups that count 0 at every site", []placed{
			{0, 0, 1, 1}, {1, 0, 1, 2}, {2, 0, 1, 3}, {0, 0, 2, 9}, {1, 0, 3, 1}, {2, 0, 3, 7}, {2, 0, 4, 4}, {0, 0, -1, 2},
		}},
		{"groups that count 0 at all but one site", []placed{
			{0, 0, 5, 1}, {1, 0, 5, 2}, {2, 0, 5, 8}, {0, 0, 6, 6}, {1, 0, 6, 1}, {2, 0, 6, 0}, {1, 0, 7, 4}, {0, 0, -1, 1}, {2, 0, -1, 5},
		}},
		{"nothing dropped", []placed{
			{0, 0, 1, 5}, {1, 0, 1, 6}, {2, 0, 2, 7}, {1, 0, 3, 9}, {0, 0, -1, 9},
		}},
		{"everything dropped", []placed{
			{0, 0, 1, 1}, {1, 0, 2, 2}, {2, 0, 3, 3}, {2, 0, 1, 4},
		}},
	}
	ctx := context.Background()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var replies, plain []*relation.Relation
			for i, part := range placeOn(c.rows, 3) {
				es := engine.NewSite(i)
				if err := es.Load(ctx, "T", part); err != nil {
					t.Fatal(err)
				}
				r, err := es.EvalLocal(ctx, engine.LocalRequest{Query: q, UpTo: 1, Witness: true})
				if err != nil {
					t.Fatal(err)
				}
				r = decoded(t, r)
				replies = append(replies, r)
				// The same reply less its witness column.
				rc := r.Columns()
				plain = append(plain, relation.FromColumns(r.Schema[:len(r.Schema)-1],
					&relation.Columns{Rows: rc.Rows, Vecs: rc.Vecs[:len(rc.Vecs)-1]}))
			}
			merge := func(budget *memBudget, witness bool, parts []*relation.Relation) (*merger, error) {
				m := mustMerger(t, q.Keys(), xs, segs, budget)
				m.observed[1] = make([][]int32, len(parts))
				return m, m.MergeLocal(q.Ops[:1], witness, parts, nil)
			}

			// The reference: every key installed and merged, then the
			// groups with a positive total gathered.
			all, err := merge(nil, false, plain)
			if err != nil {
				t.Fatal(err)
			}
			sum := make([]int64, all.X().Len())
			for p, r := range replies {
				for i, w := range r.Columns().Vecs[len(r.Schema)-1].Ints {
					sum[all.observed[1][p][i]] += w
				}
			}
			kept := []int32{} // not nil, which Select reads as every row
			rename := make([]int32, len(sum))
			for i, w := range sum {
				rename[i] = -1
				if w > 0 {
					rename[i] = int32(len(kept))
					kept = append(kept, int32(i))
				}
			}
			wantX := relation.FromColumns(all.X().Schema, all.X().Columns().Select(kept, nil))
			wantObserved := make([][]int32, len(replies))
			for p, rows := range all.observed[1] {
				for _, r := range rows {
					wantObserved[p] = append(wantObserved[p], rename[r])
				}
			}
			switch dropped := len(sum) - len(kept); {
			case c.name == "nothing dropped" && dropped != 0,
				c.name == "everything dropped" && len(kept) != 0,
				strings.HasPrefix(c.name, "groups") && (dropped == 0 || len(kept) == 0):
				t.Fatalf("the placement keeps %d of %d groups", len(kept), len(sum))
			}

			m, err := merge(nil, true, replies)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := m.X().Format(-1), wantX.Format(-1); got != want {
				t.Errorf("X:\n%s\nwant, installed whole and then gathered:\n%s", got, want)
			}
			got, err := relation.Marshal(m.X())
			if err != nil {
				t.Fatal(err)
			}
			if want, err := relation.Marshal(wantX); err != nil || !bytes.Equal(got, want) {
				t.Errorf("X encodes to other bytes than the reference (%v)", err)
			}
			if !reflect.DeepEqual(m.observed[1], wantObserved) {
				t.Errorf("observed %v, want %v", m.observed[1], wantObserved)
			}

			held := m.X().MemBytes()
			for _, rows := range m.observed[1] {
				held += 4 * int64(len(rows))
			}
			exact := newMemBudget(held)
			if _, err := merge(exact, true, replies); err != nil {
				t.Fatalf("under a budget of X's and the observed lists' %d bytes: %v", held, err)
			}
			if used := exact.used.Load(); used != held {
				t.Errorf("charged %d bytes, X and the observed lists hold %d", used, held)
			}
			if _, err := merge(newMemBudget(held-1), true, replies); !errors.Is(err, ErrQueryMemBudget) {
				t.Errorf("one byte under X's bytes = %v, want ErrQueryMemBudget", err)
			}
		})
	}
}
