package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"skalla/internal/agg"
	"skalla/internal/engine"
	"skalla/internal/expr"
	"skalla/internal/gmdj"
	"skalla/internal/plan"
	"skalla/internal/relation"
	"skalla/internal/stats"
	"skalla/internal/transport"
	"skalla/internal/transport/faultinject"
)

// watchedSite records what each operator request to a site shipped, and can
// swap the site's partition of T just before its first operator request —
// between the local round and the round that derives its keys.
type watchedSite struct {
	transport.Site
	es     *engine.Site
	reload *relation.Relation // loaded as T before the first operator call; nil for none

	mu       sync.Mutex
	derived  []bool // per operator call, whether it shipped no key column
	blocks   int    // H blocks the site delivered
	reloaded bool
}

func (w *watchedSite) EvalOperatorStream(ctx context.Context, req engine.OperatorRequest, sink func(*relation.Relation) error) (stats.Call, error) {
	w.mu.Lock()
	if w.reload != nil && !w.reloaded {
		if err := w.es.Load(ctx, "T", w.reload); err != nil {
			w.mu.Unlock()
			return stats.Call{}, err
		}
		w.reloaded = true
	}
	w.derived = append(w.derived, req.Derive != nil && req.Base.Schema.Index("h") < 0 && req.Base.Schema.Index("g") < 0)
	w.mu.Unlock()
	return w.Site.EvalOperatorStream(ctx, req, func(b *relation.Relation) error {
		w.mu.Lock()
		w.blocks++
		w.mu.Unlock()
		return sink(b)
	})
}

// localPrefixQuery is observedQuery over g and h with an operator over U
// between MD1 and MD2: under a catalog partitioning T on g, MD1 is a Thm. 5
// local prefix whose base pass applies σ, MD2 stops the prefix, and MD3
// links every key over T, so it observes the local round.
func localPrefixQuery() gmdj.Query {
	q := observedQuery("g", "h")
	q.Ops = []gmdj.Operator{q.Ops[0], {Detail: "U", Vars: []gmdj.GroupVar{{
		Aggs: []agg.Spec{{Func: agg.Sum, Arg: "v", As: "su"}},
		Cond: expr.MustParse("B.h = R.h"),
	}}}, q.Ops[1]}
	return q
}

// TestDerivedFragmentMatchesCentral is Thm. 3 for rounds that ship no keys:
// an operator round observing the local round ships each site the other
// columns of the rows it keeps, in the site's reply order, and the site
// derives their keys from its partition. Over the witness placements, one
// whose sites hold the groups in different orders, and a Thm. 5 local prefix
// whose base pass applied σ, on one to four sites and every transport, every
// operator request observing the local round ships no key column and the
// result equals EvalCentral's.
func TestDerivedFragmentMatchesCentral(t *testing.T) {
	placements := append(witnessPlacements(), witnessPlacement{name: "sites holding the groups in different orders", rows: []placed{
		{0, 0, 1, 10}, {0, 1, 2, 6}, {0, 2, 3, 20}, {1, 4, 3, 12}, {1, 5, 2, 30}, {1, 6, 1, 7}, {2, 8, 2, 8}, {2, 9, 1, 5},
	}})
	check := func(t *testing.T, coord *Coordinator, sites []*watchedSite, q gmdj.Query, data gmdj.Data, derived int) {
		t.Helper()
		want, err := gmdj.EvalCentral(q, data, true)
		if err != nil {
			t.Fatal(err)
		}
		res, err := coord.ExecuteWith(context.Background(), q, plan.SelectAll())
		if err != nil {
			t.Fatal(err)
		}
		if got, exp := sortedText(res.Rel), sortedText(want); got != exp {
			t.Fatalf("distributed diverges from EvalCentral\nplan:\n%s\ngot:\n%s\nwant:\n%s", res.Plan.Describe(), got, exp)
		}
		if _, ok := res.Plan.DerivedFrom(res.Plan.Steps[derived]); !ok {
			t.Fatalf("round %d does not derive its keys:\n%s", derived, res.Plan.Describe())
		}
		// Only the observing round's requests ship no key column; earlier
		// operator rounds ship theirs.
		for i, s := range sites {
			if n := len(s.derived); n > 0 && !s.derived[n-1] {
				t.Errorf("site %d: the observing round shipped keys", i)
			}
			if slices.Contains(s.derived[:max(len(s.derived)-1, 0)], true) {
				t.Errorf("site %d: a round not observing the local round shipped no keys", i)
			}
		}
	}
	for _, pc := range placements {
		for n := 1; n <= 4; n++ {
			parts := placeOn(pc.rows, n)
			global := relation.New(tSchema)
			for _, p := range parts {
				if err := global.Union(p); err != nil {
					t.Fatal(err)
				}
			}
			for tname, connect := range testTransports() {
				t.Run(fmt.Sprintf("%s/%d sites/%s", pc.name, n, tname), func(t *testing.T) {
					sites := make([]transport.Site, n)
					watched := make([]*watchedSite, n)
					for i, p := range parts {
						es := engine.NewSite(i)
						if err := es.Load(context.Background(), "T", p); err != nil {
							t.Fatal(err)
						}
						site := connect(t, es)
						if pc.retry && i == n-1 {
							site = faultinject.Wrap(site, faultinject.Config{FailFirst: 1})
						}
						watched[i] = &watchedSite{Site: site, es: es}
						sites[i] = watched[i]
					}
					coord, err := New(sites, nil, stats.NetModel{})
					if err != nil {
						t.Fatal(err)
					}
					coord.SetRetryPolicy(RetryPolicy{MaxAttempts: 2})
					check(t, coord, watched, observedQuery("h"), gmdj.Data{"T": global}, 1)
				})
			}
		}
	}

	// A Thm. 5 prefix: T range-partitioned on g, U spread at random.
	rng := rand.New(rand.NewSource(54))
	global, u := randomGlobal(rng, 240, 16), randomGlobal(rng, 60, 16)
	for n := 1; n <= 4; n++ {
		per := int64((16 + n - 1) / n)
		for tname, connect := range testTransports() {
			t.Run(fmt.Sprintf("local prefix with σ/%d sites/%s", n, tname), func(t *testing.T) {
				var watched []*watchedSite
				sites, cat, err := buildClusterWith(global, "T", n, per, func(es *engine.Site) (transport.Site, error) {
					part := u.Filter(func(tp relation.Tuple) bool { return tp[1].Int%int64(n) == int64(es.ID()) })
					if err := es.Load(context.Background(), "U", part); err != nil {
						return nil, err
					}
					w := &watchedSite{Site: connect(t, es), es: es}
					watched = append(watched, w)
					return w, nil
				})
				if err != nil {
					t.Fatal(err)
				}
				coord, err := New(sites, cat, stats.NetModel{})
				if err != nil {
					t.Fatal(err)
				}
				q := localPrefixQuery()
				pl, err := coord.PlanWith(context.Background(), q, plan.SelectAll())
				if err != nil {
					t.Fatal(err)
				}
				if r := pl.Steps[0]; r.Kind != plan.RoundLocalPrefix || r.UpTo != 1 || r.Witness || len(pl.Steps) != 3 || pl.Steps[2].Observed != 1 {
					t.Fatalf("want a local MD1 prefix observed by MD3:\n%s", pl.Describe())
				}
				check(t, coord, watched, q, gmdj.Data{"T": global, "U": u}, 2)
			})
		}
	}
}

// TestStalePartitionFailsClosed: a site whose partition changes between the
// local round and a round deriving its keys — here one more group — refuses
// with engine.ErrStalePartition. The query fails with that error, unretried,
// and the site delivers no H block, so nothing of its answer is merged.
func TestStalePartitionFailsClosed(t *testing.T) {
	rows := witnessPlacements()[0].rows
	for tname, connect := range testTransports() {
		t.Run(tname, func(t *testing.T) {
			parts := placeOn(rows, 3)
			grown := parts[1].Clone()
			grown.MustAppend(relation.Tuple{relation.NewInt(4), relation.NewInt(7), relation.NewInt(50)})
			sites := make([]transport.Site, len(parts))
			watched := make([]*watchedSite, len(parts))
			for i, p := range parts {
				es := engine.NewSite(i)
				if err := es.Load(context.Background(), "T", p); err != nil {
					t.Fatal(err)
				}
				watched[i] = &watchedSite{Site: connect(t, es), es: es}
				sites[i] = watched[i]
			}
			watched[1].reload = grown
			coord, err := New(sites, nil, stats.NetModel{})
			if err != nil {
				t.Fatal(err)
			}
			coord.SetRetryPolicy(RetryPolicy{MaxAttempts: 3})
			_, err = coord.ExecuteWith(context.Background(), observedQuery("h"), plan.SelectAll())
			if !errors.Is(err, engine.ErrStalePartition) {
				t.Fatalf("got %v, want %v", err, engine.ErrStalePartition)
			}
			if calls, blocks := len(watched[1].derived), watched[1].blocks; calls != 1 || blocks != 0 {
				t.Errorf("the stale site took %d operator call(s) and delivered %d block(s), want 1 and 0", calls, blocks)
			}
		})
	}
}
