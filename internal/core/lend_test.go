package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"skalla/internal/engine"
	"skalla/internal/expr"
	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/plan"
	"skalla/internal/relation"
	"skalla/internal/stats"
	"skalla/internal/transport"
	"skalla/internal/transport/faultinject"
)

// lendSite checks that every data call is lent its site's slabs with nothing
// decoded into them yet, on the first attempt and on every retry. It can hold
// calls until released, and cancel a query at the next H block it sees.
type lendSite struct {
	transport.Site
	hold   atomic.Pointer[chan struct{}] // when set, calls wait until it closes
	cancel atomic.Pointer[context.CancelFunc]

	mu         sync.Mutex
	unlent     []string // the calls that found no lend, or one holding replies
	maxAttempt int
}

func (s *lendSite) enter(ctx context.Context, call string) error {
	if hold := s.hold.Load(); hold != nil {
		select {
		case <-*hold:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	slabs := transport.SlabsFrom(ctx)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.maxAttempt = max(s.maxAttempt, obs.AttemptFrom(ctx))
	if slabs == nil || slabs.Lent() != 0 {
		lent := 0
		if slabs != nil {
			lent = slabs.Lent()
		}
		s.unlent = append(s.unlent, fmt.Sprintf("%s (round %s, attempt %d): lent %v, %d bytes already decoded",
			call, obs.RoundFrom(ctx), obs.AttemptFrom(ctx), slabs != nil, lent))
	}
	return nil
}

func (s *lendSite) EvalBase(ctx context.Context, bq gmdj.BaseQuery) (*relation.Relation, stats.Call, error) {
	if err := s.enter(ctx, "base"); err != nil {
		return nil, stats.Call{}, err
	}
	return s.Site.EvalBase(ctx, bq)
}

func (s *lendSite) EvalLocal(ctx context.Context, req engine.LocalRequest) (*relation.Relation, stats.Call, error) {
	if err := s.enter(ctx, "local"); err != nil {
		return nil, stats.Call{}, err
	}
	return s.Site.EvalLocal(ctx, req)
}

func (s *lendSite) EvalOperatorStream(ctx context.Context, req engine.OperatorRequest, sink func(*relation.Relation) error) (stats.Call, error) {
	if err := s.enter(ctx, "operator"); err != nil {
		return stats.Call{}, err
	}
	return s.Site.EvalOperatorStream(ctx, req, func(b *relation.Relation) error {
		if cancel := s.cancel.Swap(nil); cancel != nil {
			(*cancel)()
		}
		return sink(b)
	})
}

// keepingBackend is a site engine that also keeps the relation a Load hands
// it as it came off the wire, as a backend storing its partitions as they
// arrive would.
type keepingBackend struct {
	*engine.Site
	mu   sync.Mutex
	kept *relation.Relation
}

func (b *keepingBackend) Load(ctx context.Context, name string, rel *relation.Relation) error {
	b.mu.Lock()
	b.kept = rel
	b.mu.Unlock()
	return b.Site.Load(ctx, name, rel)
}

// overU is q with every detail relation U instead of T.
func overU(q gmdj.Query) gmdj.Query {
	q.Base.Detail = "U"
	ops := make([]gmdj.Operator, len(q.Ops))
	for k, op := range q.Ops {
		op.Detail = "U"
		ops[k] = op
	}
	q.Ops = ops
	return q
}

// TestRoundLendDoesNotEscape: a round decodes its sites' replies and H
// blocks into slabs it borrows and gives back when its merges are done, so
// nothing a query returns or caches may point into them, and a site's
// connection slabs hold only what it serves one request from. Over both
// dialers, query A's result, the view a single-flight follower of A got and
// A's result-cache entry must render byte-identical (Format(-1)) after many
// queries of other shapes and sizes have reused the slabs: concurrently,
// with one site's first streams dying at their first block and retried, and
// with a round cancelled at its first H block. Every one of those queries must equal
// EvalCentral's answer; every call, retries included, must find its slabs
// lent and empty; and a relation Loaded through the transport must be what
// was sent, although the connection's slabs have served requests since.
func TestRoundLendDoesNotEscape(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	global, u := randomGlobal(rng, 600, 40), randomGlobal(rng, 24, 40)
	data := gmdj.Data{"T": global, "U": u}
	const n = 3
	onSite := func(r *relation.Relation, i int) *relation.Relation {
		return r.Filter(func(tp relation.Tuple) bool { return tp[1].Int%n == int64(i) })
	}
	queryA := observedQuery("h")
	// others are queries of other shapes and sizes than A, and over both
	// relations: observed and chained queries under each threshold, with
	// and without the rules that fold rounds.
	type other struct {
		q   gmdj.Query
		sel plan.Selection
	}
	var others []other
	for k := 0; k < 8; k++ {
		where := expr.MustParse(fmt.Sprintf("R.v >= %d", 10*k))
		for _, q := range []gmdj.Query{observedQuery("g", "h"), observedQuery("h"), chainQuery()} {
			q.Base.Where = where
			others = append(others, other{q, plan.SelectAll()}, other{q, plan.SelectNone()})
		}
	}
	central := func(t *testing.T, q gmdj.Query) string {
		want, err := gmdj.EvalCentral(q, data, true)
		if err != nil {
			t.Fatal(err)
		}
		return sortedText(want)
	}

	for tname, connect := range testTransports() {
		t.Run(tname, func(t *testing.T) {
			ctx := context.Background()
			backends := make([]*keepingBackend, n)
			clients := make([]*transport.Client, n)
			lends := make([]*lendSite, n)
			sites := make([]transport.Site, n)
			for i := range sites {
				backends[i] = &keepingBackend{Site: engine.NewSite(i)}
				if err := backends[i].Site.Load(ctx, "T", onSite(global, i)); err != nil {
					t.Fatal(err)
				}
				clients[i] = connect(t, backends[i]).(*transport.Client)
				var site transport.Site = clients[i]
				if i == 1 {
					site = faultinject.Wrap(site, faultinject.Config{FailStreams: 2})
				}
				lends[i] = &lendSite{Site: site}
				sites[i] = lends[i]
			}
			coord, err := New(sites, nil, stats.NetModel{})
			if err != nil {
				t.Fatal(err)
			}
			coord.SetRowBlocking(8)
			coord.SetRetryPolicy(RetryPolicy{MaxAttempts: 3})
			coord.SetResultCache(64)
			coord.SetSingleFlight(true)

			// A runs twice at once: the leader is held in its first round
			// until the other has joined its flight as a follower.
			wantA := central(t, queryA)
			hold := make(chan struct{})
			lends[0].hold.Store(&hold)
			followers0 := obs.ServerSingleflightFollowers.Value()
			var flight [2]*Result
			var flightErr [2]error
			var wg sync.WaitGroup
			for f := range flight {
				wg.Add(1)
				go func() {
					defer wg.Done()
					flight[f], flightErr[f] = coord.ExecuteWith(ctx, queryA, plan.SelectAll())
				}()
			}
			waitFor(t, "a follower to join A's flight", func() bool {
				return obs.ServerSingleflightFollowers.Value() > followers0
			})
			lends[0].hold.Store(nil)
			close(hold)
			wg.Wait()
			var rendered [2]string
			for f, res := range flight {
				if flightErr[f] != nil {
					t.Fatal(flightErr[f])
				}
				if got := sortedText(res.Rel); got != wantA {
					t.Fatalf("A diverges from EvalCentral\ngot:\n%s\nwant:\n%s", got, wantA)
				}
				rendered[f] = res.Rel.Format(-1)
			}

			// churn runs qs from four sessions at once, each checked against
			// EvalCentral.
			churn := func(qs []other) {
				t.Helper()
				var wg sync.WaitGroup
				errs := make([]error, len(qs))
				for w := 0; w < 4; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for j := w; j < len(qs); j += 4 {
							res, err := coord.ExecuteWith(ctx, qs[j].q, qs[j].sel)
							if err != nil {
								errs[j] = err
								continue
							}
							if got, want := sortedText(res.Rel), central(t, qs[j].q); got != want {
								errs[j] = fmt.Errorf("diverges from EvalCentral\ngot:\n%s\nwant:\n%s", got, want)
							}
						}
					}()
				}
				wg.Wait()
				for j, err := range errs {
					if err != nil {
						t.Fatalf("query %d [%s]: %v", j, qs[j].sel, err)
					}
				}
			}
			churn(others)

			// U travels to the sites through the transport, after their
			// connections' slabs have served the requests above.
			var uOthers []other
			for _, o := range others {
				uOthers = append(uOthers, other{overU(o.q), o.sel})
			}
			for i, c := range clients {
				if err := c.Load(ctx, "U", onSite(u, i)); err != nil {
					t.Fatal(err)
				}
			}
			churn(uOthers)

			// A round cancelled at its first H block gives its lend back;
			// the queries after it reuse it.
			cctx, cancel := context.WithCancel(ctx)
			lends[0].cancel.Store(&cancel)
			cq := observedQuery("h")
			cq.Base.Where = expr.MustParse("R.v >= 1")
			if _, err := coord.ExecuteWith(cctx, cq, plan.SelectNone()); !errors.Is(err, context.Canceled) {
				t.Fatalf("the cancelled query returned %v, want %v", err, context.Canceled)
			}
			lends[0].cancel.Store(nil)
			churn(append(others[:len(others)/2:len(others)/2], uOthers[len(uOthers)/2:]...))

			cached, err := coord.ExecuteWith(ctx, queryA, plan.SelectAll())
			if err != nil {
				t.Fatal(err)
			}
			for f, res := range flight {
				if got := res.Rel.Format(-1); got != rendered[f] {
					t.Errorf("A's result %d changed after the churn:\n%s\nwas:\n%s", f, got, rendered[f])
				}
			}
			if got := cached.Rel.Format(-1); got != rendered[0] && got != rendered[1] {
				t.Errorf("A's cache entry reads\n%s\nits results:\n%s", got, rendered[0])
			}
			for i, b := range backends {
				if want := onSite(u, i).Format(-1); b.kept == nil || b.kept.Format(-1) != want {
					t.Errorf("site %d keeps a Load that is no longer what was sent", i)
				}
			}
			for i, s := range lends {
				for _, call := range s.unlent {
					t.Errorf("site %d: %s", i, call)
				}
			}
			if lends[1].maxAttempt < 2 {
				t.Errorf("the faulty site's streams were never retried")
			}
		})
	}
}
