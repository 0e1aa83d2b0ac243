package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"skalla/internal/agg"
	"skalla/internal/egil"
	"skalla/internal/engine"
	"skalla/internal/expr"
	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/plan"
	"skalla/internal/relation"
	"skalla/internal/stats"
	"skalla/internal/tpc"
	"skalla/internal/transport"
	"skalla/internal/transport/faultinject"
)

// shippedFragment is one operator request as a site call saw it.
type shippedFragment struct {
	round string
	site  int
	base  *relation.Relation
}

// exchangeLog collects what the recordingSites of one cluster were sent.
type exchangeLog struct {
	mu    sync.Mutex
	calls []shippedFragment
}

// byRound returns the fragments of one round, in call order.
func (l *exchangeLog) byRound(round string) []shippedFragment {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []shippedFragment
	for _, c := range l.calls {
		if c.round == round {
			out = append(out, c)
		}
	}
	return out
}

// recordingSite sits where the coordinator holds its sites and notes every
// operator request — every attempt of it — before passing it on.
type recordingSite struct {
	transport.Site
	log *exchangeLog
}

func (r recordingSite) EvalOperatorStream(ctx context.Context, req engine.OperatorRequest, sink func(*relation.Relation) error) (stats.Call, error) {
	r.log.mu.Lock()
	r.log.calls = append(r.log.calls, shippedFragment{obs.RoundFrom(ctx), r.ID(), req.Base})
	r.log.mu.Unlock()
	return r.Site.EvalOperatorStream(ctx, req, sink)
}

// tpcCluster loads a small TPCR instance into four serializing in-process
// sites, each behind a recordingSite.
func tpcCluster(t *testing.T) (*Coordinator, *exchangeLog, gmdj.Data) {
	t.Helper()
	cfg := tpc.DefaultConfig()
	cfg.Rows, cfg.Customers, cfg.Clerks, cfg.Seed = 3000, 300, 150, 7
	d, err := tpc.Generate(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := d.Catalog(4)
	if err != nil {
		t.Fatal(err)
	}
	log := &exchangeLog{}
	sites := make([]transport.Site, 4)
	for i := range sites {
		es := engine.NewSite(i)
		if err := es.Load(context.Background(), tpc.RelationName, d.Parts[i]); err != nil {
			t.Fatal(err)
		}
		sites[i] = recordingSite{transport.NewLocalSite(es), log}
	}
	coord, err := New(sites, cat, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	return coord, log, gmdj.Data{tpc.RelationName: d.Global()}
}

// TestRoundShipsKeysAndReferencedColumns: whatever X has grown to, an operator
// round ships the key attributes and the columns its conditions read, nothing
// else; a round no reducer splits hands every site the same relation, encoded
// once; a reduced round ships each site its own rows of the same columns. The
// results stay the centralized evaluation's.
func TestRoundShipsKeysAndReferencedColumns(t *testing.T) {
	cases := []struct {
		name      string
		statement string
		sel       plan.Selection
		reduced   bool
		rounds    map[string]string // round → shipped columns
	}{
		{
			name:      "example1-clerk",
			statement: "SELECT Clerk, COUNT(*) AS cnt, AVG(ExtendedPrice) AS avgp FROM TPCR WHERE Discount >= 0.005 GROUP BY Clerk HAVING EACH ExtendedPrice >= avgp",
			sel:       plan.SelectNone(),
			// X holds Clerk, cnt, avgp_sum, avgp_cnt, avgp by MD2; its θ reads
			// Clerk and avgp.
			rounds: map[string]string{"MD1": "Clerk", "MD2": "Clerk,avgp"},
		},
		{
			name:      "cube",
			statement: "SELECT MktSegment, ShipMode, COUNT(*) AS cnt, SUM(ExtendedPrice) AS total FROM TPCR WHERE Discount >= 0.005 CUBE BY MktSegment, ShipMode",
			sel:       plan.SelectNone(),
			rounds:    map[string]string{"MD1": "MktSegment,ShipMode"},
		},
		{
			name:      "example1-custname-reduced",
			statement: "SELECT CustName, COUNT(*) AS cnt, AVG(ExtendedPrice) AS avgp FROM TPCR WHERE Discount >= 0.005 GROUP BY CustName HAVING EACH ExtendedPrice >= avgp",
			sel:       plan.SelectRules("group-reduce-coord", "group-reduce-site"),
			reduced:   true,
			rounds:    map[string]string{"MD1": "CustName", "MD2": "CustName,avgp"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coord, log, data := tpcCluster(t)
			q, err := egil.Translate(tc.statement)
			if err != nil {
				t.Fatal(err)
			}
			res, err := coord.ExecuteWith(context.Background(), q, tc.sel)
			if err != nil {
				t.Fatal(err)
			}
			want, err := gmdj.EvalCentral(q, data, true)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Rel.EqualMultisetApprox(want, 1e-9) {
				t.Errorf("result differs from EvalCentral")
			}
			if got := len(res.Metrics.Rounds) - 1; got != len(tc.rounds) {
				t.Fatalf("%d operator rounds ran, the case lists %d", got, len(tc.rounds))
			}
			for round, cols := range tc.rounds {
				calls := log.byRound(round)
				if len(calls) != coord.NumSites() {
					t.Fatalf("%s: %d site calls, want %d", round, len(calls), coord.NumSites())
				}
				rows := 0
				for _, c := range calls {
					if got := strings.Join(c.base.Schema.Names(), ","); got != cols {
						t.Errorf("%s site %d: shipped (%s), want (%s)", round, c.site, got, cols)
					}
					rows += c.base.Len()
				}
				first, err := calls[0].base.GobEncode()
				if err != nil {
					t.Fatal(err)
				}
				if tc.reduced {
					// CustName is a partition attribute: the fragments
					// partition X instead of repeating it.
					if rows != res.Rel.Len() {
						t.Errorf("%s: reduced fragments hold %d rows, X has %d", round, rows, res.Rel.Len())
					}
					continue
				}
				for _, c := range calls[1:] {
					frame, err := c.base.GobEncode()
					if err != nil {
						t.Fatal(err)
					}
					if c.base != calls[0].base || &frame[0] != &first[0] {
						t.Errorf("%s site %d: got its own fragment or frame, want the round's one", round, c.site)
					}
				}
				plain := &relation.Relation{Schema: calls[0].base.Schema, Tuples: calls[0].base.Tuples}
				if fresh, err := relation.Marshal(plain); err != nil || string(fresh) != string(first) {
					t.Errorf("%s: the shared frame is not Marshal's frame of the fragment (%v)", round, err)
				}
			}
		})
	}
}

// malformedHCases are H blocks a stage must refuse. The merger under test is
// nonAlignedQuery's, one key: a key-addressed H from before ordinals has the
// same number of columns as today's, so only its leading column gives it away.
func malformedHCases(physSchema relation.Schema) map[string][]*relation.Relation {
	hSchema, err := engine.HSchema(physSchema)
	if err != nil {
		panic(err)
	}
	row := func(lead relation.Value) relation.Tuple {
		return relation.Tuple{lead, relation.NewInt(3), relation.NewInt(30), relation.NewInt(30), relation.NewInt(3), relation.NewInt(7)}
	}
	block := func(schema relation.Schema, leads ...relation.Value) *relation.Relation {
		b := relation.New(schema)
		for _, l := range leads {
			b.MustAppend(row(l))
		}
		return b
	}
	keyed := append(relation.Schema{{Name: "h", Kind: relation.KindInt}}, physSchema...)
	return map[string][]*relation.Relation{
		"ordinal-out-of-range": {block(hSchema, relation.NewInt(0), relation.NewInt(4))},
		"ordinal-negative":     {block(hSchema, relation.NewInt(-1))},
		"duplicate-across-blocks": {
			block(hSchema, relation.NewInt(0), relation.NewInt(2)),
			block(hSchema, relation.NewInt(1), relation.NewInt(2)),
		},
		"duplicate-within-block":   {block(hSchema, relation.NewInt(3), relation.NewInt(3))},
		"keyed-h-of-an-older-peer": {block(keyed, relation.NewInt(0), relation.NewInt(1))},
		"ordinal-not-an-int":       {block(hSchema, relation.NewString("0"))},
	}
}

// TestStageRejectsMalformedH: every malformed stream fails with the typed
// error at staging, and nothing of it — not even its well-formed first block —
// reaches X.
func TestStageRejectsMalformedH(t *testing.T) {
	q := nonAlignedQuery()
	src := gmdj.Schemas{"T": tSchema}
	xs, err := gmdj.XSchemas(q, src)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := buildSegments(q, src, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, blocks := range malformedHCases(segs[0][0].layout.PhysSchema()) {
		t.Run(name, func(t *testing.T) {
			m := newMerger(q.Keys(), xs, segs, nil)
			base := relation.New(xs[0])
			for h := int64(0); h < 4; h++ {
				base.MustAppend(relation.Tuple{relation.NewInt(h)})
			}
			if err := m.InitBase(base); err != nil {
				t.Fatal(err)
			}
			if err := m.Extend(); err != nil {
				t.Fatal(err)
			}
			before := m.X().Format(-1)
			st := m.NewStage(0, m.X().Len(), nil)
			var addErr error
			for _, b := range blocks {
				if addErr = st.Add(b); addErr != nil {
					break
				}
			}
			st.Discard()
			if !errors.Is(addErr, ErrMalformedH) {
				t.Fatalf("staging = %v, want ErrMalformedH", addErr)
			}
			if after := m.X().Format(-1); after != before {
				t.Errorf("a rejected stream changed X\nbefore:\n%s\nafter:\n%s", before, after)
			}
		})
	}
}

// TestKeyedHFromOlderPeerFailsClosed: a site that answers with the
// key-addressed H of earlier versions fails the query with the typed error —
// permanently, without burning retries — instead of being merged.
func TestKeyedHFromOlderPeerFailsClosed(t *testing.T) {
	keyed := func(b *relation.Relation) *relation.Relation {
		old := b.Clone()
		old.Schema[0].Name = "h"
		return old
	}
	global := randomGlobal(rand.New(rand.NewSource(5)), 80, 12)
	sites, cat := buildCluster(t, global, "T", 3, 4, true)
	faulty := faultinject.Wrap(sites[1], faultinject.Config{MutateBlock: keyed})
	sites[1] = faulty
	coord, err := New(sites, cat, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	coord.SetRetryPolicy(RetryPolicy{MaxAttempts: 4})
	_, err = coord.ExecuteWith(context.Background(), nonAlignedQuery(), plan.SelectNone())
	if !errors.Is(err, ErrMalformedH) {
		t.Fatalf("err = %v, want ErrMalformedH", err)
	}
	if faulty.Calls() != 2 { // the base round and one operator attempt
		t.Errorf("site saw %d calls: a malformed H was retried", faulty.Calls())
	}
}

// TestReducedRoundRetriesShipTheSameFragment: with Thm. 4 reducers on and a
// site whose first two operator streams die after a block, every attempt is
// handed the fragment the first one was — the reducer ran once, so the
// ordinals of a retried stream map back through the same kept rows — and the
// result is the centralized evaluation's.
func TestReducedRoundRetriesShipTheSameFragment(t *testing.T) {
	global := randomGlobal(rand.New(rand.NewSource(41)), 200, 16)
	sites, cat := buildCluster(t, global, "T", 4, 4, false)
	log := &exchangeLog{}
	for i := range sites {
		var s transport.Site = sites[i]
		if i == 2 {
			s = faultinject.Wrap(s, faultinject.Config{FailStreams: 2, StreamFailAfterBlocks: 1})
		}
		sites[i] = recordingSite{s, log}
	}
	coord, err := New(sites, cat, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	coord.SetRetryPolicy(chaosPolicy())
	coord.SetRowBlocking(2)
	q := chainQuery()
	res, err := coord.ExecuteWith(context.Background(), q, plan.SelectRules("group-reduce-coord", "group-reduce-site"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := gmdj.EvalCentral(q, gmdj.Data{"T": global}, true)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := sortedText(res.Rel), sortedText(want); g != w {
		t.Fatalf("retried reduced run differs from EvalCentral\ngot:\n%s\nwant:\n%s", g, w)
	}
	var attempts []shippedFragment
	for _, c := range log.byRound("MD1") {
		if c.site == 2 {
			attempts = append(attempts, c)
		}
	}
	if len(attempts) != 3 {
		t.Fatalf("site 2 saw %d MD1 attempts, want 3", len(attempts))
	}
	for _, a := range attempts[1:] {
		if a.base != attempts[0].base {
			t.Error("a retry was shipped a rebuilt fragment")
		}
	}
	if n := attempts[0].base.Len(); n == 0 || n >= res.Rel.Len() {
		t.Errorf("site 2's fragment holds %d of X's %d rows: the reducer did not split the round", n, res.Rel.Len())
	}
}

// TestTieredMatchesFlatRowForRow runs BenchmarkTieredCoordinator's query —
// Example 1 over the unaligned Clerk — over eight leaves flat, behind two
// relays and behind four: the relays forward a request unchanged and merge
// their children's H by ordinal, so the root must end up with the same tuples
// in the same order. Integer cells are compared exactly; FLOAT sums fold in
// arrival order at every tier, so they are held to the last few bits.
func TestTieredMatchesFlatRowForRow(t *testing.T) {
	cfg := tpc.DefaultConfig()
	cfg.Rows, cfg.Customers, cfg.Clerks, cfg.Seed = 4000, 400, 120, 3
	d, err := tpc.Generate(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	link := expr.MustParse("B.Clerk = R.Clerk")
	q := gmdj.Query{
		Base: gmdj.BaseQuery{Detail: tpc.RelationName, Cols: []string{"Clerk"}},
		Ops: []gmdj.Operator{
			{Detail: tpc.RelationName, Vars: []gmdj.GroupVar{{
				Aggs: []agg.Spec{{Func: agg.Count, As: "cnt1"}, {Func: agg.Avg, Arg: "ExtendedPrice", As: "avg1"}},
				Cond: link,
			}}},
			{Detail: tpc.RelationName, Vars: []gmdj.GroupVar{{
				Aggs: []agg.Spec{{Func: agg.Count, As: "cnt2"}, {Func: agg.Avg, Arg: "Quantity", As: "avg2"}},
				Cond: expr.MustParse("B.Clerk = R.Clerk && R.ExtendedPrice >= B.avg1"),
			}}},
		},
	}
	run := func(relays int) *relation.Relation {
		leaves := make([]transport.Site, 8)
		for i := range leaves {
			es := engine.NewSite(i)
			if err := es.Load(context.Background(), tpc.RelationName, d.Parts[i]); err != nil {
				t.Fatal(err)
			}
			leaves[i] = transport.NewLocalSite(es)
		}
		top := leaves
		if relays > 0 {
			top = nil
			per := 8 / relays
			for i := 0; i < relays; i++ {
				relay, err := NewRelay(i, leaves[i*per:(i+1)*per])
				if err != nil {
					t.Fatal(err)
				}
				top = append(top, transport.NewLocalSite(relay))
			}
		}
		coord, err := New(top, nil, stats.NetModel{})
		if err != nil {
			t.Fatal(err)
		}
		coord.SetRowBlocking(64)
		res, err := coord.ExecuteWith(context.Background(), q, plan.SelectRules("group-reduce-site"))
		if err != nil {
			t.Fatal(err)
		}
		return res.Rel
	}
	flat := run(0)
	central, err := gmdj.EvalCentral(q, gmdj.Data{tpc.RelationName: d.Global()}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !flat.EqualMultisetApprox(central, 1e-9) {
		t.Fatal("flat result differs from EvalCentral")
	}
	for _, relays := range []int{2, 4} {
		tiered := run(relays)
		if !tiered.Schema.Equal(flat.Schema) || tiered.Len() != flat.Len() {
			t.Fatalf("%d relays: %d rows of %s, flat has %d of %s", relays, tiered.Len(), tiered.Schema, flat.Len(), flat.Schema)
		}
		for i, frow := range flat.Tuples {
			for j, fv := range frow {
				tv := tiered.Tuples[i][j]
				same := fv.Kind == tv.Kind && fv.Int == tv.Int && fv.Str == tv.Str
				if fv.Kind == relation.KindFloat && tv.Kind == relation.KindFloat {
					same = math.Abs(fv.Float-tv.Float) <= 1e-9*math.Max(1, math.Abs(fv.Float))
				}
				if !same {
					t.Fatalf("%d relays: row %d column %s = %v, flat has %v", relays, i, flat.Schema[j].Name, tv, fv)
				}
			}
		}
	}
}

// TestExtendWritesInPlace: X's rows are backed once, at the plan's final
// width — by InitBase for a base round, by MergeLocal for a local one — and
// every Extend re-slices them where they are, still charging the growth.
func TestExtendWritesInPlace(t *testing.T) {
	q := chainQuery()
	src := gmdj.Schemas{"T": tSchema}
	xs, err := gmdj.XSchemas(q, src)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := buildSegments(q, src, 2)
	if err != nil {
		t.Fatal(err)
	}
	extendAll := func(m *merger, budget *memBudget, from int) {
		t.Helper()
		backing := &m.X().Tuples[0][0]
		for k := from; k < len(q.Ops); k++ {
			before := budget.used.Load()
			if err := m.Extend(); err != nil {
				t.Fatal(err)
			}
			grew := int64(len(xs[k+1]) - len(xs[k]))
			if got, want := budget.used.Load()-before, int64(m.X().Len())*(grew*relation.ValueMemBytes+relation.TupleMemBytes); got != want {
				t.Errorf("Extend %d charged %d bytes, want %d", k+1, got, want)
			}
			row := m.X().Tuples[0]
			if &row[0] != backing || len(row) != len(xs[k+1]) || cap(row) != len(xs[len(xs)-1]) {
				t.Errorf("Extend %d re-backed a row (len %d, cap %d)", k+1, len(row), cap(row))
			}
		}
	}

	budget := newMemBudget(1 << 20)
	m := newMerger(q.Keys(), xs, segs, budget)
	base := relation.New(xs[0])
	base.MustAppend(relation.Tuple{relation.NewInt(1), relation.NewInt(0)})
	base.MustAppend(relation.Tuple{relation.NewInt(2), relation.NewInt(1)})
	if err := m.InitBase(base); err != nil {
		t.Fatal(err)
	}
	extendAll(m, budget, 0)

	budget = newMemBudget(1 << 20)
	m = newMerger(q.Keys(), xs, segs, budget)
	if err := m.InitLocal(1); err != nil {
		t.Fatal(err)
	}
	local := relation.New(xs[1])
	lrow := relation.Tuple{relation.NewInt(1), relation.NewInt(0)}
	lrow = append(lrow, m.identityFor(0)...)
	local.MustAppend(lrow)
	if err := m.MergeLocal(local); err != nil {
		t.Fatal(err)
	}
	extendAll(m, budget, 1)
}
