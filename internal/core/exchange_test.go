package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
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

// tpcCluster loads a small TPCR instance into four in-process sites, each
// behind a recordingSite.
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
		sites[i] = recordingSite{localSite(t, es), log}
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
				first, err := calls[0].base.Frame()
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
					frame, err := c.base.Frame()
					if err != nil {
						t.Fatal(err)
					}
					if c.base != calls[0].base || &frame[0] != &first[0] {
						t.Errorf("%s site %d: got its own fragment or frame, want the round's one", round, c.site)
					}
				}
				// The fragment's frame is the bytes its rows encode to.
				plain := fromRows(calls[0].base.Schema, calls[0].base.Rows())
				if fresh, err := relation.Marshal(plain); err != nil || string(fresh) != string(first) {
					t.Errorf("%s: the shared frame is not Marshal's frame of the fragment's rows (%v)", round, err)
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
	// A site whose partition declares v FLOAT or STRING answers with the
	// right column names and count, but not the kinds X's INT columns hold.
	misSchema := hSchema.Clone()
	cntAt, minAt := misSchema.MustIndex("cnt1"), misSchema.MustIndex("min1")
	misSchema[cntAt].Kind, misSchema[minAt].Kind = relation.KindFloat, relation.KindString
	misKinded := relation.New(misSchema)
	misRow := row(relation.NewInt(0))
	misRow[cntAt], misRow[minAt] = relation.NewFloat(3.5), relation.NewString("zzz")
	misKinded.MustAppend(misRow)
	// The right schema with a cell no merge can fold: a NULL count, of a
	// COUNT or of an AVG.
	countCell := block(hSchema, relation.NewInt(0), relation.NewInt(1))
	countCell.Columns().Vecs[cntAt].Set(1, countCell.Len(), relation.Null)
	avgCountCell := block(hSchema, relation.NewInt(2))
	avgCountCell.Columns().Vecs[hSchema.MustIndex("avg1_cnt")].Set(0, avgCountCell.Len(), relation.Null)
	return map[string][]*relation.Relation{
		"phys-column-mis-kinded": {misKinded},
		"count-cell-null":        {countCell},
		"avg-count-cell-null":    {avgCountCell},
		"ordinal-out-of-range":   {block(hSchema, relation.NewInt(0), relation.NewInt(4))},
		"ordinal-negative":       {block(hSchema, relation.NewInt(-1))},
		"duplicate-across-blocks": {
			block(hSchema, relation.NewInt(0), relation.NewInt(2)),
			block(hSchema, relation.NewInt(1), relation.NewInt(2)),
		},
		"duplicate-within-block":   {block(hSchema, relation.NewInt(3), relation.NewInt(3))},
		"keyed-h-of-an-older-peer": {block(keyed, relation.NewInt(0), relation.NewInt(1))},
		"ordinal-null":             {block(hSchema, relation.Null)},
	}
}

// stageMerger is nonAlignedQuery's merger over a four-row X (h = 0..3) that
// MD1 has extended: what an operator-0 stage commits into.
func stageMerger(t testing.TB) *merger {
	t.Helper()
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
	m := mustMerger(t, q.Keys(), xs, segs, nil)
	base := relation.New(xs[0])
	for h := int64(0); h < 4; h++ {
		base.MustAppend(relation.Tuple{relation.NewInt(h)})
	}
	if err := m.MergeLocal(nil, false, []*relation.Relation{base}, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Extend(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestStageRejectsMalformedH: every malformed stream fails with the typed
// error at staging, and nothing of it — not even its well-formed first block —
// reaches X.
func TestStageRejectsMalformedH(t *testing.T) {
	for name, blocks := range malformedHCases(stageMerger(t).segs[0][0].layout.PhysSchema()) {
		t.Run(name, func(t *testing.T) {
			m := stageMerger(t)
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

// TestNullKeysAcrossTransports runs a query whose X holds NULL keys, and
// whose MD2 compares detail rows with MD1's MIN, under every plan over each
// of testTransports. Every result equals EvalCentral and prints identically
// on both.
func TestNullKeysAcrossTransports(t *testing.T) {
	global := randomGlobal(rand.New(rand.NewSource(5)), 120, 12)
	hi := tSchema.MustIndex("h")
	for i := 5; i < global.Len(); i += 13 {
		global.Columns().Vecs[hi].Set(i, global.Len(), relation.Null)
	}
	q := nonAlignedQuery()
	q.Ops[1].Vars[0].Cond = expr.MustParse("B.h = R.h && R.v >= B.min1")
	want, err := gmdj.EvalCentral(q, gmdj.Data{"T": global}, true)
	if err != nil {
		t.Fatal(err)
	}
	printed := map[string]string{} // per selection, the first transport's result
	for name, connect := range testTransports() {
		sites, cat, err := buildClusterWith(global, "T", 3, 4, func(es *engine.Site) (transport.Site, error) {
			return connect(t, es), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		coord, err := New(sites, cat, stats.NetModel{})
		if err != nil {
			t.Fatal(err)
		}
		for _, sel := range switchCombos() {
			res, err := coord.ExecuteWith(context.Background(), q, sel)
			if err != nil {
				t.Fatalf("%s [%s]: %v", name, sel, err)
			}
			if !res.Rel.EqualMultisetApprox(want, 1e-9) {
				t.Fatalf("%s [%s]: result differs from EvalCentral\ngot:\n%s\nwant:\n%s", name, sel, res.Rel.Format(20), want.Format(20))
			}
			got := res.Rel.Format(-1)
			if first, ok := printed[sel.String()]; ok && got != first {
				t.Errorf("%s [%s]: result prints differently from the first transport's", name, sel)
			}
			printed[sel.String()] = got
		}
	}
}

// boolSchema is tSchema with a BOOL column: ok is grouped on and aggregated.
var boolSchema = relation.MustSchema(
	relation.Column{Name: "g", Kind: relation.KindInt},
	relation.Column{Name: "h", Kind: relation.KindInt},
	relation.Column{Name: "ok", Kind: relation.KindBool},
	relation.Column{Name: "v", Kind: relation.KindInt},
)

// boolQuery groups on g and the BOOL ok and takes MIN and MAX of ok in both
// operators: MD1 is partition-aligned, so the rules may fold it into a local
// round, and MD2, which reads MD1's count, is not, so it ships the BOOL key
// in an operator round and folds every site's BOOL MIN and MAX into X.
func boolQuery() gmdj.Query {
	return gmdj.Query{
		Base: gmdj.BaseQuery{Detail: "T", Cols: []string{"g", "ok"}},
		Ops: []gmdj.Operator{
			{Detail: "T", Vars: []gmdj.GroupVar{{
				Aggs: []agg.Spec{
					{Func: agg.Count, As: "cnt1"},
					{Func: agg.Min, Arg: "ok", As: "minok1"},
					{Func: agg.Max, Arg: "ok", As: "maxok1"},
				},
				Cond: expr.MustParse("B.g = R.g && B.ok = R.ok && R.h < 8"),
			}}},
			{Detail: "T", Vars: []gmdj.GroupVar{{
				Aggs: []agg.Spec{
					{Func: agg.Count, As: "cnt2"},
					{Func: agg.Sum, Arg: "v", As: "sum2"},
					{Func: agg.Min, Arg: "ok", As: "minok2"},
					{Func: agg.Max, Arg: "ok", As: "maxok2"},
				},
				Cond: expr.MustParse("R.h = B.cnt1 && R.v > 40"),
			}}},
		},
	}
}

// TestBoolColumnsThroughTheMerger runs boolQuery — a BOOL key, BOOL MIN and
// MAX, BOOL cells in X, in H and in a shipped fragment — under the rule sets
// none and all, so that the base, a local and the operator rounds all merge
// BOOL vectors, over each of testTransports. Every result equals
// EvalCentral.
func TestBoolColumnsThroughTheMerger(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	global := relation.New(boolSchema)
	for i := 0; i < 160; i++ {
		ok := relation.NewBool(rng.Intn(2) == 0)
		if rng.Intn(9) == 0 {
			ok = relation.Null
		}
		global.MustAppend(relation.Tuple{relation.NewInt(rng.Int63n(12)), relation.NewInt(rng.Int63n(10)), ok, relation.NewInt(rng.Int63n(100))})
	}
	q := boolQuery()
	want, err := gmdj.EvalCentral(q, gmdj.Data{"T": global}, true)
	if err != nil {
		t.Fatal(err)
	}
	for name, connect := range testTransports() {
		sites, cat, err := buildClusterWith(global, "T", 3, 4, func(es *engine.Site) (transport.Site, error) {
			return connect(t, es), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		coord, err := New(sites, cat, stats.NetModel{})
		if err != nil {
			t.Fatal(err)
		}
		rounds := map[string]bool{}
		for _, sel := range []plan.Selection{plan.SelectNone(), plan.SelectAll()} {
			res, err := coord.ExecuteWith(context.Background(), q, sel)
			if err != nil {
				t.Fatalf("%s [%s]: %v", name, sel, err)
			}
			if !res.Rel.EqualMultiset(want) {
				t.Fatalf("%s [%s]: result differs from EvalCentral\ngot:\n%s\nwant:\n%s", name, sel, res.Rel.Format(20), want.Format(20))
			}
			for _, r := range res.Metrics.Rounds {
				rounds[strings.TrimRightFunc(r.Name, func(c rune) bool { return c >= '0' && c <= '9' })] = true
			}
		}
		for _, kind := range []string{"base", "MD", "local-MD1..MD"} {
			if !rounds[kind] {
				t.Errorf("%s: no %s round ran (rounds %v)", name, kind, rounds)
			}
		}
	}
}

// TestFloatAggregatesOverNaNZerosAndInfinities: MIN, MAX, SUM and AVG over a
// FLOAT column holding NaN, ±0 and ±Inf give, bit for bit, what
// gmdj.EvalCentral gives, whether the sites' compiled kernels fold the
// column or their scalar path does (an OR residual the compiler declines),
// over both dialers and under the plans none and all. MIN and MAX keep the
// first operand when Value.Compare ties, so a leading NaN stays and a later
// one is passed over; SUM takes its first input as it is, so a lone −0
// survives. Each group's rows are on one site; each aggregate is a
// subtest of its own.
func TestFloatAggregatesOverNaNZerosAndInfinities(t *testing.T) {
	f, nan, inf, negZero := relation.NewFloat, math.NaN(), math.Inf(1), math.Copysign(0, -1)
	groups := [][]relation.Value{
		{f(nan), f(1), f(-1)}, {f(1), f(nan), f(-1)}, {f(0), f(negZero)}, {f(negZero), f(0)}, {f(negZero), relation.Null},
		{f(inf), f(-inf)}, {f(inf), f(1)}, {f(-inf), f(nan), f(2)}, {relation.Null, f(nan), f(0)},
	}
	global := relation.New(relation.MustSchema(relation.Column{Name: "g", Kind: relation.KindInt},
		relation.Column{Name: "h", Kind: relation.KindInt}, relation.Column{Name: "f", Kind: relation.KindFloat}))
	for g, vals := range groups {
		for h, v := range vals {
			global.MustAppend(relation.Tuple{relation.NewInt(int64(g)), relation.NewInt(int64(h)), v})
		}
	}
	for _, fn := range []agg.Func{agg.Min, agg.Max, agg.Sum, agg.Avg} {
		t.Run(fn.String(), func(t *testing.T) {
			for _, residual := range []string{"", " && (R.h < 9 || R.h >= 9)"} {
				q := gmdj.Query{Base: gmdj.BaseQuery{Detail: "T", Cols: []string{"g"}}, Ops: []gmdj.Operator{{Detail: "T", Vars: []gmdj.GroupVar{{
					Cond: expr.MustParse("B.g = R.g" + residual), Aggs: []agg.Spec{{Func: fn, Arg: "f", As: "a"}}}}}}}
				want, err := gmdj.EvalCentral(q, gmdj.Data{"T": global}, true)
				if err != nil {
					t.Fatal(err)
				}
				for name, connect := range testTransports() {
					sites, cat, err := buildClusterWith(global, "T", 3, 3, func(es *engine.Site) (transport.Site, error) {
						return connect(t, es), nil
					})
					if err != nil {
						t.Fatal(err)
					}
					coord, err := New(sites, cat, stats.NetModel{})
					if err != nil {
						t.Fatal(err)
					}
					for _, sel := range []plan.Selection{plan.SelectNone(), plan.SelectAll()} {
						res, err := coord.ExecuteWith(context.Background(), q, sel)
						if err != nil {
							t.Fatalf("%s %s [%s]: %v", fn, name, sel, err)
						}
						if !res.Rel.EqualMultiset(want) {
							t.Fatalf("%s %q %s [%s]: result differs from EvalCentral\ngot:\n%s\nwant:\n%s", fn, residual, name, sel, res.Rel, want)
						}
						kernel := true
						for _, r := range res.Metrics.Rounds {
							for _, c := range r.Calls {
								kernel = kernel && c.Breakdown.Kernel
							}
						}
						if kernel != (residual == "") {
							t.Errorf("%s %q %s [%s]: every pass compiled = %v", fn, residual, name, sel, kernel)
						}
					}
				}
			}
		})
	}
}

// FuzzStageAdd decodes arbitrary bytes as one H block twice — through a
// stream Decoder, as a TCP client reads a site's stream, and through
// Unmarshal — and stages each over its own stageMerger X, as the coordinator
// stages a site's stream; a third X stages the block's rows, as an in-process
// site hands them over. Nothing may panic, and the three agree: each refuses the block with
// ErrMalformedH and leaves X as it was, or each commits it, to X's that print
// identically and hold aggregates the next merge can fold. Decoding and
// staging a block allocates at most stageAllocPerByte bytes per input byte
// plus stageAllocConst.
func FuzzStageAdd(f *testing.F) {
	phys := stageMerger(f).segs[0][0].layout.PhysSchema()
	hSchema, err := engine.HSchema(phys)
	if err != nil {
		f.Fatal(err)
	}
	valid := relation.New(hSchema)
	for ord := int64(0); ord < 4; ord++ {
		valid.MustAppend(relation.Tuple{relation.NewInt(ord), relation.NewInt(2), relation.NewInt(ord), relation.NewInt(ord), relation.NewInt(2), relation.NewInt(ord)})
	}
	seeds := []*relation.Relation{valid}
	for _, blocks := range malformedHCases(phys) {
		seeds = append(seeds, blocks...)
	}
	for _, b := range seeds {
		frame, err := relation.Marshal(b)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := relation.Unmarshal(data)
		if err != nil {
			return
		}
		streamed := stageMerger(t)
		before := streamed.X().Format(-1)
		st := streamed.NewStage(0, streamed.X().Len(), nil)
		var block *relation.Relation
		var streamErr error
		limit := stageAllocPerByte*uint64(len(data)) + stageAllocConst
		if n := allocatedBy(func() {
			if block, err = relation.NewDecoder(bytes.NewReader(data)).Decode(nil); err == nil {
				streamErr = st.Add(block)
			}
		}); n > limit {
			t.Fatalf("decoding and staging %d bytes allocated %d bytes", len(data), n)
		}
		if err != nil {
			t.Fatalf("the stream decoder refused a frame Unmarshal decodes: %v", err)
		}
		unmarshalled, rows := stageMerger(t), stageMerger(t)
		mergers := []*merger{streamed, unmarshalled, rows}
		stages := []*hStage{st, unmarshalled.NewStage(0, unmarshalled.X().Len(), nil), rows.NewStage(0, rows.X().Len(), nil)}
		errs := []error{streamErr, stages[1].Add(h), stages[2].Add(fromRows(h.Schema, h.Rows()))}
		for i, m := range mergers {
			if errs[i] != nil {
				stages[i].Discard()
				if !errors.Is(errs[i], ErrMalformedH) {
					t.Fatalf("staging = %v, want ErrMalformedH", errs[i])
				}
				if after := m.X().Format(-1); after != before {
					t.Fatalf("a rejected block changed X\nbefore:\n%s\nafter:\n%s", before, after)
				}
				continue
			}
			if err := m.CommitStage(stages[i], 0); err != nil {
				t.Fatalf("an accepted block failed to commit: %v", err)
			}
			seg := m.segs[0][0]
			for _, row := range m.X().Rows() {
				for p, pc := range seg.layout.Phys {
					if cell := row[seg.physStart+p]; pc.Op == agg.PhysCount && cell.Kind != relation.KindInt {
						t.Fatalf("an accepted block left a %s COUNT in X", cell.Kind)
					}
				}
			}
		}
		if (errs[0] == nil) != (errs[1] == nil) || (errs[0] == nil) != (errs[2] == nil) {
			t.Fatalf("stream, Unmarshal and rows staged differently: %v / %v / %v", errs[0], errs[1], errs[2])
		}
		if a, b, c := streamed.X().Format(-1), unmarshalled.X().Format(-1), rows.X().Format(-1); a != b || a != c {
			t.Fatalf("stream, Unmarshal and rows committed different X's\n%s\n%s\n%s", a, b, c)
		}
	})
}

// Decoding and staging one H block allocates at most stageAllocPerByte bytes
// per input byte plus stageAllocConst, the bound the codec's decode keeps.
const (
	stageAllocPerByte = 1024
	stageAllocConst   = 2 << 20
)

// fromRows is a relation over schema holding rows, built through Append.
func fromRows(schema relation.Schema, rows []relation.Tuple) *relation.Relation {
	r := relation.New(schema)
	for _, row := range rows {
		r.MustAppend(row)
	}
	return r
}

// allocatedBy is the bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
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
	sites, cat := buildCluster(t, global, "T", 3, 4)
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
	sites, cat := buildCluster(t, global, "T", 4, 4)
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

// TestEightSitesBlockedMatchCentral runs Example 1 over the unaligned Clerk on
// eight sites with 64-row blocks and the site-side guard: every round's H_i
// arrives in many blocks from every site, and X must end up the centralized
// evaluation's.
func TestEightSitesBlockedMatchCentral(t *testing.T) {
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
	sites := make([]transport.Site, 8)
	for i := range sites {
		es := engine.NewSite(i)
		if err := es.Load(context.Background(), tpc.RelationName, d.Parts[i]); err != nil {
			t.Fatal(err)
		}
		sites[i] = localSite(t, es)
	}
	coord, err := New(sites, nil, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	coord.SetRowBlocking(64)
	res, err := coord.ExecuteWith(context.Background(), q, plan.SelectRules("group-reduce-site"))
	if err != nil {
		t.Fatal(err)
	}
	central, err := gmdj.EvalCentral(q, gmdj.Data{tpc.RelationName: d.Global()}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rel.EqualMultisetApprox(central, 1e-9) {
		t.Fatal("result differs from EvalCentral")
	}
}

// TestExtendWritesInPlace: Extend widens a columnar X — built by InitBase for
// a base round, by MergeLocal for a local one — by appending identity vectors:
// it charges exactly the bytes X grew by, shares every existing vector, and
// leaves the header taken before it at the old width, which is what a Thm. 4
// reducer reads while the round's stages commit.
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
		backing := &m.X().Columns().Vecs[0].Ints[0]
		for k := from; k < len(q.Ops); k++ {
			before, old := budget.used.Load(), m.X()
			if err := m.Extend(); err != nil {
				t.Fatal(err)
			}
			x := m.X()
			if got, want := budget.used.Load()-before, x.MemBytes()-old.MemBytes(); got != want {
				t.Errorf("Extend %d charged %d bytes, X grew by %d", k+1, got, want)
			}
			if &x.Columns().Vecs[0].Ints[0] != backing || len(x.Columns().Vecs) != len(xs[k+1]) {
				t.Errorf("Extend %d did not widen X's vectors in place", k+1)
			}
			if len(old.Schema) != len(xs[k]) || len(old.Columns().Vecs) != len(xs[k]) {
				t.Errorf("Extend %d widened the header taken before it", k+1)
			}
		}
	}

	budget := newMemBudget(1 << 20)
	m := mustMerger(t, q.Keys(), xs, segs, budget)
	base := relation.New(xs[0])
	base.MustAppend(relation.Tuple{relation.NewInt(1), relation.NewInt(0)})
	base.MustAppend(relation.Tuple{relation.NewInt(2), relation.NewInt(1)})
	if err := m.MergeLocal(nil, false, []*relation.Relation{base}, nil); err != nil {
		t.Fatal(err)
	}
	extendAll(m, budget, 0)

	budget = newMemBudget(1 << 20)
	m = mustMerger(t, q.Keys(), xs, segs, budget)
	xrow := relation.Tuple{relation.NewInt(1), relation.NewInt(0)}
	xrow = append(xrow, m.identityFor(0)...)
	local := relation.New(gmdj.LocalReplySchema(xs[1], q.Ops[:1], false))
	var lrow relation.Tuple
	for _, c := range local.Schema {
		lrow = append(lrow, xrow[xs[1].Index(c.Name)])
	}
	local.MustAppend(lrow)
	if err := m.MergeLocal(q.Ops[:1], false, []*relation.Relation{local}, nil); err != nil {
		t.Fatal(err)
	}
	extendAll(m, budget, 1)
}
