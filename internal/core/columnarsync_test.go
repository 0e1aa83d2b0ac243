package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"skalla/internal/agg"
	"skalla/internal/expr"
	"skalla/internal/gmdj"
	"skalla/internal/plan"
	"skalla/internal/relation"
	"skalla/internal/stats"
)

// foldSchema is a detail relation with a column of every kind, so one
// operator's H carries INT, FLOAT and STRING aggregates, and BOOL ones.
var foldSchema = relation.MustSchema(
	relation.Column{Name: "k", Kind: relation.KindInt},
	relation.Column{Name: "f", Kind: relation.KindFloat},
	relation.Column{Name: "s", Kind: relation.KindString},
	relation.Column{Name: "i", Kind: relation.KindInt},
	relation.Column{Name: "b", Kind: relation.KindBool},
)

// foldQuery has three operators, each with every physical op over every
// kind and two derived columns; the last also has a BOOL MIN.
func foldQuery() gmdj.Query {
	op := func(n string) gmdj.Operator {
		aggs := []agg.Spec{
			{Func: agg.Count, As: "cnt" + n},
			{Func: agg.Sum, Arg: "f", As: "sumf" + n},
			{Func: agg.Sum, Arg: "i", As: "sumi" + n},
			{Func: agg.Avg, Arg: "i", As: "avgi" + n},
			{Func: agg.StdDev, Arg: "f", As: "sdf" + n},
			{Func: agg.Min, Arg: "s", As: "mins" + n},
			{Func: agg.Max, Arg: "s", As: "maxs" + n},
			{Func: agg.Min, Arg: "f", As: "minf" + n},
			{Func: agg.Max, Arg: "i", As: "maxi" + n},
		}
		if n == "3" {
			aggs = append(aggs, agg.Spec{Func: agg.Min, Arg: "b", As: "minb" + n})
		}
		return gmdj.Operator{Detail: "F", Vars: []gmdj.GroupVar{{Aggs: aggs, Cond: expr.MustParse("B.k = R.k")}}}
	}
	return gmdj.Query{
		Base: gmdj.BaseQuery{Detail: "F", Cols: []string{"k"}},
		Ops:  []gmdj.Operator{op("1"), op("2"), op("3")},
	}
}

// foldCellValue draws one H cell of a physical column: NULLs, NaN, −0 and
// repeated strings included, COUNT never NULL.
func foldCellValue(rng *rand.Rand, p agg.PhysCol) relation.Value {
	if p.Op == agg.PhysCount {
		return relation.NewInt(rng.Int63n(5))
	}
	if rng.Intn(5) == 0 {
		return relation.Null
	}
	switch p.Kind {
	case relation.KindInt:
		return relation.NewInt(rng.Int63n(200) - 100)
	case relation.KindFloat:
		switch rng.Intn(8) {
		case 0:
			return relation.NewFloat(math.NaN())
		case 1:
			return relation.NewFloat(math.Copysign(0, -1))
		}
		return relation.NewFloat(rng.NormFloat64() * 100)
	case relation.KindBool:
		return relation.NewBool(rng.Intn(2) == 0)
	default:
		return relation.NewString(string(rune('a' + rng.Intn(6))))
	}
}

// foldScenario drives a merger for foldQuery through a base round over three
// sites and three operator rounds of random H streams, each staged as its
// frame decodes. Beside it, want is the
// reference: X's rows boxed after InitBase, every H row folded into its X row
// by agg.Layout.MergePhys, and AppendDerived. after runs once per round, after
// every stream has committed.
func foldScenario(t *testing.T, after func(k int, m *merger, want []relation.Tuple)) {
	t.Helper()
	q := foldQuery()
	src := gmdj.Schemas{"F": foldSchema}
	xs, err := gmdj.XSchemas(q, src)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := buildSegments(q, src, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	var parts []*relation.Relation
	for site := 0; site < 3; site++ {
		b := relation.New(xs[0])
		for i := 0; i < 40; i++ {
			key := relation.NewInt(rng.Int63n(60))
			if rng.Intn(15) == 0 {
				key = relation.Null
			}
			b.MustAppend(relation.Tuple{key})
		}
		parts = append(parts, decoded(t, b))
	}
	m := mustMerger(t, q.Keys(), xs, segs, nil)
	if err := m.MergeLocal(nil, false, parts, nil); err != nil {
		t.Fatal(err)
	}
	want := m.X().Rows()
	n := len(want)
	for k := range q.Ops {
		if err := m.Extend(); err != nil {
			t.Fatal(err)
		}
		ident := m.identityFor(k)
		for i := range want {
			want[i] = append(want[i], ident...)
		}
		var phys []agg.PhysCol
		for _, seg := range segs[k] {
			phys = append(phys, seg.layout.Phys...)
		}
		for site := 0; site < 3; site++ {
			h := relation.New(m.hschemas[k])
			for _, ord := range rng.Perm(n)[:rng.Intn(n)] {
				row := relation.Tuple{relation.NewInt(int64(ord))}
				for _, p := range phys {
					row = append(row, foldCellValue(rng, p))
				}
				h.MustAppend(row)
			}
			st := m.NewStage(k, n, nil)
			if err := st.Add(decoded(t, h)); err != nil {
				t.Fatal(err)
			}
			if err := m.CommitStage(st, k); err != nil {
				t.Fatal(err)
			}
			for _, hrow := range h.Rows() {
				xrow, cursor := want[hrow[0].Int], 1
				for _, seg := range segs[k] {
					np := len(seg.layout.Phys)
					if err := seg.layout.MergePhys(xrow[seg.physStart:seg.physStart+np], hrow[cursor:cursor+np]); err != nil {
						t.Fatal(err)
					}
					cursor += np
				}
			}
		}
		m.RecomputeDerived(k, k+1)
		for _, row := range want {
			for _, seg := range segs[k] {
				seg.layout.AppendDerived(row[seg.derStart:seg.derStart], row[seg.physStart:seg.physStart+len(seg.layout.Phys)])
			}
		}
		after(k, m, want)
	}
}

// decoded is r decoded from its frame, as a site's reply arrives.
func decoded(t *testing.T, r *relation.Relation) *relation.Relation {
	t.Helper()
	frame, err := relation.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	d, err := relation.Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestColumnarFoldMatchesRowFold: folding H into the columnar X gives, cell
// for cell, what agg.Layout.MergePhys gives over boxed rows — COUNT, SUM and
// SUMSQ under NULLs, MIN and MAX over INT, FLOAT (NaN and −0 included),
// STRING and BOOL, the derived columns.
func TestColumnarFoldMatchesRowFold(t *testing.T) {
	foldScenario(t, func(k int, m *merger, want []relation.Tuple) {
		got := m.X().Rows()
		for i := range want {
			for j := range want[i] {
				if !got[i][j].Identical(want[i][j]) {
					t.Fatalf("MD%d: X row %d column %s: columnar fold %v, row fold %v", k+1, i, m.X().Schema[j].Name, got[i][j], want[i][j])
				}
			}
		}
	})
}

// TestDerivedRecomputedPerRound: after operator round k only operator k's
// derived cells are recomputed, and X prints exactly as it does after
// recomputing every operator's.
func TestDerivedRecomputedPerRound(t *testing.T) {
	foldScenario(t, func(k int, m *merger, _ []relation.Tuple) {
		before := m.X().Format(-1)
		m.RecomputeDerived(0, k+1)
		if after := m.X().Format(-1); after != before {
			t.Fatalf("MD%d: recomputing every operator's derived cells changed X\nbefore:\n%s\nafter:\n%s", k+1, before, after)
		}
	})
}

// TestInitBaseChargesBeforeAllocating: InitBase charges X's exact bytes — its
// MemBytes — before it allocates X. One byte under that budget fails the
// query with ErrQueryMemBudget and leaves X uninstalled.
func TestInitBaseChargesBeforeAllocating(t *testing.T) {
	global := randomGlobal(rand.New(rand.NewSource(43)), 200, 40)
	sites, cat := buildCluster(t, global, "T", 4, 10)
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
	ctx := context.Background()
	var parts []*relation.Relation
	for _, s := range sites {
		b, _, err := s.EvalBase(ctx, q.Base)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, decoded(t, b))
	}
	free := mustMerger(t, q.Keys(), xs, segs, nil)
	if err := free.MergeLocal(nil, false, parts, nil); err != nil {
		t.Fatal(err)
	}
	want := free.X().MemBytes()
	exact := newMemBudget(want)
	m := mustMerger(t, q.Keys(), xs, segs, exact)
	if err := m.MergeLocal(nil, false, parts, nil); err != nil {
		t.Fatalf("InitBase under a budget of X's %d bytes: %v", want, err)
	}
	if got := exact.used.Load(); got != want {
		t.Errorf("InitBase charged %d bytes, X holds %d", got, want)
	}
	short := mustMerger(t, q.Keys(), xs, segs, newMemBudget(want-1))
	if err := short.MergeLocal(nil, false, parts, nil); !errors.Is(err, ErrQueryMemBudget) {
		t.Errorf("InitBase one byte under X's bytes = %v, want ErrQueryMemBudget", err)
	}
	if short.X() != nil {
		t.Error("an over-budget InitBase installed X")
	}

	// The same bound holds for a query: its base round fails typed.
	coord, err := New(sites, cat, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	coord.SetQueryMemBudget(want - 1)
	if _, err := coord.ExecuteWith(ctx, q, plan.SelectNone()); !errors.Is(err, ErrQueryMemBudget) {
		t.Fatalf("query one byte under X's bytes = %v, want ErrQueryMemBudget", err)
	}
}
