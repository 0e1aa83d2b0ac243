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

// foldSchema is a detail relation with a column of every kind a typed vector
// holds, so one operator's H carries INT, FLOAT and STRING aggregates.
var foldSchema = relation.MustSchema(
	relation.Column{Name: "k", Kind: relation.KindInt},
	relation.Column{Name: "f", Kind: relation.KindFloat},
	relation.Column{Name: "s", Kind: relation.KindString},
	relation.Column{Name: "i", Kind: relation.KindInt},
)

// foldQuery has three operators, each with every physical op over every kind
// and two derived columns.
func foldQuery() gmdj.Query {
	op := func(n string) gmdj.Operator {
		return gmdj.Operator{Detail: "F", Vars: []gmdj.GroupVar{{
			Aggs: []agg.Spec{
				{Func: agg.Count, As: "cnt" + n},
				{Func: agg.Sum, Arg: "f", As: "sumf" + n},
				{Func: agg.Avg, Arg: "i", As: "avgi" + n},
				{Func: agg.StdDev, Arg: "f", As: "sdf" + n},
				{Func: agg.Min, Arg: "s", As: "mins" + n},
				{Func: agg.Max, Arg: "s", As: "maxs" + n},
				{Func: agg.Min, Arg: "f", As: "minf" + n},
				{Func: agg.Max, Arg: "i", As: "maxi" + n},
			},
			Cond: expr.MustParse("B.k = R.k"),
		}}}
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
	default:
		return relation.NewString(string(rune('a' + rng.Intn(6))))
	}
}

// foldScenario drives two mergers for foldQuery through a base round over
// three sites and three operator rounds of random H streams: one keeps X
// columnar, the other is switched to rows right after InitBase and fed row
// blocks. after runs once per round, after both have committed every stream.
func foldScenario(t *testing.T, after func(k int, col, rows *merger)) {
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
		parts = append(parts, columnar(t, b))
	}
	col := mustMerger(t, q.Keys(), xs, segs, nil)
	rows := mustMerger(t, q.Keys(), xs, segs, nil)
	if err := col.InitBase(parts...); err != nil {
		t.Fatal(err)
	}
	if err := rows.InitBase(parts...); err != nil {
		t.Fatal(err)
	}
	if err := rows.toRows(); err != nil {
		t.Fatal(err)
	}
	n := col.X().Len()
	for k := range q.Ops {
		if err := col.Extend(); err != nil {
			t.Fatal(err)
		}
		if err := rows.Extend(); err != nil {
			t.Fatal(err)
		}
		var phys []agg.PhysCol
		for _, seg := range segs[k] {
			phys = append(phys, seg.layout.Phys...)
		}
		for site := 0; site < 3; site++ {
			h := relation.New(col.hschemas[k])
			for _, ord := range rng.Perm(n)[:rng.Intn(n)] {
				row := relation.Tuple{relation.NewInt(int64(ord))}
				for _, p := range phys {
					row = append(row, foldCellValue(rng, p))
				}
				h.MustAppend(row)
			}
			for _, side := range []struct {
				m     *merger
				block *relation.Relation
			}{{col, columnar(t, h)}, {rows, h}} {
				st := side.m.NewStage(k, n, nil)
				if err := st.Add(side.block); err != nil {
					t.Fatal(err)
				}
				if err := side.m.CommitStage(st, k); err != nil {
					t.Fatal(err)
				}
			}
		}
		col.RecomputeDerived(k, k+1)
		rows.RecomputeDerived(k, k+1)
		after(k, col, rows)
	}
}

// columnar is r decoded from its frame, as a site's reply arrives.
func columnar(t *testing.T, r *relation.Relation) *relation.Relation {
	t.Helper()
	frame, err := relation.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	c, err := relation.Unmarshal(frame)
	if err != nil || c.Columns() == nil {
		t.Fatalf("decode to vectors: %v", err)
	}
	return c
}

// TestColumnarFoldMatchesRowFold: folding typed H vectors into a columnar X
// gives, cell for cell, what the row merge gives — COUNT, SUM and SUMSQ under
// NULLs, MIN and MAX over INT, FLOAT (NaN and −0 included) and STRING, the
// derived columns — and X stays columnar throughout.
func TestColumnarFoldMatchesRowFold(t *testing.T) {
	foldScenario(t, func(k int, col, rows *merger) {
		if col.X().Columns() == nil || rows.X().Columns() != nil {
			t.Fatalf("MD%d: X bodies changed (columnar %v, rows %v)", k+1, col.X().Columns() != nil, rows.X().Columns() == nil)
		}
		got, want := col.X().Rows(), rows.X().Tuples
		for i := range want {
			for j := range want[i] {
				if !got[i][j].Identical(want[i][j]) {
					t.Fatalf("MD%d: X row %d column %s: columnar fold %v, row fold %v", k+1, i, col.X().Schema[j].Name, got[i][j], want[i][j])
				}
			}
		}
	})
}

// TestDerivedRecomputedPerRound: after operator round k only operator k's
// derived cells are recomputed, and X prints exactly as it does after
// recomputing every operator's.
func TestDerivedRecomputedPerRound(t *testing.T) {
	foldScenario(t, func(k int, col, rows *merger) {
		for _, m := range []*merger{col, rows} {
			before := m.X().Format(-1)
			m.RecomputeDerived(0, k+1)
			if after := m.X().Format(-1); after != before {
				t.Fatalf("MD%d: recomputing every operator's derived cells changed X\nbefore:\n%s\nafter:\n%s", k+1, before, after)
			}
		}
	})
}

// TestInitBaseChargesBeforeAllocating: InitBase charges X's exact bytes — its
// MemBytes — before it allocates X, for a columnar X and for one that an
// off-kind key keeps in rows. One byte under that budget fails the query with
// ErrQueryMemBudget and leaves X uninstalled.
func TestInitBaseChargesBeforeAllocating(t *testing.T) {
	global := randomGlobal(rand.New(rand.NewSource(43)), 200, 40)
	sites, cat := buildCluster(t, global, "T", 4, 10, true)
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
		parts = append(parts, columnar(t, b))
	}
	offKind := parts[0].RowBody().Clone()
	offKind.Tuples[0][1] = relation.NewFloat(0.5)

	for name, parts := range map[string][]*relation.Relation{
		"columnar": parts,
		"rows":     append([]*relation.Relation{offKind}, parts[1:]...),
	} {
		free := mustMerger(t, q.Keys(), xs, segs, nil)
		if err := free.InitBase(parts...); err != nil {
			t.Fatal(err)
		}
		want := free.X().MemBytes()
		if (free.X().Columns() != nil) != (name == "columnar") {
			t.Fatalf("%s: X has the wrong body", name)
		}

		exact := newMemBudget(want)
		m := mustMerger(t, q.Keys(), xs, segs, exact)
		if err := m.InitBase(parts...); err != nil {
			t.Fatalf("%s: InitBase under a budget of X's %d bytes: %v", name, want, err)
		}
		if got := exact.used.Load(); got != want {
			t.Errorf("%s: InitBase charged %d bytes, X holds %d", name, got, want)
		}

		short := mustMerger(t, q.Keys(), xs, segs, newMemBudget(want-1))
		if err := short.InitBase(parts...); !errors.Is(err, ErrQueryMemBudget) {
			t.Errorf("%s: InitBase one byte under X's bytes = %v, want ErrQueryMemBudget", name, err)
		}
		if short.X() != nil {
			t.Errorf("%s: an over-budget InitBase installed X", name)
		}
	}

	// The same bound holds for a query: its base round fails typed.
	coord, err := New(sites, cat, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	free := mustMerger(t, q.Keys(), xs, segs, nil)
	if err := free.InitBase(parts...); err != nil {
		t.Fatal(err)
	}
	coord.SetQueryMemBudget(free.X().MemBytes() - 1)
	if _, err := coord.ExecuteWith(ctx, q, plan.SelectNone()); !errors.Is(err, ErrQueryMemBudget) {
		t.Fatalf("query one byte under X's bytes = %v, want ErrQueryMemBudget", err)
	}
}
