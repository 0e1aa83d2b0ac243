package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"skalla/internal/agg"
	"skalla/internal/engine"
	"skalla/internal/expr"
	"skalla/internal/gmdj"
	"skalla/internal/relation"
	"skalla/internal/tpc"
)

// identicalCells is byte identity of two cells, payloads included.
func identicalCells(a, b relation.Value) bool {
	return a.Kind == b.Kind && a.Int == b.Int && a.Str == b.Str && math.Float64bits(a.Float) == math.Float64bits(b.Float)
}

// baseSchema has a key column of every kind and one column that is not a
// key, which InitBase gathers from the first occurrence of its row's key.
var baseSchema = relation.MustSchema(
	relation.Column{Name: "i", Kind: relation.KindInt},
	relation.Column{Name: "f", Kind: relation.KindFloat},
	relation.Column{Name: "s", Kind: relation.KindString},
	relation.Column{Name: "n", Kind: relation.KindNull},
	relation.Column{Name: "b", Kind: relation.KindBool},
	relation.Column{Name: "payload", Kind: relation.KindInt},
)

// baseCell draws a cell of column j: few distinct values, so keys repeat
// within and across fragments; NULLs; and −0 beside +0 and two NaNs of
// different bits in the FLOAT column.
func baseCell(rng *rand.Rand, j int) relation.Value {
	if j == 5 {
		return relation.NewInt(rng.Int63n(1000))
	}
	if rng.Intn(6) == 0 {
		return relation.Null
	}
	switch j {
	case 0:
		return relation.NewInt(rng.Int63n(4) - 1)
	case 1:
		return []relation.Value{relation.NewFloat(0), relation.NewFloat(math.Copysign(0, -1)), relation.NewFloat(math.NaN()),
			relation.NewFloat(math.Float64frombits(0x7ff8000000000001)), relation.NewFloat(1), relation.NewFloat(2.5)}[rng.Intn(6)]
	case 2:
		return relation.NewString([]string{"", "a", "b", "clerk"}[rng.Intn(4)])
	case 3:
		return relation.Null
	}
	return relation.NewBool(rng.Intn(2) == 0)
}

// refInitBase is InitBase on boxed rows: the first row of each key, in
// fragment then row order, keys compared cell by cell with Identical.
func refInitBase(parts []*relation.Relation, keyIdx []int) []relation.Tuple {
	var kept []relation.Tuple
	for _, p := range parts {
	rows:
		for _, row := range p.Rows() {
			for _, k := range kept {
				same := true
				for _, j := range keyIdx {
					same = same && row[j].Identical(k[j])
				}
				if same {
					continue rows
				}
			}
			kept = append(kept, row)
		}
	}
	return kept
}

// TestInitBaseMatchesBoxedReference: InitBase keeps, cell for cell and
// payload for payload, the rows the boxed reference keeps, in its order, over
// INT, FLOAT (±0 and NaN), STRING, NULL and BOOL keys, and keys of one to
// five columns. Fragments arrive decoded, as a site's reply does, or built by
// Append.
func TestInitBaseMatchesBoxedReference(t *testing.T) {
	keySets := [][]string{{"i"}, {"f"}, {"s"}, {"n"}, {"b"}, {"s", "i"}, {"f", "s"}, {"i", "f", "s", "n", "b"}}
	for seed := int64(0); seed < 160; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keys := keySets[seed%int64(len(keySets))]
		var parts []*relation.Relation
		for p := rng.Intn(4) + 1; p > 0; p-- {
			r := relation.New(baseSchema)
			for n := rng.Intn(40); n > 0; n-- {
				row := make(relation.Tuple, len(baseSchema))
				for j := range row {
					row[j] = baseCell(rng, j)
				}
				r.MustAppend(row)
			}
			if rng.Intn(2) == 0 {
				r = decoded(t, r)
			}
			parts = append(parts, r)
		}
		m := mustMerger(t, keys, []relation.Schema{baseSchema}, nil, nil)
		if err := m.MergeLocal(nil, false, parts, nil); err != nil {
			t.Fatal(err)
		}
		want := relation.New(baseSchema)
		for _, row := range refInitBase(parts, m.keyIdx) {
			want.MustAppend(row)
		}
		got := m.X()
		if got.Len() != want.Len() {
			t.Fatalf("seed %d, keys %v: kept %d rows, the reference %d", seed, keys, got.Len(), want.Len())
		}
		for i := 0; i < got.Len(); i++ {
			for j := range baseSchema {
				if g, w := got.Value(i, j), want.Value(i, j); !identicalCells(g, w) {
					t.Fatalf("seed %d, keys %v: row %d column %s = %#v, the reference %#v", seed, keys, i, baseSchema[j].Name, g, w)
				}
			}
		}
	}
}

// TestRecomputeDerivedMatchesAppendDerived: the derived columns computed on
// X's slabs are, bit for bit, what agg.Layout.AppendDerived computes on the
// boxed physical cells — AVG over an INT and a FLOAT sum, VARIANCE whose
// cancellation the clamp catches, STDEV — under NULL sums and zero counts.
func TestRecomputeDerivedMatchesAppendDerived(t *testing.T) {
	detail := relation.MustSchema(
		relation.Column{Name: "k", Kind: relation.KindInt},
		relation.Column{Name: "i", Kind: relation.KindInt},
		relation.Column{Name: "f", Kind: relation.KindFloat},
	)
	q := gmdj.Query{
		Base: gmdj.BaseQuery{Detail: "F", Cols: []string{"k"}},
		Ops: []gmdj.Operator{{Detail: "F", Vars: []gmdj.GroupVar{{Cond: expr.MustParse("B.k = R.k"), Aggs: []agg.Spec{
			{Func: agg.Avg, Arg: "i", As: "avgi"},
			{Func: agg.Avg, Arg: "f", As: "avgf"},
			{Func: agg.Variance, Arg: "f", As: "varf"},
			{Func: agg.StdDev, Arg: "i", As: "sdi"},
		}}}}},
	}
	src := gmdj.Schemas{"F": detail}
	xs, err := gmdj.XSchemas(q, src)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := buildSegments(q, src, 1)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 400
	base := relation.New(xs[0])
	for i := 0; i < rows; i++ {
		base.MustAppend(relation.Tuple{relation.NewInt(int64(i))})
	}
	m := mustMerger(t, q.Keys(), xs, segs, nil)
	if err := m.MergeLocal(nil, false, []*relation.Relation{base}, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Extend(); err != nil {
		t.Fatal(err)
	}
	seg := segs[0][0]
	c := m.X().Columns()
	rng := rand.New(rand.NewSource(51))
	for i := 0; i < rows; i++ {
		for p, pc := range seg.layout.Phys {
			var v relation.Value
			switch {
			case pc.Op == agg.PhysCount:
				v = relation.NewInt(rng.Int63n(4)) // zero counts included
			case rng.Intn(6) == 0:
				v = relation.Null
			case pc.Op == agg.PhysSumSq && rng.Intn(3) == 0:
				// Far under sum²/cnt: sumsq/cnt − mean² is negative, and
				// the variance clamps at 0.
				v = relation.NewFloat(0.5)
			case pc.Kind == relation.KindInt:
				v = relation.NewInt(rng.Int63n(2000) - 1000)
			default:
				v = relation.NewFloat(rng.NormFloat64() * 1e3)
			}
			c.Vecs[seg.physStart+p].Set(i, rows, v)
		}
	}
	m.RecomputeDerived(0, 1)
	np, clamped := len(seg.layout.Phys), 0
	for i, row := range m.X().Rows() {
		want := seg.layout.AppendDerived(nil, row[seg.physStart:seg.physStart+np])
		for d, w := range want {
			g := row[seg.derStart+d]
			if !identicalCells(g, w) {
				t.Fatalf("row %d %s = %#v, AppendDerived %#v", i, seg.layout.Derived[d].Name, g, w)
			}
			if seg.layout.Derived[d].Kind != agg.DerivedAvg && w.Kind == relation.KindFloat && w.Float == 0 {
				clamped++
			}
		}
	}
	if clamped == 0 {
		t.Error("no variance was clamped; the case is not exercised")
	}
}

// BenchmarkInitBase measures the coordinator's base union at group_heavy's
// sizes: the four sites' B_i of its Clerk statement (about 2 900 rows each,
// as their replies decode) de-duplicated into an X of about 6 700 rows.
func BenchmarkInitBase(b *testing.B) {
	cfg := tpc.DefaultConfig()
	cfg.Rows, cfg.Customers, cfg.Clerks, cfg.Seed = 16_000, 16_000, 8000, 1
	d, err := tpc.Generate(cfg, 4)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	q := gmdj.Query{Base: gmdj.BaseQuery{Detail: tpc.RelationName, Cols: []string{"Clerk"}, Where: expr.MustParse("R.Discount >= 0.005")}}
	xs, err := gmdj.XSchemas(q, gmdj.Schemas{tpc.RelationName: tpc.Schema()})
	if err != nil {
		b.Fatal(err)
	}
	var parts []*relation.Relation
	for i, part := range d.Parts {
		es := engine.NewSite(i)
		if err := es.Load(ctx, tpc.RelationName, part); err != nil {
			b.Fatal(err)
		}
		bi, err := es.EvalBase(ctx, q.Base)
		if err != nil {
			b.Fatal(err)
		}
		frame, err := relation.Marshal(bi)
		if err != nil {
			b.Fatal(err)
		}
		if bi, err = relation.Unmarshal(frame); err != nil {
			b.Fatal(err)
		}
		parts = append(parts, bi)
	}
	m := mustMerger(b, q.Keys(), xs, nil, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.MergeLocal(nil, false, parts, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(parts[0].Len()), "B0-rows")
	b.ReportMetric(float64(m.X().Len()), "X-rows")
}
