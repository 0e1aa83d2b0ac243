package gmdj

import (
	"math/rand"
	"testing"

	"skalla/internal/agg"
	"skalla/internal/expr"
	"skalla/internal/relation"
)

// colData serves Data's relations as column sources, so that EvalCentral with
// useHash on takes the compiled kernels where the row sources take the
// 2^n-probe scan.
type colData struct{ Data }

func (d colData) DetailSource(name string) (RowSource, error) {
	r, err := d.DetailRelation(name)
	if err != nil {
		return nil, err
	}
	return newColSource(r), nil
}

// rollupSources are the two ways a site can hold the same rows.
func rollupSources(d Data) []DataSource { return []DataSource{d, colData{d}} }

// The grouping-set fast paths — the 2^n-probe scan over a row source, the
// pattern kernels over a column source — must agree exactly with the
// nested-loop evaluation of the same query on randomized data.
func TestRollupFastPathMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		r := relation.New(relation.MustSchema(
			relation.Column{Name: "a", Kind: relation.KindInt},
			relation.Column{Name: "b", Kind: relation.KindInt},
			relation.Column{Name: "v", Kind: relation.KindInt},
		))
		for i := 0; i < 40+rng.Intn(60); i++ {
			r.MustAppend(relation.Tuple{
				relation.NewInt(rng.Int63n(4)),
				relation.NewInt(rng.Int63n(3)),
				relation.NewInt(rng.Int63n(50)),
			})
		}
		// A full cube over (a, b), with an extra residual predicate on half
		// the trials to exercise the verify step of the fast path.
		cond := "(B.a IS NULL || B.a = R.a) && (B.b IS NULL || B.b = R.b)"
		if trial%2 == 1 {
			cond += " && R.v > 20"
		}
		q := Query{
			Base: BaseQuery{
				Detail:       "T",
				Cols:         []string{"a", "b"},
				GroupingSets: [][]string{{"a", "b"}, {"a"}, {"b"}, {}},
			},
			Ops: []Operator{{Detail: "T", Vars: []GroupVar{{
				Aggs: []agg.Spec{
					{Func: agg.Count, As: "n"},
					{Func: agg.Sum, Arg: "v", As: "s"},
					{Func: agg.Min, Arg: "v", As: "mn"},
				},
				Cond: expr.MustParse(cond),
			}}}},
		}
		for _, src := range rollupSources(Data{"T": r}) {
			fast, err := EvalCentral(q, src, true)
			if err != nil {
				t.Fatal(err)
			}
			slow, err := EvalCentral(q, src, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameRows(fast.Rows(), slow.Rows()); err != nil {
				t.Fatalf("trial %d, %T: fast path diverges: %v\nfast:\n%s\nslow:\n%s", trial, src, err, fast, slow)
			}
		}
	}
}

// Detail rows with NULL dimension values conflate with rollup rows under
// Gray et al.'s ALL encoding; both paths must agree on that behaviour too.
func TestRollupFastPathWithNullData(t *testing.T) {
	r := relation.New(relation.MustSchema(
		relation.Column{Name: "a", Kind: relation.KindInt},
		relation.Column{Name: "v", Kind: relation.KindInt},
	))
	r.MustAppend(relation.Tuple{relation.NewInt(1), relation.NewInt(10)})
	r.MustAppend(relation.Tuple{relation.Null, relation.NewInt(20)})
	q := Query{
		Base: BaseQuery{Detail: "T", Cols: []string{"a"}, GroupingSets: [][]string{{"a"}, {}}},
		Ops: []Operator{{Detail: "T", Vars: []GroupVar{{
			Aggs: []agg.Spec{{Func: agg.Count, As: "n"}},
			Cond: expr.MustParse("B.a IS NULL || B.a = R.a"),
		}}}},
	}
	for _, src := range rollupSources(Data{"T": r}) {
		fast, err := EvalCentral(q, src, true)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := EvalCentral(q, src, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameRows(fast.Rows(), slow.Rows()); err != nil {
			t.Fatalf("%T: NULL-data divergence: %v\n%s\nvs\n%s", src, err, fast, slow)
		}
		// The NULL group (which is both the rollup row and the data's own NULL
		// value) counts every row: the rollup semantics of ALL.
		if fast.Len() != 2 {
			t.Errorf("%T: %d groups, want 2\n%s", src, fast.Len(), fast)
		}
		ai, ni := fast.Schema.MustIndex("a"), fast.Schema.MustIndex("n")
		for _, row := range fast.Rows() {
			if row[ai].IsNull() && row[ni].Int != 2 {
				t.Errorf("%T: NULL group count = %v, want 2", src, row[ni])
			}
		}
	}
}
