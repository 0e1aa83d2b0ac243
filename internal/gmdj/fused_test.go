package gmdj

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"skalla/internal/agg"
	"skalla/internal/expr"
	"skalla/internal/obs"
	"skalla/internal/relation"
)

// sourceData serves one source under every relation name.
type sourceData struct{ RowSource }

func (d sourceData) DetailSchema(string) (relation.Schema, error) { return d.Schema(), nil }
func (d sourceData) DetailSource(string) (RowSource, error)       { return d.RowSource, nil }

// fusedRel is rows rows over a STRING key S, a narrow INT key K, an INT key
// H of about rows/2 values spread too wide to index by value, so that the
// fused slabs outgrow their first size over 10 000 rows (fusedCells), an INT
// argument V, a FLOAT argument F
// holding NaN, ±0 and ±Inf, and a FLOAT D for filters to read. Every column
// is NULL now and then.
func fusedRel(rows int, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := relation.New(relation.MustSchema(
		relation.Column{Name: "S", Kind: relation.KindString},
		relation.Column{Name: "K", Kind: relation.KindInt},
		relation.Column{Name: "H", Kind: relation.KindInt},
		relation.Column{Name: "V", Kind: relation.KindInt},
		relation.Column{Name: "F", Kind: relation.KindFloat},
		relation.Column{Name: "D", Kind: relation.KindFloat},
	))
	floats := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1.5, -2.25, 1e300}
	maybe := func(v relation.Value) relation.Value {
		if rng.Intn(23) == 0 {
			return relation.Null
		}
		return v
	}
	for i := 0; i < rows; i++ {
		r.MustAppend(relation.Tuple{
			maybe(relation.NewString(fmt.Sprintf("s%d", rng.Intn(9)))),
			maybe(relation.NewInt(int64(rng.Intn(40) - 3))),
			maybe(relation.NewInt(int64(rng.Intn(rows/2+1)-rows/4) * (1 << 40))),
			maybe(relation.NewInt(int64(rng.Intn(2000) - 1000))),
			maybe(relation.NewFloat(floats[rng.Intn(len(floats))])),
			maybe(relation.NewFloat(rng.Float64())),
		})
	}
	return r
}

// links is the condition "B.k = R.k" over every key.
func links(keys []string) string {
	c := ""
	for i, k := range keys {
		if i > 0 {
			c += " && "
		}
		c += "B." + k + " = R." + k
	}
	return c
}

// fusedQuery is a base over keys, filtered by where (none when empty), and
// two operators: MD1 is op1's variables, each on the key links beside its
// residual, and MD2 counts the rows at or above MD1's first average.
func fusedQuery(keys []string, where string, op1 []GroupVar) Query {
	q := Query{Base: BaseQuery{Detail: "R", Cols: keys}}
	if where != "" {
		q.Base.Where = expr.MustParse(where)
	}
	md1 := Operator{Detail: "R"}
	for _, v := range op1 {
		md1.Vars = append(md1.Vars, GroupVar{Aggs: v.Aggs, Cond: v.Cond})
	}
	md2 := Operator{Detail: "R", Vars: []GroupVar{{
		Cond: expr.MustParse(links(keys) + " && R.F >= B.af"),
		Aggs: []agg.Spec{{Func: agg.Count, As: "above"}, {Func: agg.Sum, Arg: "V", As: "sv2"}},
	}}}
	q.Ops = []Operator{md1, md2}
	return q
}

// fusedVars are MD1's variable lists: one variable with every aggregate, and
// a coalesced pair with literal residuals.
func fusedVars(keys []string) map[string][]GroupVar {
	link := links(keys)
	return map[string][]GroupVar{
		"every aggregate": {{Cond: expr.MustParse(link), Aggs: []agg.Spec{
			{Func: agg.Count, As: "cnt"}, {Func: agg.Count, Arg: "F", As: "cf"},
			{Func: agg.Sum, Arg: "F", As: "sf"}, {Func: agg.Min, Arg: "F", As: "lf"}, {Func: agg.Max, Arg: "F", As: "hf"},
			{Func: agg.Avg, Arg: "F", As: "af"}, {Func: agg.Variance, Arg: "F", As: "vf"},
			{Func: agg.Sum, Arg: "V", As: "sv"}, {Func: agg.Min, Arg: "V", As: "lv"}, {Func: agg.Max, Arg: "V", As: "hv"},
		}}},
		"two variables": {
			{Cond: expr.MustParse(link + " && R.D < 0.7 && R.V < 500"), Aggs: []agg.Spec{{Func: agg.Count, As: "cnt"}, {Func: agg.Avg, Arg: "F", As: "af"}}},
			{Cond: expr.MustParse("R.S <> 's3' && " + link), Aggs: []agg.Spec{{Func: agg.Max, Arg: "V", As: "hv"}, {Func: agg.Variance, Arg: "V", As: "vv"}}},
		},
	}
}

// localBytes is the encoded local reply over src, and the detail passes it
// charged over every path.
func localBytes(t *testing.T, q Query, src RowSource, upTo int, witness, fuse bool) ([]byte, int64) {
	t.Helper()
	labels := [][2]string{{"kernel", reasonOK}, {"scalar", reasonShape}, {"scalar", reasonKind}}
	before := int64(0)
	for _, l := range labels {
		before += obs.EngineScanPath.With(l[0], l[1]).Value()
	}
	rec := obs.NewSiteRecorder()
	r, err := localReply(obs.WithRecorder(context.Background(), rec), q, sourceData{src}, upTo, true, witness, fuse)
	if err != nil {
		t.Fatal(err)
	}
	rec.Publish()
	passes := -before
	for _, l := range labels {
		passes += obs.EngineScanPath.With(l[0], l[1]).Value()
	}
	b, err := relation.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b, passes
}

// twoPasses is how many detail passes the two-pass path makes up to upTo:
// the base pass and one per grouping variable.
func twoPasses(q Query, upTo int) int64 {
	n := int64(1)
	for _, op := range q.Ops[:upTo] {
		n += int64(len(op.Vars))
	}
	return n
}

// TestFusedLocalRoundMatchesTwoPasses: a local round whose base pass folds
// MD1 replies with the bytes of the two-pass path and of the scalar path over
// a SourceOf relation, for witnessed, unfiltered and filtered bases, a σ that
// admits nothing, STRING, narrow-INT, hashed-INT and two-column keys with
// NULLs, every aggregate over FLOATs holding NaN and ±0, a coalesced
// operator with literal residuals, an empty partition, more groups than
// the slabs start with, and prefixes of one and two operators; and it reads
// the partition once for base and MD1.
func TestFusedLocalRoundMatchesTwoPasses(t *testing.T) {
	bases := []struct {
		name, where string
		witness     bool
	}{
		{"witnessed", "R.D >= 0.4", true},
		{"unfiltered", "", false},
		{"filtered", "R.D >= 0.4 && R.K < 30", false},
		{"witnessed, σ admits nothing", "R.D > 2", true},
		{"filtered, σ admits nothing", "R.D > 2", false},
	}
	for _, rows := range []int{3000, 0, 10000} {
		rel := fusedRel(rows, int64(rows)+1)
		keyLists := [][]string{{"S"}, {"K"}, {"H"}, {"S", "K"}}
		if rows > fusedCells {
			keyLists = [][]string{{"H"}}
		}
		for _, keys := range keyLists {
			for opName, vars := range fusedVars(keys) {
				for _, b := range bases {
					for upTo := 1; upTo <= 2; upTo++ {
						name := fmt.Sprintf("%d rows/%v/%s/%s/up to MD%d", rows, keys, opName, b.name, upTo)
						t.Run(name, func(t *testing.T) {
							q := fusedQuery(keys, b.where, vars)
							if err := q.Validate(sourceData{SourceOf(rel)}); err != nil {
								t.Fatal(err)
							}
							fused, passes := localBytes(t, q, newColSource(rel), upTo, b.witness, true)
							two, _ := localBytes(t, q, newColSource(rel), upTo, b.witness, false)
							scalar, _ := localBytes(t, q, SourceOf(rel), upTo, b.witness, true)
							if !bytes.Equal(fused, two) {
								t.Error("the fused reply differs from the two-pass reply")
							}
							if !bytes.Equal(fused, scalar) {
								t.Error("the fused reply differs from the scalar reply")
							}
							if want := twoPasses(q, upTo) - int64(len(q.Ops[0].Vars)); passes != want {
								t.Errorf("%d passes, want %d", passes, want)
							}
						})
					}
				}
			}
		}
	}
}

// TestUnfusedShapesKeepTwoPasses: a local round the fused pass does not
// cover — a base over grouping sets, a partition of several images, a link
// to another detail column, a residual reading B — runs the two passes and
// replies with their bytes.
func TestUnfusedShapesKeepTwoPasses(t *testing.T) {
	rel := fusedRel(3000, 5)
	aggs := []agg.Spec{{Func: agg.Count, As: "cnt"}, {Func: agg.Avg, Arg: "F", As: "af"}}
	op := func(cond string) []GroupVar { return []GroupVar{{Cond: expr.MustParse(cond), Aggs: aggs}} }
	cube := fusedQuery([]string{"S", "K"}, "R.D >= 0.4", op("(B.S IS NULL || B.S = R.S) && (B.K IS NULL || B.K = R.K)"))
	cube.Base.GroupingSets = [][]string{{"S", "K"}, {"S"}, {}}
	cube.Ops = cube.Ops[:1]
	for _, c := range []struct {
		name    string
		q       Query
		src     colSource
		witness bool
	}{
		{"grouping sets", cube, newColSource(rel), false},
		{"several images", fusedQuery([]string{"K"}, "R.D >= 0.4", op("B.K = R.K")), segmentedSource(rel, 700), true},
		{"link to another column", fusedQuery([]string{"K"}, "", op("B.K = R.V")), newColSource(rel), false},
		{"residual reading B", fusedQuery([]string{"K"}, "R.D >= 0.4", op("B.K = R.K && R.V >= B.K")), newColSource(rel), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := c.q.Validate(sourceData{SourceOf(rel)}); err != nil {
				t.Fatal(err)
			}
			got, passes := localBytes(t, c.q, c.src, 1, c.witness, true)
			two, _ := localBytes(t, c.q, c.src, 1, c.witness, false)
			if !bytes.Equal(got, two) {
				t.Error("the reply differs from the two-pass reply")
			}
			if want := twoPasses(c.q, 1); passes != want {
				t.Errorf("%d passes, want %d", passes, want)
			}
		})
	}
}
