package gmdj

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"skalla/internal/agg"
	"skalla/internal/expr"
	"skalla/internal/obs"
	"skalla/internal/relation"
)

// colSource is a ColumnSource over a materialized relation, with a request
// recorder of its own that evaluations under its ctx charge.
type colSource struct {
	RowSource
	cols   *relation.Columns   // the whole relation's image
	images []*relation.Columns // what Images yields: cols, or one image per segment
	rec    *obs.SiteRecorder
}

func newColSource(rel *relation.Relation) colSource {
	cols, err := relation.BuildColumns(rel)
	if err != nil {
		panic(err)
	}
	return colSource{RowSource: SourceOf(rel), cols: cols, images: []*relation.Columns{cols}, rec: obs.NewSiteRecorder()}
}

// ctx is a request context carrying the source's recorder.
func (s colSource) ctx() context.Context { return obs.WithRecorder(context.Background(), s.rec) }

// segmentedSource is newColSource yielding one image, with dictionaries of
// its own, per segment of rel's rows — segmentRows rows each, the last
// perhaps fewer — as a disk table does.
func segmentedSource(rel *relation.Relation, segmentRows int) colSource {
	src := newColSource(rel)
	src.images = nil
	for lo := 0; lo < rel.Len(); lo += segmentRows {
		sel := make([]int32, min(segmentRows, rel.Len()-lo))
		for i := range sel {
			sel[i] = int32(lo + i)
		}
		img, err := relation.BuildColumns(relation.FromColumns(rel.Schema, rel.Columns().Select(sel, nil)))
		if err != nil {
			panic(err)
		}
		src.images = append(src.images, img)
	}
	return src
}

func (s colSource) Images(_ context.Context, fn func(*relation.Columns) error) error {
	for _, img := range s.images {
		if err := fn(img); err != nil {
			return err
		}
	}
	return nil
}

// sameValue is byte identity: DeepEqual would call -0.0 and +0.0 equal.
func sameValue(a, b relation.Value) bool {
	return a.Kind == b.Kind && a.Int == b.Int && a.Str == b.Str &&
		math.Float64bits(a.Float) == math.Float64bits(b.Float)
}

func sameRows(a, b []relation.Tuple) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("row %d: arity %d vs %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if !sameValue(a[i][j], b[i][j]) {
				return fmt.Errorf("row %d col %d: %#v vs %#v", i, j, a[i][j], b[i][j])
			}
		}
	}
	return nil
}

// sameAccum compares the two accumulators the way their callers read them:
// every base row's AppendPhysVectors cells (the H_i payload — gathered from
// the typed slabs on the kernel's side) and AppendExtendedVectors cells
// (physical and derived), cell for cell.
func sameAccum(scalar, kernel *OperatorAccum) error {
	if len(scalar.Layouts) != len(kernel.Layouts) {
		return fmt.Errorf("%d variables vs %d", len(scalar.Layouts), len(kernel.Layouts))
	}
	if len(scalar.Touched) != len(kernel.Touched) {
		return fmt.Errorf("%d base rows vs %d", len(scalar.Touched), len(kernel.Touched))
	}
	all := make([]int32, len(scalar.Touched))
	for i := range all {
		all[i] = int32(i)
	}
	sv, kv := scalar.AppendPhysVectors(nil, all), kernel.AppendPhysVectors(nil, all)
	se, ke := scalar.AppendExtendedVectors(nil, all), kernel.AppendExtendedVectors(nil, all)
	for i := range scalar.Touched {
		if scalar.Touched[i] != kernel.Touched[i] {
			return fmt.Errorf("Touched[%d]: %v vs %v", i, scalar.Touched[i], kernel.Touched[i])
		}
		for name, vecs := range map[string][2][]relation.Vector{"AppendPhysVectors": {sv, kv}, "AppendExtendedVectors": {se, ke}} {
			var s, k relation.Tuple
			for p := range vecs[0] {
				s, k = append(s, vecs[0][p].Value(i)), append(k, vecs[1][p].Value(i))
			}
			if err := sameRows([]relation.Tuple{s}, []relation.Tuple{k}); err != nil {
				return fmt.Errorf("%s row %d: %w", name, i, err)
			}
		}
	}
	return nil
}

// checkScanPath demands that the one evaluation over src charged its
// recorder passes detail passes under reason — reasonOK means the kernel ran
// — each reading every row. The reason is read back from
// skalla_engine_scan_path_total, to which the recorder is published.
func checkScanPath(t *testing.T, src colSource, reason string, passes int) {
	t.Helper()
	path := "scalar"
	if reason == reasonOK {
		path = "kernel"
	}
	before := obs.EngineScanPath.With(path, reason).Value()
	src.rec.Publish()
	if got := obs.EngineScanPath.With(path, reason).Value() - before; got != int64(passes) {
		t.Errorf("charged %d passes as %s/%s, want %d", got, path, reason, passes)
	}
	checkCharged(t, src, reason, passes)
}

// checkCharged demands that src's recorder says whether the kernel ran as
// reason does, and holds passes passes' worth of rows.
func checkCharged(t *testing.T, src colSource, reason string, passes int) {
	t.Helper()
	b := src.rec.Snapshot()
	if b.Kernel != (reason == reasonOK) || b.RowsScanned != int64(passes*src.Len()) {
		t.Errorf("charged %d rows, kernel %v; want %d rows, kernel %v", b.RowsScanned, b.Kernel, passes*src.Len(), reason == reasonOK)
	}
}

// segmentSizes are the segment sizes checkOperator and checkBase split a
// detail relation into: every row its own image, and a few rows each.
var segmentSizes = []int{1, 7}

// checkSegmented evaluates over detail split into segments of each size and
// demands what eval returns equal want. When the whole image compiled, so
// must every split; when it did not, no split may claim the kernel.
func checkSegmented[T any](t *testing.T, detail *relation.Relation, reason string, passes int, want T,
	eval func(context.Context, RowSource) (T, error), same func(want, got T) error) {
	t.Helper()
	for _, size := range segmentSizes {
		src := segmentedSource(detail, size)
		got, err := eval(src.ctx(), src)
		if err != nil {
			t.Fatalf("segments of %d: %v", size, err)
		}
		checkCharged(t, src, reason, passes)
		if err := same(want, got); err != nil {
			t.Errorf("segments of %d: %v", size, err)
		}
	}
}

// checkOperator evaluates op over detail on the scalar path (a row source)
// and through column sources — one image, and one per segment — and demands
// identical accumulators, from the literal nested loop too when the kernel
// ran. reason is the scan-path reason the one-image source must be counted
// under: reasonOK means the kernel ran.
func checkOperator(t *testing.T, x *relation.Relation, op Operator, detail *relation.Relation, reason string) {
	t.Helper()
	ctx := context.Background()
	scalar, err := AccumulateOperator(ctx, x, op, SourceOf(detail), true)
	if err != nil {
		t.Fatalf("scalar: %v", err)
	}
	src := newColSource(detail)
	kernel, err := AccumulateOperator(src.ctx(), x, op, src, true)
	if err != nil {
		t.Fatalf("column source: %v", err)
	}
	checkScanPath(t, src, reason, len(op.Vars))
	if err := sameAccum(scalar, kernel); err != nil {
		t.Error(err)
	}
	checkSegmented(t, detail, reason, len(op.Vars), scalar,
		func(ctx context.Context, src RowSource) (*OperatorAccum, error) {
			return AccumulateOperator(ctx, x, op, src, true)
		}, sameAccum)
	if reason == reasonOK {
		loop, err := AccumulateOperator(ctx, x, op, SourceOf(detail), false)
		if err != nil {
			t.Fatalf("nested loop: %v", err)
		}
		if err := sameAccum(loop, kernel); err != nil {
			t.Errorf("nested loop: %v", err)
		}
	}
}

func checkBase(t *testing.T, bq BaseQuery, detail *relation.Relation, reason string) *relation.Relation {
	t.Helper()
	scalar, err := EvalBase(context.Background(), bq, SourceOf(detail))
	if err != nil {
		t.Fatalf("scalar: %v", err)
	}
	src := newColSource(detail)
	kernel, err := EvalBase(src.ctx(), bq, src)
	if err != nil {
		t.Fatalf("column source: %v", err)
	}
	checkScanPath(t, src, reason, 1)
	if !scalar.Schema.Equal(kernel.Schema) {
		t.Errorf("schema %s vs %s", scalar.Schema, kernel.Schema)
	}
	if err := sameRows(scalar.Rows(), kernel.Rows()); err != nil {
		t.Error(err)
	}
	checkSegmented(t, detail, reason, 1, scalar,
		func(ctx context.Context, src RowSource) (*relation.Relation, error) { return EvalBase(ctx, bq, src) },
		func(want, got *relation.Relation) error { return sameRows(want.Rows(), got.Rows()) })
	return scalar
}

var kernelSchema = relation.MustSchema(
	relation.Column{Name: "S", Kind: relation.KindString},
	relation.Column{Name: "T", Kind: relation.KindString},
	relation.Column{Name: "I", Kind: relation.KindInt},
	relation.Column{Name: "V", Kind: relation.KindInt},
	relation.Column{Name: "F", Kind: relation.KindFloat},
	relation.Column{Name: "P", Kind: relation.KindFloat}, // never NULL
)

// kernelDetail generates rows over kernelSchema: few distinct keys, NULLs in
// every column but P, negative zeros and repeated values among the floats.
func kernelDetail(seed int64, rows int) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := relation.New(kernelSchema)
	str := func(vals ...string) relation.Value {
		if rng.Intn(8) == 0 {
			return relation.Null
		}
		return relation.NewString(vals[rng.Intn(len(vals))])
	}
	for i := 0; i < rows; i++ {
		iv, vv, fv := relation.Null, relation.Null, relation.Null
		if rng.Intn(8) != 0 {
			iv = relation.NewInt(int64(rng.Intn(5)) - 1)
		}
		if rng.Intn(8) != 0 {
			vv = relation.NewInt(int64(rng.Intn(40)) - 10)
		}
		switch rng.Intn(8) {
		case 0:
		case 1:
			fv = relation.NewFloat(math.Copysign(0, -1))
		default:
			fv = relation.NewFloat(float64(rng.Intn(2000))/7 - 100)
		}
		r.MustAppend(relation.Tuple{
			str("a", "b", "c", "d"), str("x", "y"), iv, vv, fv,
			relation.NewFloat(rng.Float64() * 1e6),
		})
	}
	return r
}

var allAggs = []agg.Spec{
	{Func: agg.Count, As: "n"},
	{Func: agg.Count, Arg: "T", As: "nt"},
	{Func: agg.Sum, Arg: "V", As: "sv"},
	{Func: agg.Sum, Arg: "F", As: "sf"},
	{Func: agg.Avg, Arg: "P", As: "ap"},
	{Func: agg.Min, Arg: "V", As: "lov"},
	{Func: agg.Max, Arg: "V", As: "hiv"},
	{Func: agg.Min, Arg: "F", As: "lof"},
	{Func: agg.Max, Arg: "F", As: "hif"},
	{Func: agg.Variance, Arg: "V", As: "vv"},
	{Func: agg.StdDev, Arg: "P", As: "dp"},
}

func oneVar(cond string, aggs ...agg.Spec) Operator {
	return Operator{Detail: "D", Vars: []GroupVar{{Aggs: aggs, Cond: expr.MustParse(cond)}}}
}

// baseOf evaluates the distinct projection of cols over detail (scalar).
func baseOf(t *testing.T, detail *relation.Relation, cols ...string) *relation.Relation {
	t.Helper()
	x, err := EvalBase(context.Background(), BaseQuery{Detail: "D", Cols: cols}, SourceOf(detail))
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// setsOf is baseOf under grouping sets: the union of the NULL-padded distinct
// projections of cols, one per set.
func setsOf(t *testing.T, detail *relation.Relation, cols []string, sets ...[]string) *relation.Relation {
	t.Helper()
	x, err := EvalBase(context.Background(), BaseQuery{Detail: "D", Cols: cols, GroupingSets: sets}, SourceOf(detail))
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// cubeSets lists every subset of cols, the full set first.
func cubeSets(cols ...string) [][]string {
	var sets [][]string
	for mask := 1<<len(cols) - 1; mask >= 0; mask-- {
		set := []string{}
		for i, c := range cols {
			if mask&(1<<i) != 0 {
				set = append(set, c)
			}
		}
		sets = append(sets, set)
	}
	return sets
}

// rollupCond is the grouping-set condition over dims.
func rollupCond(dims ...string) string {
	var conjuncts []string
	for _, d := range dims {
		conjuncts = append(conjuncts, fmt.Sprintf("(B.%s IS NULL || B.%s = R.%s)", d, d, d))
	}
	return strings.Join(conjuncts, " && ")
}

// keepRows returns x with only the rows keep accepts.
func keepRows(x *relation.Relation, keep func(relation.Tuple) bool) *relation.Relation {
	return x.Filter(keep)
}

// withRows returns x with rows appended.
func withRows(x *relation.Relation, rows ...relation.Tuple) *relation.Relation {
	out := x.Clone()
	for _, t := range rows {
		out.MustAppend(t)
	}
	return out
}

// withColumn returns x with one more column appended.
func withColumn(x *relation.Relation, col relation.Column, val func(i int) relation.Value) *relation.Relation {
	out := relation.New(append(x.Schema.Clone(), col))
	for i, t := range x.Rows() {
		out.MustAppend(append(t, val(i)))
	}
	return out
}

// withWideInts returns detail with two more INT columns, both holding NULLs:
// W, whose values lie 1 000 003 apart, so no dense table may key them, and E,
// which holds MinInt64 and MaxInt64 beside small values, so that the span of
// its values overflows int64.
func withWideInts(detail *relation.Relation) *relation.Relation {
	detail = withColumn(detail, relation.Column{Name: "W", Kind: relation.KindInt}, func(i int) relation.Value {
		if i%17 == 0 {
			return relation.Null
		}
		return relation.NewInt(int64(i%13-6) * 1_000_003)
	})
	extremes := []int64{math.MinInt64, math.MaxInt64, 0, -1, 7}
	return withColumn(detail, relation.Column{Name: "E", Kind: relation.KindInt}, func(i int) relation.Value {
		if i%11 == 5 {
			return relation.Null
		}
		return relation.NewInt(extremes[i%len(extremes)])
	})
}

func TestKernelOperatorMatchesScalar(t *testing.T) {
	detail := kernelDetail(1, 500)
	wide := withWideInts(detail)
	extreme := func(k int64) *relation.Relation {
		return keepRows(baseOf(t, wide, "E"), func(r relation.Tuple) bool { return !r[0].IsNull() && r[0].Int == k })
	}
	empty := relation.New(kernelSchema)

	// m: a FLOAT threshold per base row, NULL for some; k: an INT one.
	thresholds := func(x *relation.Relation) *relation.Relation {
		x = withColumn(x, relation.Column{Name: "m", Kind: relation.KindFloat}, func(i int) relation.Value {
			if i%3 == 2 {
				return relation.Null
			}
			return relation.NewFloat(float64(i*37%200) - 60.5)
		})
		return withColumn(x, relation.Column{Name: "k", Kind: relation.KindInt}, func(i int) relation.Value {
			return relation.NewInt(int64(i*7%30) - 5)
		})
	}
	// Keys the partition does not hold, next to ones it does.
	strangers := relation.New(relation.MustSchema(
		relation.Column{Name: "S", Kind: relation.KindString},
		relation.Column{Name: "I", Kind: relation.KindInt},
	))
	for _, s := range []string{"a", "zz", "c", "nope"} {
		for _, i := range []int64{0, 99, 3} {
			strangers.MustAppend(relation.Tuple{relation.NewString(s), relation.NewInt(i)})
		}
	}
	strangers.MustAppend(relation.Tuple{relation.Null, relation.NewInt(1)})
	strangers.MustAppend(relation.Tuple{relation.NewString("b"), relation.Null})

	cases := []struct {
		name   string
		x      *relation.Relation
		op     Operator
		detail *relation.Relation
	}{
		{"string link, every aggregate", baseOf(t, detail, "S"), oneVar("B.S = R.S", allAggs...), detail},
		{"int link, every aggregate", baseOf(t, detail, "I"), oneVar("R.I = B.I", allAggs...), detail},
		{"two-column link", baseOf(t, detail, "S", "I"), oneVar("B.S = R.S && B.I = R.I", allAggs...), detail},
		{"three-column link", baseOf(t, detail, "S", "I", "T"), oneVar("B.S = R.S && B.I = R.I && R.T = B.T", allAggs...), detail},
		// X is keyed on (S, I) but linked on S alone: X rows share link values
		// and one detail row must reach all of them.
		{"duplicate link values in X", baseOf(t, detail, "S", "I"), oneVar("B.S = R.S", allAggs...), detail},
		{"X keys absent from the dictionary", strangers, oneVar("B.S = R.S && B.I = R.I", allAggs...), detail},
		{"X keys absent, single link", strangers, oneVar("B.I = R.I", allAggs...), detail},
		{"empty partition", baseOf(t, detail, "S"), oneVar("B.S = R.S", allAggs...), empty},
		{"empty X", relation.New(relation.MustSchema(relation.Column{Name: "S", Kind: relation.KindString})),
			oneVar("B.S = R.S", allAggs...), detail},
		{"residual: float column vs float base column", thresholds(baseOf(t, detail, "S")),
			oneVar("B.S = R.S && R.F >= B.m", allAggs...), detail},
		{"residual: int column vs float base column, base first", thresholds(baseOf(t, detail, "S")),
			oneVar("B.S = R.S && B.m > R.V", allAggs...), detail},
		{"residual: float column vs int base column", thresholds(baseOf(t, detail, "S")),
			oneVar("B.S = R.S && R.F < B.k", allAggs...), detail},
		{"residual: int column vs int base column", thresholds(baseOf(t, detail, "S")),
			oneVar("B.S = R.S && R.V <= B.k && R.V != B.k", allAggs...), detail},
		{"residual: literals of both kinds, either order", baseOf(t, detail, "S"),
			oneVar("B.S = R.S && R.V > 3 && R.V <= 20.5 && 100 >= R.F && R.F != 0 && R.P > 1000", allAggs...), detail},
		{"residual: string = and <> literal", baseOf(t, detail, "S"),
			oneVar("B.S = R.S && R.T != 'x' && R.S != 'nope' && 'a' != R.S", allAggs...), detail},
		{"residual: string literal no row holds", baseOf(t, detail, "S"),
			oneVar("B.S = R.S && R.T = 'nope'", allAggs...), detail},
		{"residual: string column vs base column", baseOf(t, detail, "S", "T"),
			oneVar("B.S = R.S && R.T != B.T", allAggs...), detail},
		{"residual rejects every row", baseOf(t, detail, "S"), oneVar("B.S = R.S && R.V > 1000", allAggs...), detail},
		// Grouping sets. kernelDetail holds NULLs in S, T and I, so a detail row
		// with NULL in a dimension meets the base rows rolled up over it.
		{"cube over strings", setsOf(t, detail, []string{"S", "T"}, cubeSets("S", "T")...), oneVar(rollupCond("S", "T"), allAggs...), detail},
		{"cube over string, int, string", setsOf(t, detail, []string{"S", "I", "T"}, cubeSets("S", "I", "T")...),
			oneVar(rollupCond("S", "I", "T"), allAggs...), detail},
		{"rollup over ints, operands mirrored", setsOf(t, detail, []string{"I", "V"}, []string{"I", "V"}, []string{"I"}, []string{}),
			oneVar("(R.I = B.I || B.I IS NULL) && (B.V IS NULL || R.V = B.V)", allAggs...), detail},
		{"single rollup link", setsOf(t, detail, []string{"S"}, []string{"S"}, []string{}), oneVar(rollupCond("S"), allAggs...), detail},
		// X holds four of the eight patterns.
		{"X holds some patterns", setsOf(t, detail, []string{"S", "I", "T"}, []string{"S", "I", "T"}, []string{"S", "T"}, []string{"I"}, []string{}),
			oneVar(rollupCond("S", "I", "T"), allAggs...), detail},
		{"X holds some patterns, grand total filtered out", keepRows(setsOf(t, detail, []string{"S", "I"}, cubeSets("S", "I")...),
			func(r relation.Tuple) bool { return !r[0].IsNull() || !r[1].IsNull() }),
			oneVar(rollupCond("S", "I"), allAggs...), detail},
		// (NULL, i) rows come from no prefix set; θ still gives them every row
		// with that I.
		{"X row whose pattern no set produces", withRows(setsOf(t, detail, []string{"S", "I"}, []string{"S", "I"}, []string{"S"}, []string{}),
			relation.Tuple{relation.Null, relation.NewInt(3)}, relation.Tuple{relation.Null, relation.NewInt(99)}),
			oneVar(rollupCond("S", "I"), allAggs...), detail},
		{"duplicate X rows under a cube", withRows(setsOf(t, detail, []string{"S", "I"}, cubeSets("S", "I")...),
			relation.Tuple{relation.Null, relation.Null}, relation.Tuple{relation.NewString("a"), relation.Null},
			relation.Tuple{relation.NewString("a"), relation.NewInt(0)}, relation.Tuple{relation.Null, relation.Null}),
			oneVar(rollupCond("S", "I"), allAggs...), detail},
		{"rollup keys absent from the partition", strangers, oneVar(rollupCond("S", "I"), allAggs...), detail},
		{"rollup links beside a plain link", setsOf(t, detail, []string{"S", "I", "T"}, cubeSets("S", "I", "T")...),
			oneVar("(B.S IS NULL || B.S = R.S) && B.I = R.I && (B.T IS NULL || B.T = R.T)", allAggs...), detail},
		{"rollup links beside residuals", thresholds(setsOf(t, detail, []string{"S", "I"}, cubeSets("S", "I")...)),
			oneVar(rollupCond("S", "I")+" && R.V >= B.k && R.F < 120.5", allAggs...), detail},
		// X's INT keys span too many values for a dense array, so they hash.
		{"string link beside a widely spread int link, X keys absent", withRows(baseOf(t, wide, "W", "S"),
			relation.Tuple{relation.NewInt(5), relation.NewString("a")}, relation.Tuple{relation.NewInt(-1_000_003), relation.NewString("zz")}),
			oneVar("B.W = R.W && B.S = R.S", allAggs...), wide},
		{"int link over MinInt64 and MaxInt64", baseOf(t, wide, "E"), oneVar("B.E = R.E", allAggs...), wide},
		{"rollup over MinInt64 and MaxInt64", setsOf(t, wide, []string{"E", "S"}, cubeSets("E", "S")...), oneVar(rollupCond("E", "S"), allAggs...), wide},
		// One key, so a dense table whose every other key lands out of range.
		{"int link dense at MaxInt64", extreme(math.MaxInt64), oneVar("B.E = R.E", allAggs...), wide},
		{"int link dense at MinInt64", extreme(math.MinInt64), oneVar("B.E = R.E", allAggs...), wide},
		{"rollup over an empty partition", setsOf(t, detail, []string{"S", "I"}, cubeSets("S", "I")...), oneVar(rollupCond("S", "I"), allAggs...), empty},
		{"several variables", baseOf(t, detail, "S", "I"), Operator{Detail: "D", Vars: []GroupVar{
			{Aggs: []agg.Spec{{Func: agg.Count, As: "n1"}, {Func: agg.Sum, Arg: "F", As: "s1"}}, Cond: expr.MustParse("B.S = R.S")},
			{Aggs: []agg.Spec{{Func: agg.Count, As: "n2"}, {Func: agg.Avg, Arg: "V", As: "a2"}}, Cond: expr.MustParse("B.I = R.I && R.V > 0")},
			{Aggs: []agg.Spec{{Func: agg.Max, Arg: "P", As: "m3"}}, Cond: expr.MustParse("B.S = R.S && B.I = R.I")},
		}}, detail},
		{"rollup and plain variables", setsOf(t, detail, []string{"S", "I"}, cubeSets("S", "I")...), Operator{Detail: "D", Vars: []GroupVar{
			{Aggs: []agg.Spec{{Func: agg.Count, As: "n1"}, {Func: agg.Sum, Arg: "F", As: "s1"}}, Cond: expr.MustParse(rollupCond("S", "I"))},
			{Aggs: []agg.Spec{{Func: agg.Count, As: "n2"}}, Cond: expr.MustParse("B.S = R.S && B.I = R.I")},
		}}, detail},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkOperator(t, c.x, c.op, c.detail, reasonOK)
		})
	}
}

// withSpreadKeys returns detail with two more columns, both holding NULLs,
// that hold 100 values each: STRING U and INT N. In the first half of every
// 200 rows they go in step and in the second N is one value ahead, so the
// rows combine 200 of the 10 000 (U, N) pairs: many groups per link, few of
// their combinations.
func withSpreadKeys(detail *relation.Relation) *relation.Relation {
	detail = withColumn(detail, relation.Column{Name: "U", Kind: relation.KindString}, func(i int) relation.Value {
		if i%29 == 3 {
			return relation.Null
		}
		return relation.NewString(fmt.Sprintf("u%d", i%100))
	})
	return withColumn(detail, relation.Column{Name: "N", Kind: relation.KindInt}, func(i int) relation.Value {
		if i%31 == 4 {
			return relation.Null
		}
		return relation.NewInt(int64((i + i/100%2) % 100))
	})
}

// TestKernelTablesTakeBothSides pins that the kernel tests reach both sides
// of the tables a link goes through, each matching the scalar path: an INT
// link resolves through the dense array when X's keys span few values and
// through the hash table otherwise, and a pattern on two links folds through
// the flat pair array when the links' groups combine into few pairs and
// through the hash table otherwise.
func TestKernelTablesTakeBothSides(t *testing.T) {
	detail := withSpreadKeys(withWideInts(kernelDetail(9, 1000)))
	src := newColSource(detail)
	cases := []struct {
		name       string
		x          *relation.Relation
		cond       string
		denseInt   bool // every INT link resolves through the dense array
		densePairs bool // every pair table is the flat array
	}{
		{"narrow int link", baseOf(t, detail, "I"), "B.I = R.I && R.V > 3", true, false},
		{"wide int link", baseOf(t, detail, "W"), "B.W = R.W && R.V > 3", false, false},
		{"few pairs", baseOf(t, detail, "S", "I"), "B.S = R.S && B.I = R.I && R.V > 3", true, true},
		{"few pairs, wide int link", baseOf(t, detail, "S", "W"), "B.S = R.S && B.W = R.W && R.V > 3", false, true},
		{"many pairs", baseOf(t, detail, "U", "N"), "B.U = R.U && B.N = R.N && R.V > 3", true, false},
		{"many pairs, int link first", withRows(baseOf(t, detail, "U", "N"),
			relation.Tuple{relation.NewString("u7"), relation.NewInt(50)}, relation.Tuple{relation.NewString("zz"), relation.NewInt(7)}),
			"B.N = R.N && B.U = R.U", true, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			op := oneVar(c.cond, allAggs...)
			states, err := bindVarStates(c.x.Schema, op, detail.Schema)
			if err != nil {
				t.Fatal(err)
			}
			vars, reason := compileOperator(c.x, states, src.cols, &scratch{})
			if vars == nil {
				t.Fatalf("did not compile: %s", reason)
			}
			vk := vars[0]
			for s, st := range vk.stages {
				if st.ints != nil && (st.dense != nil) != c.denseInt {
					t.Errorf("link %d: dense array %v, want %v", s, st.dense != nil, c.denseInt)
				}
			}
			for _, p := range vk.patterns {
				for s, pt := range p.pairs {
					if (pt.dense != nil) != c.densePairs {
						t.Errorf("pair table %d: flat array %v, want %v", s, pt.dense != nil, c.densePairs)
					}
				}
			}
			checkOperator(t, c.x, op, detail, reasonOK)
		})
	}
}

// TestKernelFloatSumOrder pins the float caveat the other way round: at equal
// worker counts the kernel adds in the scalar path's order, so sums whose
// value depends on that order still match to the bit.
func TestKernelFloatSumOrder(t *testing.T) {
	r := relation.New(relation.MustSchema(
		relation.Column{Name: "G", Kind: relation.KindInt},
		relation.Column{Name: "F", Kind: relation.KindFloat},
	))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4000; i++ {
		r.MustAppend(relation.Tuple{relation.NewInt(int64(i % 3)), relation.NewFloat(math.Exp(rng.Float64()*60 - 30))})
	}
	aggs := []agg.Spec{{Func: agg.Sum, Arg: "F", As: "s"}, {Func: agg.Variance, Arg: "F", As: "v"}}
	checkOperator(t, baseOf(t, r, "G"), oneVar("B.G = R.G", aggs...), r, reasonOK)
	// The grand-total row sums every detail row, the others a third each:
	// both in row order, whichever pattern reaches them.
	checkOperator(t, setsOf(t, r, []string{"G"}, []string{"G"}, []string{}), oneVar(rollupCond("G"), aggs...), r, reasonOK)
}

// TestKernelVectorsGatheredFromSlabs pins how a site reads a compiled
// evaluation: the accumulator keeps the kernel's typed slabs, and
// AppendPhysVectors over any rows, as engine.Site's H blocks take
// them, holds the scalar path's cells bit for bit in typed vectors and
// encodes to the scalar path's bytes: COUNT 0 and NULL for untouched rows,
// INT and FLOAT sums, minima and order-dependent FLOAT sums alike, across two
// variables.
func TestKernelVectorsGatheredFromSlabs(t *testing.T) {
	detail := kernelDetail(23, 900)
	x := withRows(baseOf(t, detail, "S"), relation.Tuple{relation.NewString("no such key")})
	op := Operator{Detail: "D", Vars: []GroupVar{
		{Cond: expr.MustParse("B.S = R.S"), Aggs: allAggs},
		{Cond: expr.MustParse("B.S = R.S && R.V >= 5"), Aggs: []agg.Spec{
			{Func: agg.Sum, Arg: "P", As: "sp2"}, {Func: agg.Avg, Arg: "F", As: "af2"}, {Func: agg.Min, Arg: "P", As: "lo2"},
		}},
	}}
	scalar, err := AccumulateOperator(context.Background(), x, op, SourceOf(detail), true)
	if err != nil {
		t.Fatal(err)
	}
	src := newColSource(detail)
	kernel, err := AccumulateOperator(src.ctx(), x, op, src, true)
	if err != nil {
		t.Fatal(err)
	}
	if kernel.slabs == nil || kernel.accs != nil || scalar.slabs != nil {
		t.Fatal("the kernel's accumulator must hold slabs only, the scalar one tuples only")
	}
	phys, err := kernel.PhysSchema()
	if err != nil {
		t.Fatal(err)
	}
	sel := []int32{int32(x.Len() - 1), 0, 2, 1}
	var frames [2][]byte
	for side, acc := range []*OperatorAccum{scalar, kernel} {
		vecs := acc.AppendPhysVectors(nil, sel)
		if frames[side], err = relation.Marshal(relation.FromColumns(phys, &relation.Columns{Rows: len(sel), Vecs: vecs})); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(frames[0], frames[1]) {
		t.Error("the kernel's vectors encode to other bytes than the scalar path's")
	}
	if err := sameAccum(scalar, kernel); err != nil {
		t.Error(err)
	}
	// Every row, unlisted, is the slabs themselves, handed over.
	vecs, p := kernel.AppendPhysVectors(nil, nil), 0
	for vi, slabs := range kernel.slabs {
		for _, slab := range slabs {
			if v := &vecs[p]; len(v.Ints)+len(v.Floats) != x.Len() || slab.ints != nil && &v.Ints[0] != &slab.ints[0] || slab.floats != nil && &v.Floats[0] != &slab.floats[0] {
				t.Errorf("variable %d column %s: every row's vector is not its slab", vi, phys[p].Name)
			}
			p++
		}
	}
}

// TestKernelScratchReuse: one scratch serves evaluation after evaluation, as
// the pool lends it — a large request, a small one, the large one again —
// and, within one, image after image and variable after variable. Rollup
// links sort X into several link patterns, and links over part of X's
// columns make groups of several X rows, so patterns of every form are laid
// out in the scratch's buffers over what an earlier pattern left there. The
// rollup links run over STRING columns and over INT columns whose values
// span narrowly, widely and hold NULLs; a plain link over a wide INT column
// takes the hash table, and so do the pairs of two links of many values;
// base passes under grouping sets pair their columns
// through flat arrays and hash tables alike. Every buffer, table and lent
// slab is poisoned between evaluations. Every evaluation equals the scalar
// path's.
func TestKernelScratchReuse(t *testing.T) {
	detail := withSpreadKeys(withWideInts(kernelDetail(61, 3000)))
	cube := setsOf(t, detail, []string{"S", "I", "T"}, cubeSets("S", "I", "T")...)
	few := keepRows(cube, func(r relation.Tuple) bool { return r[0].IsNull() || r[0].Str == "a" })
	// The grand total first: a pattern on no link is laid out first, over
	// the group ids the previous image's scan left.
	totalFirst := withRows(keepRows(cube, func(r relation.Tuple) bool { return r[0].IsNull() && r[1].IsNull() && r[2].IsNull() }),
		keepRows(cube, func(r relation.Tuple) bool { return !r[0].IsNull() || !r[1].IsNull() || !r[2].IsNull() }).Rows()...)
	pairs := baseOf(t, detail, "S", "I")
	// I spans five values, V forty and W a million apart; all hold NULLs.
	intSets := [][]string{{"I", "V", "W"}, {"I", "V"}, {"I"}, {}}
	ints := setsOf(t, detail, []string{"I", "V", "W"}, intSets...)
	fewInts := keepRows(ints, func(r relation.Tuple) bool { return r[0].IsNull() || r[0].Int == 1 })
	wide := baseOf(t, detail, "W", "S")
	// U and N hold a hundred values each, so their pairs take a hash table.
	spread := baseOf(t, detail, "U", "N")
	rollup := Operator{Detail: "D", Vars: []GroupVar{
		{Cond: expr.MustParse(rollupCond("S", "I", "T")), Aggs: allAggs},
		{Cond: expr.MustParse(rollupCond("S", "I", "T") + " && R.V >= 0"), Aggs: allAggs[:3]},
	}}
	intRollup := Operator{Detail: "D", Vars: []GroupVar{
		{Cond: expr.MustParse(rollupCond("I", "V", "W")), Aggs: allAggs},
	}}
	shared := Operator{Detail: "D", Vars: []GroupVar{
		{Cond: expr.MustParse("B.S = R.S && R.V <= B.I"), Aggs: allAggs},
		{Cond: expr.MustParse("B.I = R.I"), Aggs: allAggs[:4]},
	}}
	wideLink := Operator{Detail: "D", Vars: []GroupVar{
		{Cond: expr.MustParse("B.W = R.W && B.S = R.S"), Aggs: allAggs},
		{Cond: expr.MustParse("B.W = R.W"), Aggs: allAggs[5:]},
	}}
	manyPairs := oneVar("B.U = R.U && B.N = R.N", allAggs...)
	sc := scratches.New()
	// poison overwrites whatever the scratch holds, to each buffer's
	// capacity, with an id in range of most patterns and tables: a buffer
	// that is read before it is written yields wrong groups, and a table or
	// slab not emptied yields wrong cells.
	poison := func() {
		fill := func(bufs ...[]int32) {
			for _, buf := range bufs {
				for i := range buf[:cap(buf)] {
					buf[:cap(buf)][i] = 7
				}
			}
		}
		fill(append([][]int32{sc.xrows, sc.next, sc.projs}, append(append(sc.pstarts, sc.prows...), sc.members...)...)...)
		for _, bufs := range append(append([][]uint32{sc.groups, sc.cells}, sc.dense...), sc.xids...) {
			for i := range bufs[:cap(bufs)] {
				bufs[:cap(bufs)][i] = 7
			}
		}
		for _, tbl := range sc.hashes {
			for i := range tbl.ids[:cap(tbl.ids)] {
				tbl.ids[:cap(tbl.ids)][i], tbl.keys[:cap(tbl.keys)][i] = 7, 7
			}
		}
		for _, buf := range sc.ints {
			for i := range buf[:cap(buf)] {
				buf[:cap(buf)][i] = 7
			}
		}
		for _, buf := range sc.floats {
			for i := range buf[:cap(buf)] {
				buf[:cap(buf)][i] = 7
			}
		}
		for _, buf := range sc.flags {
			for i := range buf[:cap(buf)] {
				buf[:cap(buf)][i] = true
			}
		}
	}
	// image is the first rows rows of detail as one image.
	image := func(rows int) *relation.Columns {
		return segmentedSource(detail, rows).images[0]
	}
	for i, run := range []struct {
		x        *relation.Relation
		op       Operator
		patterns int // at least, over the last image
		base     BaseQuery
		rows     int // of the base pass's one image
	}{
		{x: cube, op: rollup, patterns: 8}, {x: few, op: rollup, patterns: 4}, {x: cube, op: rollup, patterns: 8},
		{base: BaseQuery{Cols: []string{"I", "V", "W"}, GroupingSets: intSets}, rows: 3000},
		{x: ints, op: intRollup, patterns: 4},
		{base: BaseQuery{Cols: []string{"I", "V", "W"}, GroupingSets: intSets}, rows: 90},
		{x: fewInts, op: intRollup, patterns: 4},
		{x: pairs, op: shared, patterns: 2}, {x: spread, op: manyPairs, patterns: 1}, {x: few, op: rollup, patterns: 4},
		{x: wide, op: wideLink, patterns: 2},
		{base: BaseQuery{Cols: []string{"S", "I", "T", "V"}, GroupingSets: cubeSets("S", "I", "T", "V")}, rows: 3000},
		{x: pairs, op: shared, patterns: 2}, {x: totalFirst, op: rollup, patterns: 8}, {x: ints, op: intRollup, patterns: 4},
		{base: BaseQuery{Cols: []string{"S", "I", "T", "V"}, GroupingSets: cubeSets("S", "I", "T", "V")}, rows: 40},
		{x: cube, op: rollup, patterns: 8},
	} {
		poison()
		if run.x == nil {
			cols := image(run.rows)
			rel := relation.FromColumns(detail.Schema, cols)
			p, err := compileBase(run.base, SourceOf(rel), false)
			if err != nil {
				t.Fatal(err)
			}
			k, reason := compileBaseKernel(p, cols)
			if k == nil {
				t.Fatalf("run %d: base pass did not compile: %s", i, reason)
			}
			got, _ := k.run(sc)
			want, err := EvalBase(context.Background(), run.base, SourceOf(rel))
			if err != nil {
				t.Fatal(err)
			}
			if err := sameRows(want.Rows(), got.Rows()); err != nil {
				t.Errorf("run %d, a base pass over %d rows: %v", i, run.rows, err)
			}
			continue
		}
		states, err := bindVarStates(run.x.Schema, run.op, detail.Schema)
		if err != nil {
			t.Fatal(err)
		}
		kernel, reason, err := runOperatorKernel(context.Background(), run.x, states, segmentedSource(detail, 1300), sc, true)
		if err != nil || reason != reasonOK {
			t.Fatalf("run %d: %s, %v", i, reason, err)
		}
		if sc.patterns < run.patterns {
			t.Errorf("run %d laid out %d link patterns, want at least %d", i, sc.patterns, run.patterns)
		}
		scalar, err := AccumulateOperator(context.Background(), run.x, run.op, SourceOf(detail), true)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameAccum(scalar, kernel); err != nil {
			t.Errorf("run %d over %d X rows: %v", i, run.x.Len(), err)
		}
	}
}

func TestKernelOperatorFallsBack(t *testing.T) {
	detail := kernelDetail(2, 200)
	count := agg.Spec{Func: agg.Count, As: "n"}

	// A FLOAT-declared key against the INT detail column.
	floatKeys := relation.New(relation.MustSchema(relation.Column{Name: "I", Kind: relation.KindFloat}))
	for _, f := range []float64{0, 1, 2.5} {
		floatKeys.MustAppend(relation.Tuple{relation.NewFloat(f)})
	}
	// A BOOL detail column and its X.
	flags := relation.New(relation.MustSchema(relation.Column{Name: "ok", Kind: relation.KindBool}))
	for i := 0; i < 10; i++ {
		flags.MustAppend(relation.Tuple{relation.NewBool(i%3 == 0)})
	}
	// One dimension more than a rollup condition may link.
	var wideCols []string
	var wideSchema relation.Schema
	for c := 0; c <= maxRollupLinks; c++ {
		wideCols = append(wideCols, fmt.Sprintf("d%d", c))
		wideSchema = append(wideSchema, relation.Column{Name: wideCols[c], Kind: relation.KindInt})
	}
	wide := relation.New(wideSchema)
	for i := 0; i < 20; i++ {
		row := make(relation.Tuple, len(wideCols))
		for c := range row {
			row[c] = relation.NewInt(int64(i * (c + 1) % 3))
		}
		wide.MustAppend(row)
	}

	cases := []struct {
		name   string
		x      *relation.Relation
		op     Operator
		detail *relation.Relation
		reason string
	}{
		{"disjunction", baseOf(t, detail, "S"), oneVar("B.S = R.S && (R.V > 3 || R.V < 0)", count), detail, reasonShape},
		{"negation", baseOf(t, detail, "S"), oneVar("B.S = R.S && !(R.V > 3)", count), detail, reasonShape},
		{"arithmetic", baseOf(t, detail, "S"), oneVar("B.S = R.S && R.V + 1 > 3", count), detail, reasonShape},
		{"no link", baseOf(t, detail, "I"), oneVar("R.I > B.I", count), detail, reasonShape},
		{"rollup over another column's NULL", baseOf(t, detail, "S", "T"), oneVar("B.T IS NULL || B.S = R.S", count), detail, reasonShape},
		{"17 rollup links", baseOf(t, wide, wideCols...), oneVar(rollupCond(wideCols...), count), wide, reasonShape},
		{"float rollup link", setsOf(t, detail, []string{"F"}, []string{"F"}, []string{}), oneVar(rollupCond("F"), count), detail, reasonKind},
		{"rollup link kinds differ", floatKeys, oneVar(rollupCond("I"), count), detail, reasonKind},
		{"string ordering", baseOf(t, detail, "S"), oneVar("B.S = R.S && R.T > 'x'", count), detail, reasonShape},
		{"float link", baseOf(t, detail, "F"), oneVar("B.F = R.F", count), detail, reasonKind},
		{"link kinds differ", floatKeys, oneVar("B.I = R.I", count), detail, reasonKind},
		{"bool link", baseOf(t, flags, "ok"), oneVar("B.ok = R.ok", count), flags, reasonKind},
		{"string vs number", baseOf(t, detail, "S"), oneVar("B.S = R.S && R.T = 3", count), detail, reasonKind},
		{"string MIN", baseOf(t, detail, "S"), oneVar("B.S = R.S", agg.Spec{Func: agg.Min, Arg: "T", As: "m"}), detail, reasonKind},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkOperator(t, c.x, c.op, c.detail, c.reason)
		})
	}

	t.Run("useHash off", func(t *testing.T) {
		src := newColSource(detail)
		if _, err := AccumulateOperator(src.ctx(), baseOf(t, detail, "S"), oneVar("B.S = R.S", count), src, false); err != nil {
			t.Fatal(err)
		}
		checkScanPath(t, src, reasonShape, 1)
	})
}

// cancelingSource is a segmented source that cancels its request once it
// has handed out its first image, and counts the images it hands out. It does
// not check the context itself, so only the walk can stop it.
type cancelingSource struct {
	colSource
	cancel func()
	handed *int
}

func (s cancelingSource) Images(ctx context.Context, fn func(*relation.Columns) error) error {
	return s.colSource.Images(ctx, func(cols *relation.Columns) error {
		if *s.handed++; *s.handed == 1 {
			s.cancel()
		}
		return fn(cols)
	})
}

// TestImageWalksStopWhenCanceled: the kernel walk and the boxing walk return
// context.Canceled before they take the image after the one during which the
// request was canceled, and a canceled evaluation charges no pass.
func TestImageWalksStopWhenCanceled(t *testing.T) {
	detail := kernelDetail(31, 40)
	walks := map[string]func(context.Context, cancelingSource) error{
		"kernel operator": func(ctx context.Context, src cancelingSource) error {
			_, err := AccumulateOperator(ctx, baseOf(t, detail, "S"), oneVar("B.S = R.S", allAggs...), src, true)
			return err
		},
		"kernel base": func(ctx context.Context, src cancelingSource) error {
			_, err := EvalBase(ctx, BaseQuery{Detail: "D", Cols: []string{"S", "I"}}, src)
			return err
		},
		"boxed rows": func(ctx context.Context, src cancelingSource) error {
			return ScanImages(ctx, src, func(relation.Tuple) error { return nil })
		},
	}
	for name, walk := range walks {
		src := segmentedSource(detail, 7)
		ctx, cancel := context.WithCancel(src.ctx())
		handed := 0
		err := walk(ctx, cancelingSource{colSource: src, cancel: cancel, handed: &handed})
		cancel()
		if !errors.Is(err, context.Canceled) || handed != 1 {
			t.Errorf("%s: returned %v after %d images, want context.Canceled after 1", name, err, handed)
		}
		if b := src.rec.Snapshot(); b.RowsScanned != 0 || b.Kernel {
			t.Errorf("%s: a canceled evaluation charged %d rows (kernel %v)", name, b.RowsScanned, b.Kernel)
		}
	}
}

func TestKernelBaseMatchesScalar(t *testing.T) {
	detail := kernelDetail(4, 600)
	empty := relation.New(kernelSchema)
	// W and E span far more values than a dense table may hold, so they are
	// keyed through a hash table, first column or not; E's span overflows.
	wide := withWideInts(detail)
	where := func(s string) expr.Expr { return expr.MustParse(s) }
	cases := []struct {
		name   string
		bq     BaseQuery
		detail *relation.Relation
		reason string
	}{
		{"string column", BaseQuery{Cols: []string{"S"}}, detail, reasonOK},
		{"int column", BaseQuery{Cols: []string{"V"}}, detail, reasonOK},
		{"two columns", BaseQuery{Cols: []string{"I", "S"}}, detail, reasonOK},
		{"four columns", BaseQuery{Cols: []string{"S", "V", "T", "I"}}, detail, reasonOK},
		{"filtered", BaseQuery{Cols: []string{"S", "I"}, Where: where("R.F >= 0.005 && R.V < 20 && R.T = 'x'")}, detail, reasonOK},
		{"filter rejects everything", BaseQuery{Cols: []string{"S"}, Where: where("R.V > 1000")}, detail, reasonOK},
		{"empty partition", BaseQuery{Cols: []string{"S", "I"}}, empty, reasonOK},
		{"one full grouping set", BaseQuery{Cols: []string{"S", "I"}, GroupingSets: [][]string{{"S", "I"}}}, detail, reasonOK},
		{"rollup sets", BaseQuery{Cols: []string{"S", "I"}, GroupingSets: [][]string{{"S", "I"}, {"S"}, {}}}, detail, reasonOK},
		{"rollup sets, int first", BaseQuery{Cols: []string{"I", "V", "S"}, GroupingSets: [][]string{{"I", "V", "S"}, {"I", "V"}, {"I"}, {}}}, detail, reasonOK},
		{"cube sets", BaseQuery{Cols: []string{"S", "I", "T"}, GroupingSets: cubeSets("S", "I", "T")}, detail, reasonOK},
		{"sets without the full one, coarse first", BaseQuery{Cols: []string{"S", "I", "T"}, GroupingSets: [][]string{{}, {"T"}, {"I", "S"}}}, detail, reasonOK},
		{"a set listed twice", BaseQuery{Cols: []string{"S", "I"}, GroupingSets: [][]string{{"S"}, {"S", "I"}, {"S"}}}, detail, reasonOK},
		{"one partial set", BaseQuery{Cols: []string{"S", "I"}, GroupingSets: [][]string{{"I"}}}, detail, reasonOK},
		{"filtered cube sets", BaseQuery{Cols: []string{"S", "I"}, GroupingSets: cubeSets("S", "I"), Where: where("R.F >= 0.005 && R.T = 'x'")}, detail, reasonOK},
		{"cube sets over an empty partition", BaseQuery{Cols: []string{"S", "I"}, GroupingSets: cubeSets("S", "I")}, empty, reasonOK},
		{"wide int column", BaseQuery{Cols: []string{"W", "S"}}, wide, reasonOK},
		{"wide int column under grouping sets", BaseQuery{Cols: []string{"W", "I"}, GroupingSets: cubeSets("W", "I")}, wide, reasonOK},
		{"int column holding MinInt64 and MaxInt64", BaseQuery{Cols: []string{"E"}}, wide, reasonOK},
		{"int column holding MinInt64 and MaxInt64, then a string", BaseQuery{Cols: []string{"E", "S"}}, wide, reasonOK},
		{"int column holding MinInt64 and MaxInt64 under grouping sets", BaseQuery{Cols: []string{"E", "W"}, GroupingSets: cubeSets("E", "W")}, wide, reasonOK},
		{"float column under grouping sets", BaseQuery{Cols: []string{"S", "F"}, GroupingSets: [][]string{{"S", "F"}, {"S"}}}, detail, reasonKind},
		{"float column", BaseQuery{Cols: []string{"F"}}, detail, reasonKind},
		{"disjunctive filter", BaseQuery{Cols: []string{"S"}, Where: where("R.V > 3 || R.V < 0")}, detail, reasonShape},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.bq.Detail = "D"
			out := checkBase(t, c.bq, c.detail, c.reason)
			if c.name == "filter rejects everything" && out.Len() != 0 {
				t.Errorf("%d rows survived", out.Len())
			}
		})
	}
}

// TestKernelQuick is the property behind the tables: for small random
// relations, base fragments (plain or under random grouping sets) and
// conditions of plain links, rollup links and residuals, a column source and a
// row source evaluate to the same bytes.
func TestKernelQuick(t *testing.T) {
	residuals := []string{
		"R.V > %d", "R.V <= B.k", "%d >= R.I", "R.F < B.m", "R.F >= %d.5", "B.m <= R.V",
		"R.T = 'x'", "R.T != 'y'", "R.S != 'c'", "R.P > %d", "R.V = %d", "R.F != B.k",
	}
	compiled := 0
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		detail := kernelDetail(seed, rng.Intn(80))
		keys := [][]string{{"S"}, {"I"}, {"S", "I"}, {"T", "S"}, {"I", "T", "S"}}[rng.Intn(5)]
		bq := BaseQuery{Detail: "D", Cols: keys}
		if rng.Intn(2) == 0 {
			bq.Where = expr.MustParse(fmt.Sprintf("R.V > %d", rng.Intn(30)-10))
		}
		if rng.Intn(2) == 0 {
			for n := 1 + rng.Intn(4); n > 0; n-- {
				set := []string{}
				for _, k := range keys {
					if rng.Intn(2) == 0 {
						set = append(set, k)
					}
				}
				bq.GroupingSets = append(bq.GroupingSets, set)
			}
		}
		x, err := EvalBase(context.Background(), bq, SourceOf(detail))
		if err != nil {
			t.Log(err)
			return false
		}
		for _, src := range []colSource{newColSource(detail), segmentedSource(detail, 1+rng.Intn(10))} {
			xk, err := EvalBase(src.ctx(), bq, src)
			if err != nil || sameRows(x.Rows(), xk.Rows()) != nil {
				t.Logf("seed %d: base over %d images differs (%v)", seed, len(src.images), err)
				return false
			}
		}
		x = withColumn(x, relation.Column{Name: "m", Kind: relation.KindFloat}, func(i int) relation.Value {
			if rng.Intn(5) == 0 {
				return relation.Null
			}
			return relation.NewFloat(float64(rng.Intn(300)) - 100)
		})
		x = withColumn(x, relation.Column{Name: "k", Kind: relation.KindInt}, func(i int) relation.Value {
			return relation.NewInt(int64(rng.Intn(40)) - 10)
		})
		// Now and then X loses some rows (and with them, maybe, whole NULL
		// patterns) and holds others twice.
		if rng.Intn(3) == 0 {
			x = keepRows(x, func(relation.Tuple) bool { return rng.Intn(4) != 0 })
			for n := rng.Intn(3); n > 0 && x.Len() > 0; n-- {
				x = withRows(x, x.Rows()[rng.Intn(x.Len())])
			}
		}
		// Link a random non-empty subset of the keys, each plainly or in the
		// rollup form; the rest make X rows share link values.
		cond := ""
		for i, k := range keys {
			if i == 0 || rng.Intn(3) != 0 {
				if cond != "" {
					cond += " && "
				}
				if rng.Intn(2) == 0 {
					cond += fmt.Sprintf("B.%s = R.%s", k, k)
				} else {
					cond += rollupCond(k)
				}
			}
		}
		for n := rng.Intn(3); n > 0; n-- {
			r := residuals[rng.Intn(len(residuals))]
			if strings.Contains(r, "%d") {
				r = fmt.Sprintf(r, rng.Intn(30))
			}
			cond += " && " + r
		}
		var aggs []agg.Spec
		for _, a := range allAggs {
			if rng.Intn(2) == 0 {
				aggs = append(aggs, a)
			}
		}
		if len(aggs) == 0 {
			aggs = allAggs[:1]
		}
		op := oneVar(cond, aggs...)
		scalar, err := AccumulateOperator(context.Background(), x, op, SourceOf(detail), true)
		if err != nil {
			t.Logf("seed %d: %s: %v", seed, cond, err)
			return false
		}
		for _, src := range []colSource{newColSource(detail), segmentedSource(detail, 1+rng.Intn(10))} {
			kernel, err := AccumulateOperator(src.ctx(), x, op, src, true)
			if err != nil {
				t.Logf("seed %d: %s: %v", seed, cond, err)
				return false
			}
			if src.rec.Snapshot().Kernel {
				compiled++
			}
			if err := sameAccum(scalar, kernel); err != nil {
				t.Logf("seed %d: %s over %d images: %v", seed, cond, len(src.images), err)
				return false
			}
		}
		return true
	}
	const runs = 300
	if err := quick.Check(property, &quick.Config{MaxCount: runs}); err != nil {
		t.Error(err)
	}
	if compiled != 2*runs {
		t.Errorf("%d of %d generated evaluations compiled; the property only means something when they do", compiled, 2*runs)
	}
}

// TestRollupFreeLinksFormOnePattern: without a rollup link, linkPatterns
// makes exactly what the mask path makes — one pattern over the X rows every
// link can match, grouped alike, leaving out a row holding a NULL or a value
// no detail row holds — and the operator's results equal the scalar path's.
func TestRollupFreeLinksFormOnePattern(t *testing.T) {
	detail := kernelDetail(51, 70)
	x := baseOf(t, detail, "S", "I")
	x = withRows(x, x.Rows()[0], relation.Tuple{relation.NewString("absent"), relation.NewInt(1)},
		relation.Tuple{relation.Null, relation.NewInt(2)})
	cols, err := relation.BuildColumns(detail)
	if err != nil {
		t.Fatal(err)
	}
	var stages []linkStage
	sc := &scratch{}
	for _, k := range []string{"S", "I"} {
		st, reason := compileLink(x, x.Schema.MustIndex(k), &cols.Vecs[detail.Schema.MustIndex(k)], false, sc)
		if reason != reasonOK {
			t.Fatalf("link on %s: %s", k, reason)
		}
		stages = append(stages, st)
	}
	got, want := linkPatterns(stages, x.Len(), &scratch{}), maskPatterns(stages, x.Len(), &scratch{})
	if len(got) != 1 || !reflect.DeepEqual(got, want) {
		t.Fatalf("rollup-free patterns %+v, the mask path's %+v", got, want)
	}
	checkOperator(t, x, oneVar("B.S = R.S && B.I = R.I", allAggs...), detail, reasonOK)
}

// TestMixedKindLinks pins the hash path to the condition's equality: an INT 1
// equals a FLOAT 1.0 in θ, −0.0 equals +0.0 and NaN equals nothing, so a link
// between columns of different declared kinds, or between FLOAT columns, must
// not be answered from an index that matches keys by identity.
func TestMixedKindLinks(t *testing.T) {
	ints := relation.New(relation.MustSchema(
		relation.Column{Name: "K", Kind: relation.KindInt},
		relation.Column{Name: "V", Kind: relation.KindInt},
	))
	floats := relation.New(relation.MustSchema(
		relation.Column{Name: "K", Kind: relation.KindFloat},
		relation.Column{Name: "V", Kind: relation.KindInt},
	))
	for i, k := range []int64{1, 2, 2, 3, 1, 7} {
		ints.MustAppend(relation.Tuple{relation.NewInt(k), relation.NewInt(int64(10 + i))})
	}
	ints.MustAppend(relation.Tuple{relation.Null, relation.NewInt(99)})
	for i, k := range []float64{1, 2, 2.5, 3, 3, 8} {
		floats.MustAppend(relation.Tuple{relation.NewFloat(k), relation.NewInt(int64(20 + i))})
	}
	floats.MustAppend(relation.Tuple{relation.Null, relation.NewInt(98)})
	zeros := relation.New(floats.Schema)
	for i, k := range []float64{0, math.Copysign(0, -1), math.NaN(), 2.5, 0, math.NaN()} {
		zeros.MustAppend(relation.Tuple{relation.NewFloat(k), relation.NewInt(int64(30 + i))})
	}
	zeros.MustAppend(relation.Tuple{relation.Null, relation.NewInt(97)})
	data := Data{"Ints": ints, "Floats": floats, "Zeros": zeros}

	for _, c := range []struct{ base, detail string }{{"Floats", "Ints"}, {"Ints", "Floats"}, {"Zeros", "Zeros"}} {
		t.Run(c.base+" keys over "+c.detail, func(t *testing.T) {
			q := Query{
				Base: BaseQuery{Detail: c.base, Cols: []string{"K"}},
				Ops: []Operator{{Detail: c.detail, Vars: []GroupVar{{
					Aggs: []agg.Spec{{Func: agg.Count, As: "n"}, {Func: agg.Sum, Arg: "V", As: "s"}},
					Cond: expr.MustParse("B.K = R.K"),
				}}}},
			}
			loop, err := EvalCentral(q, data, false)
			if err != nil {
				t.Fatal(err)
			}
			hash, err := EvalCentral(q, data, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameRows(loop.Rows(), hash.Rows()); err != nil {
				t.Errorf("useHash on vs off: %v\nnested loop:\n%s\nhash:\n%s", err, loop, hash)
			}
			// The cross-kind matches are really there: keys 1, 2 and 3 exist on
			// both sides, the NULL keys match nothing.
			matched := 0
			for _, row := range loop.Rows() {
				if row[1].Int > 0 {
					matched++
				}
				if row[0].IsNull() && row[1].Int != 0 {
					t.Errorf("NULL key matched %d rows", row[1].Int)
				}
				// Over FLOAT keys −0.0 and +0.0 match each other, NaN nothing.
				if k := row[0]; c.detail == "Zeros" && k.Kind == relation.KindFloat && (k.Float == 0 && row[1].Int != 3 || k.Float != k.Float && row[1].Int != 0) {
					t.Errorf("key %v matched %d rows", k, row[1].Int)
				}
			}
			if matched != 3 {
				t.Errorf("%d keys matched, want 3\n%s", matched, loop)
			}
			// And a columnar partition gives the same answer, off the kernel.
			x := baseOf(t, data[c.base], "K")
			checkOperator(t, x, q.Ops[0], data[c.detail], reasonKind)
		})
	}
}

// TestKernelBlockBoundaries runs the kernels over partitions on either side
// of the block size, where the last block is empty, one row, short, exact or
// one row long, and over an X whose one link group holds more X rows than a
// block, so that the pair buffer fills and flushes in the middle of a block.
// Plain, rollup and cube θ's, and their base rows, must match the scalar path.
func TestKernelBlockBoundaries(t *testing.T) {
	const b = blockRows
	for _, rows := range []int{0, 1, b - 1, b, b + 1, 3*b + 7} {
		t.Run(fmt.Sprint(rows), func(t *testing.T) {
			detail := withSpreadKeys(withWideInts(kernelDetail(int64(rows), rows)))
			for _, bq := range []BaseQuery{
				{Cols: []string{"S"}, Where: expr.MustParse("R.F >= 0.5")},
				{Cols: []string{"I", "T"}, Where: expr.MustParse("R.V < 20")},
				{Cols: []string{"E", "W"}, Where: expr.MustParse("R.V < 20")},
				{Cols: []string{"S", "I"}, GroupingSets: [][]string{{"S", "I"}, {"S"}, {}}},
				{Cols: []string{"S", "I", "T"}, GroupingSets: cubeSets("S", "I", "T")},
			} {
				bq.Detail = "D"
				checkBase(t, bq, detail, reasonOK)
			}
			checkOperator(t, baseOf(t, detail, "S"), oneVar("B.S = R.S && R.V > 3", allAggs...), detail, reasonOK)
			checkOperator(t, baseOf(t, detail, "I", "S"), oneVar("B.I = R.I && B.S = R.S && R.F < 100", allAggs...), detail, reasonOK)
			checkOperator(t, baseOf(t, detail, "S", "W"), oneVar("B.S = R.S && B.W = R.W && R.V > 3", allAggs...), detail, reasonOK)
			checkOperator(t, baseOf(t, detail, "E"), oneVar("B.E = R.E && R.F < 100", allAggs...), detail, reasonOK)
			checkOperator(t, baseOf(t, detail, "U", "N"), oneVar("B.U = R.U && B.N = R.N && R.V > 3", allAggs...), detail, reasonOK)
			checkOperator(t, setsOf(t, detail, []string{"S", "I"}, []string{"S", "I"}, []string{"S"}, []string{}),
				oneVar(rollupCond("S", "I"), allAggs...), detail, reasonOK)
			checkOperator(t, setsOf(t, detail, []string{"S", "I", "T"}, cubeSets("S", "I", "T")...),
				oneVar(rollupCond("S", "I", "T")+" && R.V >= 0", allAggs...), detail, reasonOK)

			// b+5 X rows share the link value "a", each with its own
			// threshold: one detail row in that group yields more pairs than
			// the buffer holds. The nested loop would take too long here, so
			// only the scalar hash path is the reference.
			wide := relation.New(relation.MustSchema(relation.Column{Name: "S", Kind: relation.KindString}))
			for i := 0; i < b+5; i++ {
				wide.MustAppend(relation.Tuple{relation.NewString("a")})
			}
			wide = withRows(wide, relation.Tuple{relation.NewString("b")}, relation.Tuple{relation.Null})
			wide = withColumn(wide, relation.Column{Name: "k", Kind: relation.KindInt}, func(i int) relation.Value {
				return relation.NewInt(int64(i%37) - 10)
			})
			for _, cond := range []string{"B.S = R.S", "B.S = R.S && R.V <= B.k"} {
				op := oneVar(cond, allAggs...)
				scalar, err := AccumulateOperator(context.Background(), wide, op, SourceOf(detail), true)
				if err != nil {
					t.Fatal(err)
				}
				src := newColSource(detail)
				kernel, err := AccumulateOperator(src.ctx(), wide, op, src, true)
				if err != nil {
					t.Fatal(err)
				}
				checkScanPath(t, src, reasonOK, 1)
				if err := sameAccum(scalar, kernel); err != nil {
					t.Errorf("%s over a group wider than a block: %v", cond, err)
				}
			}
		})
	}
}

// TestKernelSpecialFloatsUnderEveryOperator pins each operator's compiled
// filter to the scalar comparison where floats are special: X's threshold column holds NaN,
// ±Inf, −0 and +0 beside ordinary values and NULLs, and the detail floats
// hold ±Inf and −0. Under Value.Compare a NaN orders as equal to everything,
// so <=, >= and <> hold on it and <, > and = do not. Every operator, with the
// detail operand on either side and against literals too, must match the
// scalar path, for an X built by appending rows and for the same X decoded
// from its frame, as a site receives it.
func TestKernelSpecialFloatsUnderEveryOperator(t *testing.T) {
	detail := kernelDetail(31, 700)
	vecs, n := detail.Columns().Vecs, detail.Len()
	for i := 0; i < n; i++ {
		switch i % 9 {
		case 0:
			vecs[4].Set(i, n, relation.NewFloat(math.Inf(1)))
		case 1:
			vecs[4].Set(i, n, relation.NewFloat(math.Inf(-1)))
		case 2:
			vecs[5].Set(i, n, relation.NewFloat(math.Inf(1-2*(i%2))))
		}
	}
	special := []relation.Value{
		relation.NewFloat(math.NaN()), relation.NewFloat(math.Inf(1)), relation.NewFloat(math.Inf(-1)),
		relation.NewFloat(math.Copysign(0, -1)), relation.NewFloat(0), relation.Null,
	}
	rows := withColumn(baseOf(t, detail, "S"), relation.Column{Name: "m", Kind: relation.KindFloat}, func(i int) relation.Value {
		if i < len(special) {
			return special[i]
		}
		return relation.NewFloat(float64(i*53%300) - 120.5)
	})
	// Every special value against every key, so each meets every detail row.
	for _, key := range []string{"a", "b", "c", "d"} {
		for _, v := range special {
			rows = withRows(rows, relation.Tuple{relation.NewString(key), v})
		}
	}
	frame, err := relation.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := relation.Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	want, got := rows.Rows(), decoded.Rows()
	if len(got) != len(want) {
		t.Fatalf("decoded X has %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if !got[i][j].Identical(want[i][j]) {
				t.Fatalf("decoded X row %d col %d: %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	aggs := []agg.Spec{{Func: agg.Count, As: "n"}, {Func: agg.Sum, Arg: "F", As: "sf"}, {Func: agg.Min, Arg: "P", As: "lo"}}
	for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
		for _, cond := range []string{
			"B.S = R.S && R.F " + op + " B.m",
			"B.S = R.S && B.m " + op + " R.P",
			"B.S = R.S && B.m " + op + " R.V",
			"B.S = R.S && R.F " + op + " 0",
			"B.S = R.S && R.P " + op + " 1e308",
		} {
			// "R.col = B.col" is not a residual but a link, and a FLOAT link
			// runs on the scalar path.
			reason := reasonOK
			if op == "=" && strings.Contains(cond, "B.m") {
				reason = reasonKind
			}
			for name, x := range map[string]*relation.Relation{"columnar X": rows, "decoded X": decoded} {
				t.Run(name+": "+cond, func(t *testing.T) {
					checkOperator(t, x, oneVar(cond, aggs...), detail, reason)
				})
			}
		}
	}
}
