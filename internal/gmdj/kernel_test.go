package gmdj

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"skalla/internal/agg"
	"skalla/internal/expr"
	"skalla/internal/relation"
)

// colSource is a ColumnSource over a materialized relation, split exactly as
// relSource splits, so the scalar and kernel paths shard identically. It
// keeps the accounts the evaluator reports to a scanAccountant.
type colSource struct {
	RowSource
	cols *relation.Columns
	lo   int
	acct *scanAccounts // shared with the shards
}

type scanAccounts struct {
	charged      atomic.Int64 // rows charged by kernel passes
	path, reason string       // of the last evaluation
	passes       int          // over all evaluations
}

func newColSource(rel *relation.Relation) colSource {
	return colSource{RowSource: SourceOf(rel), cols: relation.BuildColumns(rel), acct: new(scanAccounts)}
}

func (s colSource) Split(n int) []RowSource {
	shards := s.RowSource.(SplittableSource).Split(n)
	lo := s.lo
	for w, sh := range shards {
		shards[w] = colSource{RowSource: sh, cols: s.cols, lo: lo, acct: s.acct}
		lo += sh.Len()
	}
	return shards
}
func (s colSource) ColumnRange() (*relation.Columns, int, int) { return s.cols, s.lo, s.lo + s.Len() }
func (s colSource) ChargeColumnScan()                          { s.acct.charged.Add(int64(s.Len())) }
func (s colSource) NoteScanPath(path, reason string, passes int) {
	s.acct.path, s.acct.reason = path, reason
	s.acct.passes += passes
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
// every base row's AppendPhysRow (the H_i payload — boxed from the typed slabs
// on the kernel's side) and ExtendRow (physical and derived cells), cell for
// cell.
func sameAccum(scalar, kernel *OperatorAccum) error {
	if len(scalar.Layouts) != len(kernel.Layouts) {
		return fmt.Errorf("%d variables vs %d", len(scalar.Layouts), len(kernel.Layouts))
	}
	if len(scalar.Touched) != len(kernel.Touched) {
		return fmt.Errorf("%d base rows vs %d", len(scalar.Touched), len(kernel.Touched))
	}
	base := relation.Tuple{relation.NewString("b")}
	for i := range scalar.Touched {
		if scalar.Touched[i] != kernel.Touched[i] {
			return fmt.Errorf("Touched[%d]: %v vs %v", i, scalar.Touched[i], kernel.Touched[i])
		}
		s, k := scalar.AppendPhysRow(nil, i), kernel.AppendPhysRow(nil, i)
		if err := sameRows([]relation.Tuple{s}, []relation.Tuple{k}); err != nil {
			return fmt.Errorf("AppendPhysRow(%d): %w", i, err)
		}
		s, k = scalar.ExtendRow(base, i), kernel.ExtendRow(base, i)
		if err := sameRows([]relation.Tuple{s}, []relation.Tuple{k}); err != nil {
			return fmt.Errorf("ExtendRow(%d): %w", i, err)
		}
	}
	return nil
}

var kernelTestWorkers = []int{1, 2, 4, 7}

// checkScanPath demands that the one evaluation src went through reported
// passes detail passes under reason — reasonOK means the kernel ran.
func checkScanPath(t *testing.T, src colSource, reason string, passes int) {
	t.Helper()
	path := pathScalar
	if reason == reasonOK {
		path = pathKernel
	}
	if a := src.acct; a.path != path || a.reason != reason || a.passes != passes {
		t.Errorf("reported %d passes as %s/%s, want %d as %s/%s", a.passes, a.path, a.reason, passes, path, reason)
	}
}

// checkOperator evaluates op over detail on the scalar path (a row source)
// and through a column source, and demands identical accumulators — from the
// literal nested loop too when the kernel ran. reason is
// the scan-path reason the column source must be counted under: reasonOK
// means the kernel ran.
func checkOperator(t *testing.T, x *relation.Relation, op Operator, detail *relation.Relation, reason string) {
	t.Helper()
	for _, workers := range kernelTestWorkers {
		scalar, err := AccumulateOperatorWorkers(x, op, SourceOf(detail), true, workers)
		if err != nil {
			t.Fatalf("workers=%d scalar: %v", workers, err)
		}
		src := newColSource(detail)
		kernel, err := AccumulateOperatorWorkers(x, op, src, true, workers)
		if err != nil {
			t.Fatalf("workers=%d column source: %v", workers, err)
		}
		checkScanPath(t, src, reason, len(op.Vars))
		if err := sameAccum(scalar, kernel); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
		if reason == reasonOK {
			loop, err := AccumulateOperatorWorkers(x, op, SourceOf(detail), false, workers)
			if err != nil {
				t.Fatalf("workers=%d nested loop: %v", workers, err)
			}
			if err := sameAccum(loop, kernel); err != nil {
				t.Errorf("workers=%d: nested loop: %v", workers, err)
			}
			if got, want := src.acct.charged.Load(), int64(len(op.Vars)*detail.Len()); got != want {
				t.Errorf("workers=%d: kernel charged %d rows, want %d", workers, got, want)
			}
		}
	}
}

func checkBase(t *testing.T, bq BaseQuery, detail *relation.Relation, reason string) *relation.Relation {
	t.Helper()
	var out *relation.Relation
	for _, workers := range kernelTestWorkers {
		scalar, err := EvalBaseWorkers(bq, SourceOf(detail), workers)
		if err != nil {
			t.Fatalf("workers=%d scalar: %v", workers, err)
		}
		src := newColSource(detail)
		kernel, err := EvalBaseWorkers(bq, src, workers)
		if err != nil {
			t.Fatalf("workers=%d column source: %v", workers, err)
		}
		checkScanPath(t, src, reason, 1)
		if !scalar.Schema.Equal(kernel.Schema) {
			t.Errorf("workers=%d: schema %s vs %s", workers, scalar.Schema, kernel.Schema)
		}
		if err := sameRows(scalar.Tuples, kernel.Tuples); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
		if reason == reasonOK && src.acct.charged.Load() != int64(detail.Len()) {
			t.Errorf("workers=%d: kernel charged %d rows, want %d", workers, src.acct.charged.Load(), detail.Len())
		}
		out = scalar
	}
	return out
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
	x, err := EvalBase(BaseQuery{Detail: "D", Cols: cols}, SourceOf(detail))
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// setsOf is baseOf under grouping sets: the union of the NULL-padded distinct
// projections of cols, one per set.
func setsOf(t *testing.T, detail *relation.Relation, cols []string, sets ...[]string) *relation.Relation {
	t.Helper()
	x, err := EvalBase(BaseQuery{Detail: "D", Cols: cols, GroupingSets: sets}, SourceOf(detail))
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
	out := relation.New(x.Schema)
	for _, t := range x.Tuples {
		if keep(t) {
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out
}

// withRows returns x with rows appended.
func withRows(x *relation.Relation, rows ...relation.Tuple) *relation.Relation {
	out := relation.New(x.Schema)
	out.Tuples = append(append(out.Tuples, x.Tuples...), rows...)
	return out
}

// withColumn returns x with one more column appended.
func withColumn(x *relation.Relation, col relation.Column, val func(i int) relation.Value) *relation.Relation {
	out := relation.New(append(x.Schema.Clone(), col))
	for i, t := range x.Tuples {
		out.Tuples = append(out.Tuples, append(t.Clone(), val(i)))
	}
	return out
}

func TestKernelOperatorMatchesScalar(t *testing.T) {
	detail := kernelDetail(1, 500)
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

// TestKernelRowsBoxedFromSlabs pins how a site reads a compiled evaluation: the
// accumulator keeps the kernel's typed slabs — nothing is boxed until a row is
// asked for — and AppendPhysRow, writing into a row carved from a caller's
// slab as engine.Site.EvalOperatorBlocks does, produces the scalar path's
// cells bit for bit: COUNT 0 and NULL for untouched rows, INT and FLOAT sums,
// minima and order-dependent FLOAT sums alike, across two variables.
func TestKernelRowsBoxedFromSlabs(t *testing.T) {
	detail := kernelDetail(23, 900)
	x := withRows(baseOf(t, detail, "S"), relation.Tuple{relation.NewString("no such key")})
	op := Operator{Detail: "D", Vars: []GroupVar{
		{Cond: expr.MustParse("B.S = R.S"), Aggs: allAggs},
		{Cond: expr.MustParse("B.S = R.S && R.V >= 5"), Aggs: []agg.Spec{
			{Func: agg.Sum, Arg: "P", As: "sp2"}, {Func: agg.Avg, Arg: "F", As: "af2"}, {Func: agg.Min, Arg: "P", As: "lo2"},
		}},
	}}
	for _, workers := range kernelTestWorkers {
		scalar, err := AccumulateOperatorWorkers(x, op, SourceOf(detail), true, workers)
		if err != nil {
			t.Fatal(err)
		}
		kernel, err := AccumulateOperatorWorkers(x, op, newColSource(detail), true, workers)
		if err != nil {
			t.Fatal(err)
		}
		if kernel.slabs == nil || kernel.accs != nil || scalar.slabs != nil {
			t.Fatalf("workers=%d: the kernel's accumulator must hold slabs only, the scalar one tuples only", workers)
		}
		phys, err := kernel.PhysSchema()
		if err != nil {
			t.Fatal(err)
		}
		w := 1 + len(phys)
		slab := make([]relation.Value, x.Len()*w)
		for i := range x.Tuples {
			row := slab[i*w : i*w+1 : (i+1)*w]
			got := kernel.AppendPhysRow(row, i)
			if &got[0] != &slab[i*w] {
				t.Fatalf("workers=%d row %d: AppendPhysRow left the row it was given", workers, i)
			}
			want := scalar.AppendPhysRow(make(relation.Tuple, 1, w), i)
			if err := sameRows([]relation.Tuple{want}, []relation.Tuple{got}); err != nil {
				t.Errorf("workers=%d row %d: %v", workers, i, err)
			}
		}
	}
}

func TestKernelOperatorFallsBack(t *testing.T) {
	detail := kernelDetail(2, 200)
	count := agg.Spec{Func: agg.Count, As: "n"}

	// A column holding a value of the wrong kind stays boxed.
	boxed := kernelDetail(2, 200)
	boxed.Tuples[17][3] = relation.NewFloat(2.5)
	// A FLOAT-declared key against the INT detail column.
	floatKeys := relation.New(relation.MustSchema(relation.Column{Name: "I", Kind: relation.KindFloat}))
	for _, f := range []float64{0, 1, 2.5} {
		floatKeys.MustAppend(relation.Tuple{relation.NewFloat(f)})
	}
	// An INT-declared key column that holds a FLOAT.
	strayKeys := baseOf(t, detail, "I")
	strayKeys.Tuples[0][0] = relation.NewFloat(1)
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
		{"key value off its declared kind", strayKeys, oneVar("B.I = R.I", count), detail, reasonKind},
		{"boxed aggregate argument", baseOf(t, boxed, "S"), oneVar("B.S = R.S", agg.Spec{Func: agg.Sum, Arg: "V", As: "s"}), boxed, reasonKind},
		{"boxed residual column", baseOf(t, boxed, "S"), oneVar("B.S = R.S && R.V > 3", count), boxed, reasonKind},
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
		if _, err := AccumulateOperator(baseOf(t, detail, "S"), oneVar("B.S = R.S", count), src, false); err != nil {
			t.Fatal(err)
		}
		checkScanPath(t, src, reasonShape, 1)
	})
}

func TestKernelBaseMatchesScalar(t *testing.T) {
	detail := kernelDetail(4, 600)
	empty := relation.New(kernelSchema)
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
// row source evaluate to the same bytes at any worker count.
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
		workers := 1 + rng.Intn(5)
		x, err := EvalBaseWorkers(bq, SourceOf(detail), workers)
		if err != nil {
			t.Log(err)
			return false
		}
		xk, err := EvalBaseWorkers(bq, newColSource(detail), workers)
		if err != nil || sameRows(x.Tuples, xk.Tuples) != nil {
			t.Logf("seed %d: base differs (%v)", seed, err)
			return false
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
				x = withRows(x, x.Tuples[rng.Intn(x.Len())])
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
		scalar, err := AccumulateOperatorWorkers(x, op, SourceOf(detail), true, workers)
		if err != nil {
			t.Logf("seed %d: %s: %v", seed, cond, err)
			return false
		}
		src := newColSource(detail)
		kernel, err := AccumulateOperatorWorkers(x, op, src, true, workers)
		if err != nil {
			t.Logf("seed %d: %s: %v", seed, cond, err)
			return false
		}
		if src.acct.path == pathKernel {
			compiled++
		}
		if err := sameAccum(scalar, kernel); err != nil {
			t.Logf("seed %d: workers=%d %s: %v", seed, workers, cond, err)
			return false
		}
		return true
	}
	const runs = 300
	if err := quick.Check(property, &quick.Config{MaxCount: runs}); err != nil {
		t.Error(err)
	}
	if compiled != runs {
		t.Errorf("%d of %d generated operators compiled; the property only means something when they do", compiled, runs)
	}
}

// TestMixedKindLinks pins the hash path to the condition's equality: an INT 1
// equals a FLOAT 1.0 in θ, so a link between columns of different declared
// kinds must not be answered from an index that matches keys by identity.
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
	data := Data{"Ints": ints, "Floats": floats}

	for _, c := range []struct{ base, detail string }{{"Floats", "Ints"}, {"Ints", "Floats"}} {
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
			if err := sameRows(loop.Tuples, hash.Tuples); err != nil {
				t.Errorf("useHash on vs off: %v\nnested loop:\n%s\nhash:\n%s", err, loop, hash)
			}
			// The cross-kind matches are really there: keys 1, 2 and 3 exist on
			// both sides, the NULL keys match nothing.
			matched := 0
			for _, row := range loop.Tuples {
				if row[1].Int > 0 {
					matched++
				}
				if row[0].IsNull() && row[1].Int != 0 {
					t.Errorf("NULL key matched %d rows", row[1].Int)
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
