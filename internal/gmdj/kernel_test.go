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

func sameAccum(scalar, kernel *OperatorAccum) error {
	if len(scalar.Accs) != len(kernel.Accs) {
		return fmt.Errorf("%d variables vs %d", len(scalar.Accs), len(kernel.Accs))
	}
	for vi := range scalar.Accs {
		if err := sameRows(scalar.Accs[vi], kernel.Accs[vi]); err != nil {
			return fmt.Errorf("variable %d: %w", vi, err)
		}
	}
	for i := range scalar.Touched {
		if scalar.Touched[i] != kernel.Touched[i] {
			return fmt.Errorf("Touched[%d]: %v vs %v", i, scalar.Touched[i], kernel.Touched[i])
		}
	}
	return nil
}

var kernelTestWorkers = []int{1, 2, 7}

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
// and through a column source, and demands identical accumulators. reason is
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
		{"several variables", baseOf(t, detail, "S", "I"), Operator{Detail: "D", Vars: []GroupVar{
			{Aggs: []agg.Spec{{Func: agg.Count, As: "n1"}, {Func: agg.Sum, Arg: "F", As: "s1"}}, Cond: expr.MustParse("B.S = R.S")},
			{Aggs: []agg.Spec{{Func: agg.Count, As: "n2"}, {Func: agg.Avg, Arg: "V", As: "a2"}}, Cond: expr.MustParse("B.I = R.I && R.V > 0")},
			{Aggs: []agg.Spec{{Func: agg.Max, Arg: "P", As: "m3"}}, Cond: expr.MustParse("B.S = R.S && B.I = R.I")},
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
	checkOperator(t, baseOf(t, r, "G"), oneVar("B.G = R.G",
		agg.Spec{Func: agg.Sum, Arg: "F", As: "s"}, agg.Spec{Func: agg.Variance, Arg: "F", As: "v"}), r, reasonOK)
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
		{"rollup", baseOf(t, detail, "S"), oneVar("B.S IS NULL || B.S = R.S", count), detail, reasonShape},
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
		{"grouping sets", BaseQuery{Cols: []string{"S", "I"}, GroupingSets: [][]string{{"S", "I"}, {"S"}, {}}}, detail, reasonShape},
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
// relations, base fragments and conjunctive conditions, a column source and a
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
		// Link a random non-empty subset of the keys; the rest make X rows
		// share link values.
		cond := ""
		for i, k := range keys {
			if i == 0 || rng.Intn(3) != 0 {
				if cond != "" {
					cond += " && "
				}
				cond += fmt.Sprintf("B.%s = R.%s", k, k)
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
