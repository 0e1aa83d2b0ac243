package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"skalla/internal/agg"
	"skalla/internal/expr"
	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/relation"
	"skalla/internal/store"
)

// diskRel is kernelRel's schema over n rows whose keys are NULL now and then
// — S every 17th row, K every 13th — so some segments carry NULL bitmaps and
// others do not, and whose P values span sixty binary orders of magnitude,
// so a FLOAT sum comes out bit-identical only when its inputs are added in
// the same order.
func diskRel(n int) *relation.Relation {
	r := relation.New(kernelRel(0).Schema)
	for i := 0; i < n; i++ {
		s, k := relation.NewString(fmt.Sprintf("s%d", i*7%11)), relation.NewInt(int64(i*3%8)*10)
		if i%17 == 5 {
			s = relation.Null
		}
		if i%13 == 4 {
			k = relation.Null
		}
		r.MustAppend(relation.Tuple{s, k,
			relation.NewFloat(math.Exp(float64(i*37%60) - 30)),
			relation.NewFloat(float64(i%11) / 100),
		})
	}
	return r
}

// diskSite serves rel from a store.Table of segmentRows-row segments.
func diskSite(t *testing.T, rel *relation.Relation, segmentRows int) *Site {
	t.Helper()
	tbl, err := store.CreateFrom(t.TempDir(), "Flow", rel, segmentRows)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSite(1)
	if err := s.LoadSource("Flow", tbl); err != nil {
		t.Fatal(err)
	}
	return s
}

// siteEval is one request to a site, and the detail passes it makes.
type siteEval struct {
	name   string
	run    func(context.Context, *Site) (*relation.Relation, error)
	passes int64
}

// scanPaths reads skalla_engine_scan_path_total under every label.
func scanPaths() map[[2]string]int64 {
	out := map[[2]string]int64{}
	for _, l := range [][2]string{{"kernel", "ok"}, {"scalar", "shape"}, {"scalar", "kind"}} {
		out[l] = obs.EngineScanPath.With(l[0], l[1]).Value()
	}
	return out
}

// checkDiskEval runs e on the Load-ed site mem and on disk and demands
// byte-identical replies, and that disk counted exactly e.passes detail passes,
// all under path/reason.
func checkDiskEval(t *testing.T, mem, disk *Site, e siteEval, path, reason string) {
	t.Helper()
	ctx := context.Background()
	want, err := e.run(ctx, mem)
	if err != nil {
		t.Fatalf("%s on the Load-ed site: %v", e.name, err)
	}
	before := scanPaths()
	got, err := e.run(ctx, disk)
	if err != nil {
		t.Fatalf("%s on the disk site: %v", e.name, err)
	}
	for l, n := range scanPaths() {
		wantPasses := int64(0)
		if l == [2]string{path, reason} {
			wantPasses = e.passes
		}
		if n-before[l] != wantPasses {
			t.Errorf("%s: %s/%s counted %d passes, want %d", e.name, l[0], l[1], n-before[l], wantPasses)
		}
	}
	if got.Format(-1) != want.Format(-1) {
		t.Errorf("%s: the disk site's reply differs from the Load-ed site's\n%.2000s\nvs\n%.2000s", e.name, got.Format(-1), want.Format(-1))
	}
}

// TestDiskBackedSiteEquivalence: a site serving its partition from a
// disk-backed store answers every base, operator and local request exactly as
// a site serving the same rows from memory — byte for byte, whether each
// segment holds one row, a few or all of them — and every one of its detail
// passes runs the compiled kernel, unless a condition's shape refuses it.
func TestDiskBackedSiteEquivalence(t *testing.T) {
	ctx := context.Background()
	rel := diskRel(300)
	mem := NewSite(0)
	if err := mem.Load(ctx, "Flow", rel); err != nil {
		t.Fatal(err)
	}
	cube := gmdj.BaseQuery{Detail: "Flow", Cols: []string{"S", "K"},
		GroupingSets: [][]string{{"S", "K"}, {"S"}, {"K"}, {}}}
	bases := []gmdj.BaseQuery{
		{Detail: "Flow", Cols: []string{"S", "K"}},
		{Detail: "Flow", Cols: []string{"K"}},
		{Detail: "Flow", Cols: []string{"S"}, Where: expr.MustParse("R.D >= 0.03 && R.K < 50")},
		cube,
		{Detail: "Flow", Cols: []string{"K", "S"}, GroupingSets: [][]string{{"K", "S"}, {"K"}, {}}},
	}
	var evals []siteEval
	for i, bq := range bases {
		evals = append(evals, siteEval{fmt.Sprintf("base %d", i), func(ctx context.Context, s *Site) (*relation.Relation, error) {
			return s.EvalBase(ctx, bq)
		}, 1})
	}

	// Each operator's X is the Load-ed site's base plus a row no detail row
	// matches, which only an unguarded reply carries.
	x := func(bq gmdj.BaseQuery, extra relation.Tuple) *relation.Relation {
		b, err := mem.EvalBase(ctx, bq)
		if err != nil {
			t.Fatal(err)
		}
		b = b.Clone()
		b.MustAppend(extra)
		return b
	}
	aggs := []agg.Spec{{Func: agg.Count, As: "cnt"}, {Func: agg.Sum, Arg: "P", As: "sp"}, {Func: agg.Avg, Arg: "P", As: "ap"}}
	one := func(cond string) gmdj.Operator {
		return gmdj.Operator{Detail: "Flow", Vars: []gmdj.GroupVar{{Cond: expr.MustParse(cond), Aggs: aggs}}}
	}
	ops := []struct {
		name string
		x    *relation.Relation
		op   gmdj.Operator
	}{
		{"STRING link", x(bases[2], relation.Tuple{relation.NewString("none")}), one("B.S = R.S")},
		{"INT link and a residual", x(bases[1], relation.Tuple{relation.NewInt(-1)}), one("B.K = R.K && R.P >= 0.001")},
		{"two links, two variables", x(bases[0], relation.Tuple{relation.NewString("s1"), relation.NewInt(-1)}), gmdj.Operator{Detail: "Flow", Vars: []gmdj.GroupVar{
			{Cond: expr.MustParse("B.S = R.S && B.K = R.K"), Aggs: aggs},
			{Cond: expr.MustParse("B.S = R.S && R.D < 0.05"), Aggs: []agg.Spec{{Func: agg.Min, Arg: "P", As: "lo"}, {Func: agg.Max, Arg: "D", As: "hi"}}},
		}}},
		{"rollup links", x(cube, relation.Tuple{relation.NewString("none"), relation.Null}), one("(B.S IS NULL || B.S = R.S) && (B.K IS NULL || B.K = R.K)")},
	}
	// Each operator again with an OR residual the kernel compiler refuses: the
	// site reads the same segments as rows.
	orResidual := expr.MustParse("R.P >= 0.001 || R.D < 0.05")
	opEval := func(name string, req OperatorRequest) siteEval {
		return siteEval{name, func(ctx context.Context, s *Site) (*relation.Relation, error) {
			return s.EvalOperator(ctx, req)
		}, int64(len(req.Op.Vars))}
	}
	var opEvals, refusedEvals []siteEval
	for _, o := range ops {
		refused := gmdj.Operator{Detail: o.op.Detail}
		for _, v := range o.op.Vars {
			refused.Vars = append(refused.Vars, gmdj.GroupVar{Cond: &expr.Bin{Op: expr.OpAnd, L: v.Cond, R: orResidual}, Aggs: v.Aggs})
		}
		for _, guard := range []bool{false, true} {
			name := fmt.Sprintf("%s, guard %v", o.name, guard)
			opEvals = append(opEvals, opEval(name, OperatorRequest{Base: o.x, Op: o.op, Guard: guard, BlockRows: 5}))
			refusedEvals = append(refusedEvals, opEval(name, OperatorRequest{Base: o.x, Op: refused, Guard: guard, BlockRows: 5}))
		}
	}
	evals = append(evals, opEvals...)
	// A local round over a table of one segment folds MD1 into its base
	// pass; over several segments it runs the two.
	locals := func(oneImage bool) []siteEval {
		var out []siteEval
		for _, key := range []string{"S", "K"} {
			for upTo := 0; upTo <= 2; upTo++ {
				req := LocalRequest{Query: example1(key), UpTo: upTo}
				passes := int64(1 + upTo)
				if oneImage && upTo > 0 {
					passes--
				}
				out = append(out, siteEval{fmt.Sprintf("local example 1 on %s, up to MD%d", key, upTo), func(ctx context.Context, s *Site) (*relation.Relation, error) {
					return s.EvalLocal(ctx, req)
				}, passes})
			}
		}
		return out
	}

	for _, size := range []int{1, 3, 4096} {
		t.Run(fmt.Sprintf("segments of %d rows", size), func(t *testing.T) {
			disk := diskSite(t, rel, size)
			for _, e := range append(evals, locals(size >= rel.Len())...) {
				checkDiskEval(t, mem, disk, e, "kernel", "ok")
			}
			for _, e := range refusedEvals {
				checkDiskEval(t, mem, disk, e, "scalar", "shape")
			}
		})
	}
}

// TestDiskNaNSegmentRunsCompiled: a disk table whose segments hold NaN, ±0
// and ±Inf in the FLOAT column an evaluation folds compiles every segment,
// and answers as the Load-ed site does.
func TestDiskNaNSegmentRunsCompiled(t *testing.T) {
	ctx := context.Background()
	rel := diskRel(300)
	pi := rel.Schema.MustIndex("P")
	for i, f := range map[int]float64{151: math.NaN(), 152: math.Inf(1), 200: math.Inf(-1), 201: math.Copysign(0, -1), 260: math.NaN()} {
		rel.Columns().Vecs[pi].Set(i, rel.Len(), relation.NewFloat(f))
	}
	mem := NewSite(0)
	if err := mem.Load(ctx, "Flow", rel); err != nil {
		t.Fatal(err)
	}
	disk := diskSite(t, rel, 3)
	x, err := mem.EvalBase(ctx, gmdj.BaseQuery{Detail: "Flow", Cols: []string{"S"}})
	if err != nil {
		t.Fatal(err)
	}
	op := gmdj.Operator{Detail: "Flow", Vars: []gmdj.GroupVar{{Cond: expr.MustParse("B.S = R.S"), Aggs: []agg.Spec{
		{Func: agg.Sum, Arg: "P", As: "sp"}, {Func: agg.Min, Arg: "P", As: "lo"}, {Func: agg.Max, Arg: "P", As: "hi"}, {Func: agg.Avg, Arg: "P", As: "ap"},
	}}}}
	checkDiskEval(t, mem, disk, siteEval{"aggregates over NaN and infinities", func(ctx context.Context, s *Site) (*relation.Relation, error) {
		return s.EvalOperator(ctx, OperatorRequest{Base: x, Op: op})
	}, 1}, "kernel", "ok")
}

// TestOffKindInputIsRefusedAtLoad: a partition holding a cell off its
// column's kind does not reach a scan. Load refuses a hand-built BOOL vector
// holding 2 with an *relation.ErrOffKind naming the column and the row, and
// a disk table loaded with LoadSource whose segment an older build wrote
// with a mixed column fails its first evaluation naming the segment file.
func TestOffKindInputIsRefusedAtLoad(t *testing.T) {
	ctx := context.Background()
	schema := relation.MustSchema(relation.Column{Name: "K", Kind: relation.KindInt}, relation.Column{Name: "ok", Kind: relation.KindBool})
	raw := relation.FromColumns(schema, &relation.Columns{Rows: 2, Vecs: []relation.Vector{
		{Kind: relation.KindInt, Ints: []int64{1, 2}}, {Kind: relation.KindBool, Ints: []int64{1, 2}}}})
	var off *relation.ErrOffKind
	if err := NewSite(0).Load(ctx, "Flow", raw); !errors.As(err, &off) || off.Column != "ok" || off.Row != 1 {
		t.Errorf("Load = %v, want an *relation.ErrOffKind naming column ok row 1", err)
	}

	dir := t.TempDir()
	if _, err := store.CreateFrom(dir, "Flow", diskRel(2), 0); err != nil {
		t.Fatal(err)
	}
	// The segment's first columns as versions before 7 wrote a K holding a
	// FLOAT: an inline frame of 2 rows, S uniform, K mixed.
	body := append(relation.AppendSchema([]byte{0x01}, diskRel(0).Schema), 2, 0x00, 0x00)
	body = append(relation.AppendString(relation.AppendString(body, "a"), "b"), 0x00, 0x01)
	body = relation.AppendValue(relation.AppendValue(body, relation.NewInt(2)), relation.NewFloat(1.5))
	if err := os.WriteFile(filepath.Join(dir, "seg00000.seg"), append(binary.AppendUvarint(nil, uint64(len(body))), body...), 0o644); err != nil {
		t.Fatal(err)
	}
	tbl, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	disk := NewSite(1)
	if err := disk.LoadSource("Flow", tbl); err != nil {
		t.Fatal(err)
	}
	_, err = disk.EvalBase(ctx, gmdj.BaseQuery{Detail: "Flow", Cols: []string{"S"}})
	if err == nil || !strings.Contains(err.Error(), "seg00000.seg") || !strings.Contains(err.Error(), "encoding 0x01") {
		t.Errorf("an evaluation over a mixed segment = %v, want it refused naming the file", err)
	}
}

func TestLoadSourceValidation(t *testing.T) {
	s := NewSite(0)
	if err := s.LoadSource("T", nil); err == nil {
		t.Error("nil source must error")
	}
	part, err := newMemPartition(flowRel())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadSource("", part); err == nil {
		t.Error("empty name must error")
	}
}
