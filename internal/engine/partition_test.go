package engine

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"skalla/internal/agg"
	"skalla/internal/egil"
	"skalla/internal/expr"
	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/relation"
	"skalla/internal/store"
	"skalla/internal/tpc"
)

// TestKernelAndScalarSitesAgree serves one partition three ways — Load (the
// columnar image), a disk-backed store.Table (one image per segment; both run
// the kernel) and Load under an OR residual the kernel compiler refuses (the
// scalar path for every operator pass) — and demands the same replies from
// all three, and from Def. 1's literal loop for the local request, the same
// rows charged to the request recorder and to
// skalla_engine_rows_scanned_total on both paths, and a profile that says
// which path ran.
func TestKernelAndScalarSitesAgree(t *testing.T) {
	rel := bigFlowRel(5000)
	tbl, err := store.CreateFrom(t.TempDir(), "Flow", rel, 512)
	if err != nil {
		t.Fatal(err)
	}
	sites := map[string]*Site{"load": NewSite(0), "disk": NewSite(1)}
	if err := sites["load"].Load(context.Background(), "Flow", rel); err != nil {
		t.Fatal(err)
	}
	if err := sites["disk"].LoadSource("Flow", tbl); err != nil {
		t.Fatal(err)
	}
	sites["shape"] = sites["load"]
	op := countOp("B.SAS = R.SAS && R.NB >= 100") // on "shape", the same rows under an OR the kernel refuses
	ops := map[string]gmdj.Operator{"load": op, "disk": op, "shape": countOp("B.SAS = R.SAS && (R.NB >= 100 || R.NB < 0)")}

	bq := gmdj.BaseQuery{Detail: "Flow", Cols: []string{"SAS", "DAS"}}
	local := func(op gmdj.Operator) gmdj.Query { return gmdj.Query{Base: bq, Ops: []gmdj.Operator{op}} }
	requests := map[string]func(context.Context, *Site, gmdj.Operator) (*relation.Relation, error){
		"base": func(ctx context.Context, s *Site, _ gmdj.Operator) (*relation.Relation, error) {
			return s.EvalBase(ctx, bq)
		},
		"operator": func(ctx context.Context, s *Site, op gmdj.Operator) (*relation.Relation, error) {
			return s.EvalOperator(ctx, OperatorRequest{Base: baseFragment(0, 1, 2, 3, 9), Op: op})
		},
		"local": func(ctx context.Context, s *Site, op gmdj.Operator) (*relation.Relation, error) {
			return s.EvalLocal(ctx, LocalRequest{Query: local(op), UpTo: 1})
		},
	}

	type reply struct {
		text    string
		rows    int64 // process-wide counter delta
		profile obs.SiteBreakdown
	}
	for name, run := range requests {
		replies := map[string]reply{}
		for how, s := range sites {
			rec := obs.NewSiteRecorder()
			before := obs.EngineRowsScanned.Value()
			out, err := run(obs.WithRecorder(context.Background(), rec), s, ops[how])
			if err != nil {
				t.Fatalf("%s on %s: %v", name, how, err)
			}
			replies[how] = reply{out.Format(-1), obs.EngineRowsScanned.Value() - before, rec.Snapshot()}
		}
		kernel := replies["load"]
		if !kernel.profile.Kernel {
			t.Errorf("%s: Load-ed partition did not run the kernel", name)
		}
		if name == "local" {
			oracle, err := gmdj.EvalLocalReply(context.Background(), local(op), gmdj.Data{"Flow": rel}, 1, false, false)
			if err != nil || oracle.Format(-1) != kernel.text {
				t.Errorf("local: Def. 1's literal loop replies %v\n%.1500s\nvs the Load-ed site's\n%.1500s", err, oracle.Format(-1), kernel.text)
			}
		}
		for _, how := range []string{"disk", "shape"} {
			other := replies[how]
			// A base query has no operator condition: it compiles on every site.
			if want := how == "disk" || name == "base"; other.profile.Kernel != want {
				t.Errorf("%s on %s: profile says kernel %v, want %v", name, how, other.profile.Kernel, want)
			}
			if other.text != kernel.text {
				t.Errorf("%s: %s reply differs from the Load-ed site's\n%.1500s\nvs\n%.1500s", name, how, other.text, kernel.text)
			}
			if other.rows != kernel.rows || other.profile.RowsScanned != kernel.profile.RowsScanned {
				t.Errorf("%s: %s scanned %d rows (recorder %d), the Load-ed site %d (recorder %d)", name, how,
					other.rows, other.profile.RowsScanned, kernel.rows, kernel.profile.RowsScanned)
			}
		}
	}
}

// TestLoadSnapshots: rows appended to the relation after Load are served by
// neither the kernel nor the scalar path, both of which read Load's one
// image, and a relation with a row of the wrong arity is refused.
func TestLoadSnapshots(t *testing.T) {
	rel := flowRel([3]int64{1, 1, 5}, [3]int64{2, 1, 7})
	s := NewSite(0)
	if err := s.Load(context.Background(), "Flow", rel); err != nil {
		t.Fatal(err)
	}
	rel.MustAppend(relation.Tuple{relation.NewInt(3), relation.NewInt(1), relation.NewInt(9)})
	for _, cond := range []string{"B.SAS = R.SAS", "B.SAS = R.SAS && (R.NB >= 0 || R.NB < 0)"} { // kernel, then scalar
		h, err := s.EvalOperator(context.Background(), OperatorRequest{
			Base: baseFragment(1, 2, 3), Op: countOp(cond),
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := h.Rows()[2][1].Int; got != 0 {
			t.Errorf("%s: the appended row was counted %d times", cond, got)
		}
	}
	if src, _ := s.snapshot().DetailSource("Flow"); src.Len() != 2 {
		t.Errorf("Len = %d, want 2", src.Len())
	}

	flow := flowRel([3]int64{1, 1, 5})
	short := relation.FromColumns(flow.Schema, &relation.Columns{Rows: 1, Vecs: flow.Columns().Vecs[:1]})
	if err := s.Load(context.Background(), "Short", short); err == nil {
		t.Error("a row of the wrong arity was loaded")
	}
	if _, err := s.snapshot().DetailSource("Short"); err == nil {
		t.Error("a refused relation is served")
	}
}

// TestScanPathCountedAtSite: skalla_engine_scan_path_total counts the passes a
// site runs, with or without a request recorder, under the reason they ran
// where they ran — and nothing for an evaluation no site ran, such as the
// centralized oracle's over the same relation.
func TestScanPathCountedAtSite(t *testing.T) {
	rel := bigFlowRel(500)
	loaded := NewSite(0)
	if err := loaded.Load(context.Background(), "Flow", rel); err != nil {
		t.Fatal(err)
	}
	q := gmdj.Query{Base: gmdj.BaseQuery{Detail: "Flow", Cols: []string{"SAS"}}, Ops: []gmdj.Operator{countOp("B.SAS = R.SAS")}}
	local := func(s *Site) func() error {
		return func() error {
			_, err := s.EvalLocal(context.Background(), LocalRequest{Query: q, UpTo: 1})
			return err
		}
	}
	cases := []struct {
		name         string
		run          func() error
		path, reason string
		passes       int64
	}{
		{"loaded partition", local(loaded), "kernel", "ok", 1}, // the base pass folds MD1
		{"rollup condition", func() error {
			_, err := loaded.EvalOperator(context.Background(), OperatorRequest{
				Base: baseFragment(1, 2), Op: countOp("B.SAS = R.SAS || B.SAS = 1")})
			return err
		}, "scalar", "shape", 1},
		{"OR residual", func() error {
			_, err := loaded.EvalOperator(context.Background(), OperatorRequest{
				Base: baseFragment(1, 2), Op: countOp("B.SAS = R.SAS && (R.NB > 5 || R.DAS = 1)")})
			return err
		}, "scalar", "shape", 1},
		{"centralized oracle", func() error {
			_, err := gmdj.EvalCentral(q, gmdj.Data{"Flow": rel}, true)
			return err
		}, "", "", 0},
	}
	labels := [][2]string{{"kernel", "ok"}, {"scalar", "shape"}, {"scalar", "kind"}}
	for _, c := range cases {
		before := map[[2]string]int64{}
		for _, l := range labels {
			before[l] = obs.EngineScanPath.With(l[0], l[1]).Value()
		}
		if err := c.run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, l := range labels {
			want := int64(0)
			if l == [2]string{c.path, c.reason} {
				want = c.passes
			}
			if got := obs.EngineScanPath.With(l[0], l[1]).Value() - before[l]; got != want {
				t.Errorf("%s: %s/%s counted %d passes, want %d", c.name, l[0], l[1], got, want)
			}
		}
	}
}

// kernelRel is rows rows over a STRING key, an INT key and two FLOATs. Every
// key value occurs within the first 100 rows, so any two sizes from 100 up
// hold the same keys.
func kernelRel(rows int) *relation.Relation {
	r := relation.New(relation.MustSchema(
		relation.Column{Name: "S", Kind: relation.KindString},
		relation.Column{Name: "K", Kind: relation.KindInt},
		relation.Column{Name: "P", Kind: relation.KindFloat},
		relation.Column{Name: "D", Kind: relation.KindFloat},
	))
	for i := 0; i < rows; i++ {
		r.MustAppend(relation.Tuple{
			relation.NewString(fmt.Sprintf("s%d", i%7)),
			relation.NewInt(int64(i%5) * 10),
			relation.NewFloat(float64(i*7919%1000) / 10),
			relation.NewFloat(float64(i%11) / 100),
		})
	}
	return r
}

// example1 is the paper's Example 1 over kernelRel grouped on key: the
// filtered base, MD1's count and average, and MD2's rows at or above average.
func example1(key string) gmdj.Query {
	link := "B." + key + " = R." + key
	return gmdj.Query{
		Base: gmdj.BaseQuery{Detail: "Flow", Cols: []string{key}, Where: expr.MustParse("R.D >= 0.03")},
		Ops: []gmdj.Operator{
			{Detail: "Flow", Vars: []gmdj.GroupVar{{Cond: expr.MustParse(link), Aggs: []agg.Spec{
				{Func: agg.Count, As: "cnt"}, {Func: agg.Avg, Arg: "P", As: "avgp"},
			}}}},
			{Detail: "Flow", Vars: []gmdj.GroupVar{{Cond: expr.MustParse(link + " && R.P >= B.avgp"), Aggs: []agg.Spec{
				{Func: agg.Count, As: "above"},
			}}}},
		},
	}
}

// TestKernelScratchIsFlat: a compiled evaluation allocates by the size of
// the request — X, the dictionary, the groups — and never by the size of the
// partition, because its block buffers come from a kept scratch. The same
// statements over ten times the rows (holding the same keys) allocate the
// same. A pass that allocated per block of 1 024 rows would allocate 26 more
// over the larger partition, so the counts must be equal, under the race
// detector too: the free list keeps what is put back.
func TestKernelScratchIsFlat(t *testing.T) {
	ctx := context.Background()
	allocs := func(rows int) float64 {
		s := NewSite(0)
		if err := s.Load(ctx, "Flow", kernelRel(rows)); err != nil {
			t.Fatal(err)
		}
		var xs [2]*relation.Relation
		for i, key := range []string{"S", "K"} {
			var err error
			if xs[i], err = gmdj.EvalPrefixX(ctx, example1(key), s.snapshot(), 1, true); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(50, func() {
			for i, key := range []string{"S", "K"} {
				q := example1(key)
				b0, err := s.EvalBase(ctx, q.Base)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.EvalOperator(ctx, OperatorRequest{Base: b0, Op: q.Ops[0]}); err != nil {
					t.Fatal(err)
				}
				if _, err := s.EvalOperator(ctx, OperatorRequest{Base: xs[i], Op: q.Ops[1]}); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	if small, large := allocs(3000), allocs(30000); large != small {
		t.Errorf("allocations per evaluation: %v over 3000 rows, %v over 30000", small, large)
	}
}

// TestWarmKernelAllocatesOnlyResults: a site that has served a statement
// once serves it again allocating its result vectors and a small fixed
// amount besides, whatever the groups: the compiled passes build their hash
// and dense tables, link patterns and operator slabs, and the H blocks their
// row lists, in a kept scratch, grown into buffers the first run left. The
// statements are the served rollup_geo and cube_3d (the grouping-set base
// pass and MD1) and Example 1's MD2 streamed in blocks, over one site's
// partition. The garbage collector is held off while the runs are measured,
// so that it counts only what they allocate; the scratch stays warm however
// the runs move between Ps, under the race detector too.
func TestWarmKernelAllocatesOnlyResults(t *testing.T) {
	ctx := context.Background()
	cfg := tpc.DefaultConfig()
	cfg.Rows, cfg.Customers, cfg.Clerks, cfg.Seed = 8000, 2000, 1000, 1
	d, err := tpc.Generate(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSite(0)
	if err := s.Load(ctx, tpc.RelationName, d.Parts[0]); err != nil {
		t.Fatal(err)
	}
	var groupings []gmdj.Query
	for _, stmt := range []string{
		"SELECT RegionKey, NationKey, CityKey, COUNT(*) AS cnt, SUM(ExtendedPrice) AS total FROM TPCR WHERE Discount >= 0.005 ROLLUP BY RegionKey, NationKey, CityKey",
		"SELECT MktSegment, ShipMode, OrderPriority, COUNT(*) AS cnt, SUM(ExtendedPrice) AS total FROM TPCR WHERE Discount >= 0.005 CUBE BY MktSegment, ShipMode, OrderPriority",
	} {
		q, err := egil.Translate(stmt)
		if err != nil {
			t.Fatal(err)
		}
		groupings = append(groupings, q)
	}
	ex1, err := egil.Translate("SELECT Clerk, COUNT(*) AS cnt, AVG(ExtendedPrice) AS avgp FROM TPCR WHERE Discount >= 0.005 GROUP BY Clerk HAVING EACH ExtendedPrice >= avgp")
	if err != nil {
		t.Fatal(err)
	}
	x1, err := gmdj.EvalPrefixX(ctx, ex1, s.snapshot(), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	// serve runs every statement once and returns the bytes of the result
	// vectors the site handed back.
	serve := func() int {
		results := 0
		for _, q := range groupings {
			b0, err := s.EvalBase(ctx, q.Base)
			if err != nil {
				t.Fatal(err)
			}
			h, err := s.EvalOperator(ctx, OperatorRequest{Base: b0, Op: q.Ops[0]})
			if err != nil {
				t.Fatal(err)
			}
			results += vectorBytes(b0) + vectorBytes(h)
		}
		err := s.EvalOperatorBlocks(ctx, OperatorRequest{Base: x1, Op: ex1.Ops[1], Guard: true, BlockRows: 64}, func(block *relation.Relation) error {
			results += vectorBytes(block)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	serve()
	const runs = 10
	var before, after runtime.MemStats
	results := 0
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		results += serve()
	}
	runtime.ReadMemStats(&after)
	// The fixed part: per request, the bound conditions and layouts, the
	// compiled filters and folds, schemas and relation headers.
	const fixed = 30 << 10
	if got, want := float64(after.TotalAlloc-before.TotalAlloc)/runs, float64(results)/runs; got > want+fixed {
		t.Errorf("a warm run allocates %.0f bytes, its result vectors %.0f: %.0f beyond them, want at most %d", got, want, got-want, fixed)
	}
}

// vectorBytes is what r's vectors hold: their payloads and NULL bitmaps.
// A dictionary is the image's own, shared, not copied.
func vectorBytes(r *relation.Relation) int {
	n := 0
	for _, v := range r.Columns().Vecs {
		n += 8*(cap(v.Ints)+cap(v.Floats)+cap(v.Nulls)) + 4*cap(v.Codes)
	}
	return n
}

// TestSourceOfScanIsFlat: a SourceOf scan — the scalar evaluator's over a
// materialized relation, and a Load-ed partition's — boxes a block of rows
// at a time into one reused slab, so a scan of ten times the rows allocates
// no more, in count or in bytes.
func TestSourceOfScanIsFlat(t *testing.T) {
	// allocs is what one scan of each source over rows allocates: the count
	// and the bytes.
	allocs := func(rows int) (counts, bytes [2]float64) {
		rel := kernelRel(rows)
		part, err := newMemPartition(rel)
		if err != nil {
			t.Fatal(err)
		}
		for i, src := range []gmdj.RowSource{gmdj.SourceOf(rel), part} {
			scan := func() {
				n := 0
				if err := src.Scan(context.Background(), func(relation.Tuple) error { n++; return nil }); err != nil || n != rows {
					t.Fatalf("scanned %d of %d rows: %v", n, rows, err)
				}
			}
			counts[i] = testing.AllocsPerRun(20, scan)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for k := 0; k < 20; k++ {
				scan()
			}
			runtime.ReadMemStats(&after)
			bytes[i] = float64(after.TotalAlloc-before.TotalAlloc) / 20
		}
		return counts, bytes
	}
	smallCounts, smallBytes := allocs(3000)
	largeCounts, largeBytes := allocs(30000)
	for i, name := range []string{"SourceOf", "partition"} {
		if largeCounts[i] > smallCounts[i] || largeBytes[i] > smallBytes[i]+1024 {
			t.Errorf("%s: a scan of 3000 rows allocates %v times, %v bytes; of 30000 rows %v times, %v bytes",
				name, smallCounts[i], smallBytes[i], largeCounts[i], largeBytes[i])
		}
	}
}

// TestKernelConcurrentEval evaluates eight different X's over one shared
// partition from eight goroutines at once, several times each, and demands
// every reply equal that X's serial one: under -race this proves no two
// evaluations share pooled scratch, and that evaluations over a disk table
// share its cached segment images only to read them.
func TestKernelConcurrentEval(t *testing.T) {
	ctx := context.Background()
	rel := kernelRel(5000)
	loaded := NewSite(0)
	if err := loaded.Load(ctx, "Flow", rel); err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Site{"loaded": loaded, "disk": diskSite(t, rel, 512)} {
		t.Run(name, func(t *testing.T) { concurrentEvals(t, s) })
	}
}

func concurrentEvals(t *testing.T, s *Site) {
	ctx := context.Background()
	reqs := make([]OperatorRequest, 8)
	want := make([]string, len(reqs))
	for i := range reqs {
		q := example1([]string{"S", "K"}[i%2])
		x, err := gmdj.EvalPrefixX(ctx, q, s.snapshot(), 1, true)
		if err != nil {
			t.Fatal(err)
		}
		// Each goroutine's X keeps a different subset of the groups.
		keep := relation.New(x.Schema)
		for j, row := range x.Rows() {
			if (j+i)%3 != 0 {
				keep.MustAppend(row)
			}
		}
		reqs[i] = OperatorRequest{Base: keep, Op: q.Ops[1]}
		h, err := s.EvalOperator(ctx, reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = h.Format(-1)
	}
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < 5; n++ {
				h, err := s.EvalOperator(ctx, reqs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got := h.Format(-1); got != want[i] {
					t.Errorf("X %d, run %d: concurrent reply differs from the serial one\n%s\nvs\n%s", i, n, got, want[i])
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
