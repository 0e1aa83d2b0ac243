package engine

import (
	"context"
	"testing"

	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/relation"
	"skalla/internal/store"
)

// TestKernelAndScalarSitesAgree serves one partition three ways — Load (rows
// plus columnar image: the kernel runs), LoadSource of the plain row source
// and LoadSource of a disk-backed store.Table (both scalar) — and demands the
// same replies from all three, the same rows charged to the request recorder
// and to skalla_engine_rows_scanned_total on both paths, and a profile that
// says which path ran.
func TestKernelAndScalarSitesAgree(t *testing.T) {
	rel := bigFlowRel(5000)
	tbl, err := store.CreateFrom(t.TempDir(), "Flow", rel, 512)
	if err != nil {
		t.Fatal(err)
	}
	sites := map[string]*Site{"load": NewSite(0), "rows": NewSite(1), "disk": NewSite(2)}
	if err := sites["load"].Load(context.Background(), "Flow", rel); err != nil {
		t.Fatal(err)
	}
	if err := sites["rows"].LoadSource("Flow", gmdj.SourceOf(rel)); err != nil {
		t.Fatal(err)
	}
	if err := sites["disk"].LoadSource("Flow", tbl); err != nil {
		t.Fatal(err)
	}

	bq := gmdj.BaseQuery{Detail: "Flow", Cols: []string{"SAS", "DAS"}}
	op := countOp("B.SAS = R.SAS && R.NB >= 100")
	requests := map[string]func(context.Context, *Site) (*relation.Relation, error){
		"base": func(ctx context.Context, s *Site) (*relation.Relation, error) { return s.EvalBase(ctx, bq) },
		"operator": func(ctx context.Context, s *Site) (*relation.Relation, error) {
			return s.EvalOperator(ctx, OperatorRequest{Base: baseFragment(0, 1, 2, 3, 9), Op: op})
		},
		"local": func(ctx context.Context, s *Site) (*relation.Relation, error) {
			return s.EvalLocal(ctx, LocalRequest{Query: gmdj.Query{Base: bq, Ops: []gmdj.Operator{op}}, UpTo: 1})
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
			out, err := run(obs.WithRecorder(context.Background(), rec), s)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, how, err)
			}
			replies[how] = reply{out.Format(-1), obs.EngineRowsScanned.Value() - before, rec.Snapshot()}
		}
		kernel := replies["load"]
		if !kernel.profile.Kernel {
			t.Errorf("%s: Load-ed partition did not run the kernel", name)
		}
		for _, how := range []string{"rows", "disk"} {
			scalar := replies[how]
			if scalar.profile.Kernel {
				t.Errorf("%s on %s: profile claims the kernel", name, how)
			}
			if scalar.text != kernel.text {
				t.Errorf("%s: %s reply differs from the kernel's\n%.1500s\nvs\n%.1500s", name, how, scalar.text, kernel.text)
			}
			if scalar.rows != kernel.rows || scalar.profile.RowsScanned != kernel.profile.RowsScanned {
				t.Errorf("%s: %s scanned %d rows (recorder %d), kernel %d (recorder %d)", name, how,
					scalar.rows, scalar.profile.RowsScanned, kernel.rows, kernel.profile.RowsScanned)
			}
		}
	}
}

// TestLoadSnapshots: rows appended to the relation after Load are served by
// neither image.
func TestLoadSnapshots(t *testing.T) {
	rel := flowRel([3]int64{1, 1, 5}, [3]int64{2, 1, 7})
	s := NewSite(0)
	if err := s.Load(context.Background(), "Flow", rel); err != nil {
		t.Fatal(err)
	}
	rel.MustAppend(relation.Tuple{relation.NewInt(3), relation.NewInt(1), relation.NewInt(9)})
	for _, useHash := range []bool{true, false} { // kernel, then the scalar nested loop
		s.SetUseHash(useHash)
		h, err := s.EvalOperator(context.Background(), OperatorRequest{
			Base: baseFragment(1, 2, 3), Op: countOp("B.SAS = R.SAS"),
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := h.Rows()[2][1].Int; got != 0 {
			t.Errorf("useHash=%v: the appended row was counted %d times", useHash, got)
		}
	}
	if src, _ := s.DetailSource("Flow"); src.Len() != 2 {
		t.Errorf("Len = %d, want 2", src.Len())
	}
}

// TestScanPathCountedAtSite: skalla_engine_scan_path_total counts the passes a
// site runs, with or without a request recorder, under the reason they ran
// where they ran — and nothing for an evaluation no site ran, such as the
// centralized oracle's over the same relation.
func TestScanPathCountedAtSite(t *testing.T) {
	rel := bigFlowRel(500)
	loaded, rows := NewSite(0), NewSite(1)
	if err := loaded.Load(context.Background(), "Flow", rel); err != nil {
		t.Fatal(err)
	}
	if err := rows.LoadSource("Flow", gmdj.SourceOf(rel)); err != nil {
		t.Fatal(err)
	}
	q := gmdj.Query{Base: gmdj.BaseQuery{Detail: "Flow", Cols: []string{"SAS"}}, Ops: []gmdj.Operator{countOp("B.SAS = R.SAS")}}
	local := func(s *Site) func() error {
		return func() error {
			_, err := s.EvalLocal(context.Background(), LocalRequest{Query: q, UpTo: 1})
			return err
		}
	}
	nestedLoop := NewSite(2)
	nestedLoop.SetUseHash(false)
	if err := nestedLoop.Load(context.Background(), "Flow", rel); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name         string
		run          func() error
		path, reason string
		passes       int64
	}{
		{"loaded partition", local(loaded), "kernel", "ok", 2},
		{"row source", local(rows), "scalar", "source", 2},
		{"rollup condition", func() error {
			_, err := loaded.EvalOperator(context.Background(), OperatorRequest{
				Base: baseFragment(1, 2), Op: countOp("B.SAS = R.SAS || B.SAS = 1")})
			return err
		}, "scalar", "shape", 1},
		{"nested-loop site", func() error {
			_, err := nestedLoop.EvalOperator(context.Background(), OperatorRequest{
				Base: baseFragment(1, 2), Op: countOp("B.SAS = R.SAS")})
			return err
		}, "scalar", "shape", 1},
		{"centralized oracle", func() error {
			_, err := gmdj.EvalCentral(q, gmdj.Data{"Flow": rel}, true)
			return err
		}, "", "", 0},
	}
	labels := [][2]string{{"kernel", "ok"}, {"scalar", "source"}, {"scalar", "shape"}, {"scalar", "kind"}}
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
