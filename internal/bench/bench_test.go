package bench

import (
	"context"
	"strings"
	"testing"

	"skalla/internal/gmdj"
	"skalla/internal/plan"
	"skalla/internal/stats"
	"skalla/internal/tpc"
)

// smallConfig is a fast instance preserving the cardinality structure.
func smallConfig() tpc.Config {
	return tpc.Config{Rows: 4000, Customers: 2000, Nations: 25, CitiesPerNation: 6, Clerks: 80, Seed: 3}
}

func smallDataset(t *testing.T, sites int) *tpc.Dataset {
	t.Helper()
	d, err := tpc.Generate(smallConfig(), sites)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewTPCCluster(t *testing.T) {
	d := smallDataset(t, 4)
	c, err := NewTPCCluster(context.Background(), d, 3, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Coord.NumSites() != 3 || len(c.Sites) != 3 {
		t.Errorf("cluster size = %d/%d", c.Coord.NumSites(), len(c.Sites))
	}
	if _, err := NewTPCCluster(context.Background(), d, 0, stats.NetModel{}); err == nil {
		t.Error("zero sites must error")
	}
	if _, err := NewTPCCluster(context.Background(), d, 5, stats.NetModel{}); err == nil {
		t.Error("too many sites must error")
	}
}

func TestTwoPhaseQueryShapes(t *testing.T) {
	dep := TwoPhaseQuery(HighCardAttr, true)
	indep := TwoPhaseQuery(HighCardAttr, false)
	d := smallDataset(t, 2)
	src := gmdj.Schemas{tpc.RelationName: tpc.Schema()}
	if err := dep.Validate(src); err != nil {
		t.Errorf("dependent query invalid: %v", err)
	}
	if err := indep.Validate(src); err != nil {
		t.Errorf("independent query invalid: %v", err)
	}
	// Dependent is non-coalescible, independent is coalescible.
	if _, merges, _ := gmdj.Coalesce(dep, src); merges != 0 {
		t.Error("dependent query must not coalesce")
	}
	if _, merges, _ := gmdj.Coalesce(indep, src); merges != 1 {
		t.Error("independent query must coalesce")
	}
	_ = d
}

// Distributed results on the experiment workloads must match the
// centralized oracle (sanity for the whole harness path).
func TestWorkloadsMatchOracle(t *testing.T) {
	d := smallDataset(t, 3)
	c, err := NewTPCCluster(context.Background(), d, 3, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	oracleData := gmdj.Data{tpc.RelationName: d.Global()}
	for _, q := range []gmdj.Query{
		TwoPhaseQuery(HighCardAttr, true),
		TwoPhaseQuery(LowCardAlignedAttr, true),
		TwoPhaseQuery(LowCardAttr, false),
	} {
		want, err := gmdj.EvalCentral(q, oracleData, true)
		if err != nil {
			t.Fatal(err)
		}
		r, err := measure(context.Background(), c, q, plan.SelectAll(), "x", 0)
		if err != nil {
			t.Fatal(err)
		}
		if r.Groups != want.Len() {
			t.Errorf("group count %d, oracle %d", r.Groups, want.Len())
		}
	}
}

func TestFig2Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("speed-up sweep")
	}
	d := smallDataset(t, 4)
	rows, err := Fig2(context.Background(), d, 4, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	// Non-reduced traffic is quadratic in participating sites: the ratio of
	// rows transferred from 2 to 4 sites approaches 4 (paper Sect. 5.2).
	quad, err := GrowthRatio(rows, "no-reduction", 4, MetricRows)
	if err != nil {
		t.Fatal(err)
	}
	if quad < 3.0 {
		t.Errorf("no-reduction growth %f, want near-quadratic (>3)", quad)
	}
	// Both reductions make traffic linear (ratio ≈ 2).
	lin, err := GrowthRatio(rows, "both-reductions", 4, MetricRows)
	if err != nil {
		t.Fatal(err)
	}
	if lin > 2.6 {
		t.Errorf("both-reductions growth %f, want near-linear (<2.6)", lin)
	}
	// Site-side reduction alone still has a quadratic component (the
	// coordinator→site leg), so it sits between.
	site, _ := GrowthRatio(rows, "site-reduction", 4, MetricRows)
	if site <= lin || site > quad+0.1 {
		t.Errorf("site-reduction growth %f not between linear %f and quadratic %f", site, lin, quad)
	}
	// At every point, reduced variants move no more rows than unreduced.
	for _, n := range []int{1, 2, 3, 4} {
		base := Filter(rows, "no-reduction")[n-1]
		for _, s := range []string{"site-reduction", "coord-reduction", "both-reductions"} {
			r := Filter(rows, s)[n-1]
			if r.Rows > base.Rows {
				t.Errorf("%s at %d sites moves %d rows > baseline %d", s, n, r.Rows, base.Rows)
			}
			if r.Groups != base.Groups {
				t.Errorf("%s at %d sites: %d groups != baseline %d", s, n, r.Groups, base.Groups)
			}
		}
	}
}

func TestFig3Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("speed-up sweep")
	}
	d := smallDataset(t, 4)
	rows, err := Fig3(context.Background(), d, 4, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	for _, card := range []string{"high", "low"} {
		co := Filter(rows, card+"/coalesced")
		nc := Filter(rows, card+"/non-coalesced")
		if len(co) != 4 || len(nc) != 4 {
			t.Fatalf("%s: missing points", card)
		}
		for i := range co {
			// One evaluation round saved: 2 rounds vs 3.
			if co[i].Rounds != 2 || nc[i].Rounds != 3 {
				t.Errorf("%s at %d sites: rounds %d/%d, want 2/3", card, co[i].X, co[i].Rounds, nc[i].Rounds)
			}
			if co[i].Rows >= nc[i].Rows {
				t.Errorf("%s at %d sites: coalesced rows %d !< %d", card, co[i].X, co[i].Rows, nc[i].Rows)
			}
			if co[i].Groups != nc[i].Groups {
				t.Errorf("%s: group counts differ", card)
			}
		}
	}
	// High-cardinality groups outnumber low-cardinality groups.
	if Filter(rows, "high/coalesced")[3].Groups <= Filter(rows, "low/coalesced")[3].Groups {
		t.Error("high-card query must have more groups than low-card")
	}
}

func TestFig4Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("speed-up sweep")
	}
	d := smallDataset(t, 4)
	rows, err := Fig4(context.Background(), d, 4, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	for _, card := range []string{"high", "low"} {
		red := Filter(rows, card+"/sync-reduction")
		base := Filter(rows, card+"/no-sync-reduction")
		for i := range red {
			if red[i].Rounds != 1 {
				t.Errorf("%s at %d sites: sync-reduced rounds = %d, want 1", card, red[i].X, red[i].Rounds)
			}
			if base[i].Rounds != 3 {
				t.Errorf("%s at %d sites: baseline rounds = %d, want 3", card, base[i].X, base[i].Rounds)
			}
			if red[i].Rows >= base[i].Rows {
				t.Errorf("%s at %d sites: sync reduction did not cut traffic (%d vs %d)",
					card, red[i].X, red[i].Rows, base[i].Rows)
			}
		}
	}
	// Sync-reduced traffic is a single up-leg: exactly the union of the
	// sites' group fragments (linear in sites for the aligned attribute).
	red := Filter(rows, "high/sync-reduction")
	if red[3].RowsDown != 0 {
		t.Errorf("sync-reduced plan ships %d rows down, want 0", red[3].RowsDown)
	}
}

func TestFig5Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-up sweep")
	}
	base := smallConfig()
	base.Rows = 2000
	base.Customers = 800
	rows, err := Fig5(context.Background(), base, 4, 3, false, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	opt := Filter(rows, "optimized")
	unopt := Filter(rows, "unoptimized")
	if len(opt) != 3 || len(unopt) != 3 {
		t.Fatalf("points: %d/%d", len(opt), len(unopt))
	}
	for i := range opt {
		if opt[i].Rows >= unopt[i].Rows {
			t.Errorf("scale %d: optimized rows %d !< %d", opt[i].X, opt[i].Rows, unopt[i].Rows)
		}
		if opt[i].Groups != unopt[i].Groups {
			t.Errorf("scale %d: group mismatch", opt[i].X)
		}
	}
	// Both series grow roughly linearly in data size (growth from x1 to x3
	// stays well below the x9 a quadratic would give).
	for _, s := range []string{"optimized", "unoptimized"} {
		sr := Filter(rows, s)
		if g := float64(sr[2].Rows) / float64(sr[0].Rows); g > 5 {
			t.Errorf("%s grows superlinearly in data size: %f", s, g)
		}
	}
	// Constant-group variant: group count stays flat.
	crows, err := Fig5(context.Background(), base, 4, 2, true, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	copt := Filter(crows, "optimized")
	// The group domain is fixed; the realized count may drift slightly at
	// small scale because not every customer is sampled. Allow 10%.
	drift := float64(copt[1].Groups-copt[0].Groups) / float64(copt[0].Groups)
	if drift < 0 || drift > 0.10 {
		t.Errorf("constant-groups variant changed groups: %d -> %d (drift %.2f)",
			copt[0].Groups, copt[1].Groups, drift)
	}
}

func TestFig2FormulaWithin5Percent(t *testing.T) {
	if testing.Short() {
		t.Skip("formula sweep")
	}
	d := smallDataset(t, 4)
	for _, n := range []int{2, 4} {
		fc, err := Fig2Formula(context.Background(), d, n, stats.NetModel{})
		if err != nil {
			t.Fatal(err)
		}
		if fc.RelError() > 0.05 {
			t.Errorf("n=%d: measured %f vs predicted %f (err %.1f%%), want within 5%%",
				n, fc.Measured, fc.Predicted, 100*fc.RelError())
		}
		if fc.C <= 0 || fc.C > 1.01 {
			t.Errorf("n=%d: c = %f out of range", n, fc.C)
		}
	}
}

func TestRenderAndHelpers(t *testing.T) {
	rows := []Row{
		{Series: "a", X: 1, Rows: 10},
		{Series: "a", X: 2, Rows: 20},
		{Series: "b", X: 1, Rows: 5},
	}
	s := Render("demo", rows)
	for _, frag := range []string{"== demo ==", "-- a --", "-- b --"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Render missing %q", frag)
		}
	}
	if got := Series(rows); len(got) != 2 || got[0] != "a" {
		t.Errorf("Series = %v", got)
	}
	g, err := GrowthRatio(rows, "a", 2, MetricRows)
	if err != nil || g != 2 {
		t.Errorf("GrowthRatio = %f, %v", g, err)
	}
	if _, err := GrowthRatio(rows, "b", 2, MetricRows); err == nil {
		t.Error("missing point must error")
	}
	if _, err := GrowthRatio(rows, "zz", 2, MetricRows); err == nil {
		t.Error("missing series must error")
	}
	zero := []Row{{Series: "z", X: 1, Rows: 0}, {Series: "z", X: 2, Rows: 3}}
	if _, err := GrowthRatio(zero, "z", 2, MetricRows); err == nil {
		t.Error("zero midpoint must error")
	}
}

func TestFormulaCheckRelError(t *testing.T) {
	fc := FormulaCheck{Measured: 1.05, Predicted: 1.0}
	if e := fc.RelError(); e < 0.049 || e > 0.051 {
		t.Errorf("RelError = %f", e)
	}
	if (FormulaCheck{}).RelError() != 0 {
		t.Error("zero prediction must not divide by zero")
	}
}

// TestPlanModesExample1 is the planner acceptance check on the paper's
// Example 1 workload shape: auto mode never plans more rounds (nor a worse
// estimate) than enabling all rules, its result matches the unoptimized
// baseline byte-for-byte, and the fingerprint is stable across compiles.
func TestPlanModesExample1(t *testing.T) {
	d := smallDataset(t, 4)
	ctx := context.Background()
	q := TwoPhaseQuery(HighCardAttr, true)
	c, err := NewTPCCluster(ctx, d, 4, stats.DefaultLAN())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	auto, err := c.Coord.PlanWith(ctx, q, plan.SelectAuto())
	if err != nil {
		t.Fatal(err)
	}
	all, err := c.Coord.PlanWith(ctx, q, plan.SelectAll())
	if err != nil {
		t.Fatal(err)
	}
	if auto.Estimate.Rounds > all.Estimate.Rounds {
		t.Errorf("auto plans %d round(s), all-rules plans %d", auto.Estimate.Rounds, all.Estimate.Rounds)
	}
	if auto.Estimate.Compare(all.Estimate) > 0 {
		t.Errorf("auto estimate %s worse than all-rules %s", auto.Estimate, all.Estimate)
	}
	again, err := c.Coord.PlanWith(ctx, q, plan.SelectAuto())
	if err != nil {
		t.Fatal(err)
	}
	if auto.Fingerprint != again.Fingerprint || auto.Fingerprint == "" {
		t.Errorf("auto fingerprint unstable: %q vs %q", auto.Fingerprint, again.Fingerprint)
	}
	rows, err := PlanModes(ctx, d, 2, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("PlanModes rows = %d, want 6", len(rows))
	}
	byGroups := map[string]int{}
	for _, r := range rows {
		if r.Plan.Fingerprint == "" || r.Plan.Mode == "" {
			t.Errorf("%s at %d sites: missing plan identity: %+v", r.Series, r.X, r.Plan)
		}
		if r.X == 2 {
			byGroups[r.Series] = r.Groups
		}
		for _, rr := range r.RoundDetail {
			if rr.EstBytesUp < 0 || rr.EstBytesDown < 0 {
				t.Errorf("%s round %s: negative estimate", r.Series, rr.Name)
			}
		}
	}
	if byGroups["mode/none"] != byGroups["mode/all"] || byGroups["mode/none"] != byGroups["mode/auto"] {
		t.Errorf("plan modes disagree on group count: %v", byGroups)
	}
}
