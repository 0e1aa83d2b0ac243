// Package bench is the experiment harness reproducing the paper's Sect. 5
// evaluation: the speed-up experiments of Figs. 2–4 (eight-site TPCR
// partitioning with a varying number of participating sites), the scale-up
// experiment of Fig. 5 (four sites, growing per-site data), and the
// analytic group-transfer formula check of Sect. 5.2. Each runner returns
// the series the corresponding figure plots; cmd/skalla-bench and the
// top-level bench_test.go print them.
package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"skalla/internal/agg"
	"skalla/internal/core"
	"skalla/internal/distrib"
	"skalla/internal/engine"
	"skalla/internal/expr"
	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/plan"
	"skalla/internal/stats"
	"skalla/internal/tpc"
	"skalla/internal/transport"
)

// Cluster is a ready-to-query distributed warehouse instance.
type Cluster struct {
	Coord   *core.Coordinator
	Sites   []transport.Site
	Catalog *distrib.Catalog
}

// NewTPCCluster builds a cluster over the first n partitions of a TPCR
// dataset, its sites connected in process (transport.NewLocalSite) so byte
// counts are wire-faithful. Close it to end its sites.
func NewTPCCluster(ctx context.Context, d *tpc.Dataset, n int, net stats.NetModel) (*Cluster, error) {
	if n <= 0 || n > d.NumSites {
		return nil, fmt.Errorf("bench: cluster over %d of %d sites", n, d.NumSites)
	}
	cat, err := d.Catalog(n)
	if err != nil {
		return nil, err
	}
	c := &Cluster{Catalog: cat}
	for i := 0; i < n; i++ {
		es := engine.NewSite(i)
		if err := es.Load(ctx, tpc.RelationName, d.Parts[i]); err != nil {
			c.Close()
			return nil, err
		}
		c.Sites = append(c.Sites, transport.NewLocalSite(es))
	}
	if c.Coord, err = core.New(c.Sites, cat, net); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// Close ends the cluster's sites.
func (c *Cluster) Close() {
	for _, s := range c.Sites {
		if cl, ok := s.(io.Closer); ok {
			cl.Close()
		}
	}
}

// TwoPhaseQuery builds the experiments' workload query: two GMDJ operators,
// each computing a COUNT and an AVG (as in Sect. 5.1), grouped on the given
// attribute. With dependent=true the second operator's condition references
// the first operator's average (the correlated, non-coalescible shape used
// by the group-reduction, sync-reduction and combined experiments); with
// dependent=false the second condition is independent (the coalescible shape
// of the coalescing experiment).
func TwoPhaseQuery(attr string, dependent bool) gmdj.Query {
	link := fmt.Sprintf("B.%s = R.%s", attr, attr)
	second := link + " && R.Discount >= 0.05"
	if dependent {
		second = link + " && R.ExtendedPrice >= B.avg1"
	}
	return gmdj.Query{
		Base: gmdj.BaseQuery{Detail: tpc.RelationName, Cols: []string{attr}},
		Ops: []gmdj.Operator{
			{Detail: tpc.RelationName, Vars: []gmdj.GroupVar{{
				Aggs: []agg.Spec{
					{Func: agg.Count, As: "cnt1"},
					{Func: agg.Avg, Arg: "ExtendedPrice", As: "avg1"},
				},
				Cond: expr.MustParse(link),
			}}},
			{Detail: tpc.RelationName, Vars: []gmdj.GroupVar{{
				Aggs: []agg.Spec{
					{Func: agg.Count, As: "cnt2"},
					{Func: agg.Avg, Arg: "Quantity", As: "avg2"},
				},
				Cond: expr.MustParse(second),
			}}},
		},
	}
}

// HighCardAttr is the high-cardinality grouping attribute (Customer.Name in
// the paper, 100 000 unique values, partition-aligned).
const HighCardAttr = "CustName"

// LowCardAlignedAttr is the low-cardinality partition-aligned attribute used
// by the sync-reduction low-cardinality experiment (2 000–4 000 values).
const LowCardAlignedAttr = "CityKey"

// LowCardAttr is the low-cardinality, deliberately non-aligned attribute
// used by the coalescing low-cardinality experiment.
const LowCardAttr = "Clerk"

// Row is one measured point of an experiment series.
type Row struct {
	Series      string
	X           int // participating sites (speed-up) or scale factor (scale-up)
	Time        time.Duration
	Bytes       int
	BytesDown   int
	BytesUp     int
	Rows        int
	RowsDown    int
	RowsUp      int
	Groups      int
	Rounds      int
	SiteTime    time.Duration
	CoordTime   time.Duration
	CommTime    time.Duration
	RoundDetail []RoundRow
	// Summary carries the p50/p95/max distribution figures (per-call site
	// compute and message sizes, per-round sync-merge time) into the -json
	// export, so latency-shape regressions show up even when totals hold.
	Summary stats.Summary
	// Plan identifies the compiled plan the point was measured under:
	// fingerprint, mode, applied rules, and the cost model's estimate.
	Plan RowPlan
	// Profile aggregates the site-side breakdowns the profiler shipped back
	// with each call, so bench artifacts expose where site time went without
	// a separate profiling run.
	Profile RowProfile
}

// RowProfile is the query-wide aggregate of the per-call SiteBreakdowns on a
// measured Row: summed site evaluation time and scan/segment/codec counters.
type RowProfile struct {
	QueryID       string
	SiteEval      time.Duration
	RowsScanned   int64
	SegCacheReads int64
	SegDiskReads  int64
	SegRowsLoaded int64
	CodecBytes    int64
	Blocks        int64
}

// RowPlan is the planner's identity record on a measured Row: which plan ran
// (fingerprint + rules) and what the cost model predicted for it, so bench
// artifacts tie measurements back to planner decisions.
type RowPlan struct {
	Fingerprint  string
	Mode         string
	Rules        []string
	EstRounds    int
	EstBytesDown int64
	EstBytesUp   int64
}

// RoundRow is the per-synchronization-round traffic breakdown of a Row. It
// flows into skalla-bench's -json export, so wire-efficiency regressions show
// up per round rather than hiding in the query totals.
type RoundRow struct {
	Name          string
	BytesDown     int
	BytesUp       int
	RowsDown      int
	RowsUp        int
	BytesPerGroup float64 // upward bytes per final result group; 0 when no groups
	// EstBytesDown/Up are the cost model's predictions for the round, so the
	// model's calibration is visible next to each measurement.
	EstBytesDown int64
	EstBytesUp   int64
}

// measure runs one query under the given rule selection and folds the
// metrics into a Row.
func measure(ctx context.Context, c *Cluster, q gmdj.Query, sel plan.Selection, series string, x int) (Row, error) {
	res, err := c.Coord.ExecuteWith(ctx, q, sel)
	if err != nil {
		return Row{}, err
	}
	return foldRow(res, series, x), nil
}

// foldRow folds one execution's metrics and plan into a Row.
func foldRow(res *core.Result, series string, x int) Row {
	m := res.Metrics
	groups := res.Rel.Len()
	rowsDown, rowsUp := 0, 0
	detail := make([]RoundRow, 0, len(m.Rounds))
	for i := range m.Rounds {
		r := &m.Rounds[i]
		rowsDown += r.RowsDown()
		rowsUp += r.RowsUp()
		rr := RoundRow{
			Name:      r.Name,
			BytesDown: r.BytesDown(),
			BytesUp:   r.BytesUp(),
			RowsDown:  r.RowsDown(),
			RowsUp:    r.RowsUp(),
		}
		if groups > 0 {
			rr.BytesPerGroup = float64(rr.BytesUp) / float64(groups)
		}
		if i < len(res.Plan.Estimate.PerRound) {
			re := res.Plan.Estimate.PerRound[i]
			rr.EstBytesDown = re.BytesDown
			rr.EstBytesUp = re.BytesUp
		}
		detail = append(detail, rr)
	}
	return Row{
		Series:      series,
		X:           x,
		Time:        m.ResponseTime(),
		Bytes:       m.TotalBytes(),
		BytesDown:   m.TotalBytesDown(),
		BytesUp:     m.TotalBytesUp(),
		Rows:        m.TotalRows(),
		RowsDown:    rowsDown,
		RowsUp:      rowsUp,
		Groups:      groups,
		Rounds:      m.NumRounds(),
		SiteTime:    m.SiteTime(),
		CoordTime:   m.CoordTime(),
		CommTime:    m.CommTime(),
		RoundDetail: detail,
		Summary:     m.Summary(),
		Plan: RowPlan{
			Fingerprint:  res.Plan.Fingerprint,
			Mode:         res.Plan.Mode,
			Rules:        res.Plan.Rules,
			EstRounds:    res.Plan.Estimate.Rounds,
			EstBytesDown: res.Plan.Estimate.BytesDown,
			EstBytesUp:   res.Plan.Estimate.BytesUp,
		},
		Profile: foldProfile(res.Profile),
	}
}

// foldProfile aggregates a query profile's site breakdowns into a RowProfile.
// Failed (retried) attempts are skipped: their successor re-does the work, and
// counting both would overstate site cost the same way double-counting their
// bytes would overstate traffic.
func foldProfile(p *obs.QueryProfile) RowProfile {
	if p == nil {
		return RowProfile{}
	}
	rp := RowProfile{QueryID: p.QueryID}
	for i := range p.Rounds {
		for _, c := range p.Rounds[i].Calls {
			if c.Failed || c.Breakdown == nil {
				continue
			}
			b := c.Breakdown
			rp.SiteEval += time.Duration(b.EvalNS)
			rp.RowsScanned += b.RowsScanned
			rp.SegCacheReads += b.SegCacheReads
			rp.SegDiskReads += b.SegDiskReads
			rp.SegRowsLoaded += b.SegRowsLoaded
			rp.CodecBytes += b.CodecBytes
			rp.Blocks += b.Blocks
		}
	}
	return rp
}

// SpeedUp runs one query/selection pair over 1..maxSites participating sites
// of a fixed dataset (the setup of Sect. 5.2) and returns one Row per point.
func SpeedUp(ctx context.Context, d *tpc.Dataset, q gmdj.Query, sel plan.Selection, series string, maxSites int, net stats.NetModel) ([]Row, error) {
	var rows []Row
	for n := 1; n <= maxSites; n++ {
		c, err := NewTPCCluster(ctx, d, n, net)
		if err != nil {
			return nil, err
		}
		r, err := measure(ctx, c, q, sel, series, n)
		c.Close()
		if err != nil {
			return nil, fmt.Errorf("bench: %s at %d sites: %w", series, n, err)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// PlanModes compares planner modes on the paper's Example 1 workload query
// (the dependent two-operator query on the high-cardinality partition-
// aligned attribute): baseline, all rules, and the cost-model-driven auto
// mode. The exported rows carry fingerprints, rule lists, and estimated vs.
// actual per-round bytes, so the planner's choices — and the cost model's
// calibration — land in the bench artifacts.
func PlanModes(ctx context.Context, d *tpc.Dataset, maxSites int, net stats.NetModel) ([]Row, error) {
	q := TwoPhaseQuery(HighCardAttr, true)
	var out []Row
	for _, v := range []struct {
		series string
		sel    plan.Selection
	}{
		{"mode/none", plan.SelectNone()},
		{"mode/all", plan.SelectAll()},
		{"mode/auto", plan.SelectAuto()},
	} {
		rows, err := SpeedUp(ctx, d, q, v.sel, v.series, maxSites, net)
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	return out, nil
}

// Fig2 reproduces the group-reduction experiment (Fig. 2): the dependent
// two-operator query on the high-cardinality partition-aligned attribute,
// with no reduction, site-side (distribution-independent) reduction,
// coordinator-side (distribution-aware) reduction, and both. The paper plots
// the first two; the coordinator-side series demonstrates the "would make
// the curves linear" analysis of Sect. 5.2.
func Fig2(ctx context.Context, d *tpc.Dataset, maxSites int, net stats.NetModel) ([]Row, error) {
	q := TwoPhaseQuery(HighCardAttr, true)
	variants := []struct {
		series string
		sel    plan.Selection
	}{
		{"no-reduction", plan.SelectNone()},
		{"site-reduction", plan.SelectRules("group-reduce-site")},
		{"coord-reduction", plan.SelectRules("group-reduce-coord")},
		{"both-reductions", plan.SelectRules("group-reduce-coord", "group-reduce-site")},
	}
	var out []Row
	for _, v := range variants {
		rows, err := SpeedUp(ctx, d, q, v.sel, v.series, maxSites, net)
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	return out, nil
}

// Fig3 reproduces the coalescing experiment (Fig. 3): the independent
// two-operator query, coalesced vs. not, on the high-cardinality attribute
// (left panel) and the low-cardinality attribute (right panel).
func Fig3(ctx context.Context, d *tpc.Dataset, maxSites int, net stats.NetModel) ([]Row, error) {
	var out []Row
	for _, card := range []struct {
		label string
		attr  string
	}{{"high", HighCardAttr}, {"low", LowCardAttr}} {
		q := TwoPhaseQuery(card.attr, false)
		for _, v := range []struct {
			series string
			sel    plan.Selection
		}{
			{card.label + "/non-coalesced", plan.SelectNone()},
			{card.label + "/coalesced", plan.SelectRules("coalesce")},
		} {
			rows, err := SpeedUp(ctx, d, q, v.sel, v.series, maxSites, net)
			if err != nil {
				return nil, err
			}
			out = append(out, rows...)
		}
	}
	return out, nil
}

// Fig4 reproduces the synchronization-reduction experiment (Fig. 4): the
// dependent (non-coalescible) query with and without sync reduction, on the
// high-cardinality attribute (left) and the low-cardinality partition-
// aligned attribute (right).
func Fig4(ctx context.Context, d *tpc.Dataset, maxSites int, net stats.NetModel) ([]Row, error) {
	var out []Row
	for _, card := range []struct {
		label string
		attr  string
	}{{"high", HighCardAttr}, {"low", LowCardAlignedAttr}} {
		q := TwoPhaseQuery(card.attr, true)
		for _, v := range []struct {
			series string
			sel    plan.Selection
		}{
			{card.label + "/no-sync-reduction", plan.SelectNone()},
			{card.label + "/sync-reduction", plan.SelectRules("local-prefix", "sync-skip")},
		} {
			rows, err := SpeedUp(ctx, d, q, v.sel, v.series, maxSites, net)
			if err != nil {
				return nil, err
			}
			out = append(out, rows...)
		}
	}
	return out, nil
}

// Fig5 reproduces the scale-up experiment (Fig. 5): four sites, per-site
// data scaled ×1..×maxScale, combined-reductions query with all
// optimizations vs. none. When constantGroups is true the group count is
// held fixed while the data grows (the Sect. 5.3 variant); otherwise groups
// grow linearly with the data. The optimized rows carry the site /
// coordinator / communication breakdown of the right panel.
func Fig5(ctx context.Context, base tpc.Config, numSites, maxScale int, constantGroups bool, net stats.NetModel) ([]Row, error) {
	q := TwoPhaseQuery(HighCardAttr, true)
	var out []Row
	for s := 1; s <= maxScale; s++ {
		cfg := base
		cfg.Rows = base.Rows * s
		if !constantGroups {
			cfg.Customers = base.Customers * s
		}
		d, err := tpc.Generate(cfg, numSites)
		if err != nil {
			return nil, err
		}
		c, err := NewTPCCluster(ctx, d, numSites, net)
		if err != nil {
			return nil, err
		}
		unopt, err := measure(ctx, c, q, plan.SelectNone(), "unoptimized", s)
		if err != nil {
			c.Close()
			return nil, err
		}
		opt, err := measure(ctx, c, q, plan.SelectAll(), "optimized", s)
		c.Close()
		if err != nil {
			return nil, err
		}
		out = append(out, unopt, opt)
	}
	return out, nil
}

// FormulaCheck is the Sect. 5.2 analytic result: the proportion of groups
// transferred with site-side group reduction versus without is
// (2c + 2n + 1)/(4n + 1), where n is the number of sites, g the number of
// groups per site, and c the average fraction of a site's groups returned
// per grouping-variable round. The paper reports the formula matching the
// measurements within 5%.
type FormulaCheck struct {
	N         int
	C         float64
	Measured  float64 // rows(with reduction) / rows(without)
	Predicted float64 // (2c + 2n + 1) / (4n + 1)
}

// RelError returns |measured - predicted| / predicted.
func (f FormulaCheck) RelError() float64 {
	if f.Predicted == 0 {
		return 0
	}
	d := f.Measured - f.Predicted
	if d < 0 {
		d = -d
	}
	return d / f.Predicted
}

// Fig2Formula measures the group-transfer ratio at n sites and evaluates the
// analytic formula against it.
func Fig2Formula(ctx context.Context, d *tpc.Dataset, n int, net stats.NetModel) (FormulaCheck, error) {
	q := TwoPhaseQuery(HighCardAttr, true)
	c, err := NewTPCCluster(ctx, d, n, net)
	if err != nil {
		return FormulaCheck{}, err
	}
	defer c.Close()
	base, err := measure(ctx, c, q, plan.SelectNone(), "none", n)
	if err != nil {
		return FormulaCheck{}, err
	}
	red, err := measure(ctx, c, q, plan.SelectRules("group-reduce-site"), "site", n)
	if err != nil {
		return FormulaCheck{}, err
	}
	// g = groups per site = |Q| / n (CustName is partition-aligned, so the
	// groups divide evenly across the participating sites).
	gTotal := float64(red.Groups)
	gSite := gTotal / float64(n)
	// The reduced run's sites→coordinator rows are: gTotal from the base
	// round, plus the guarded H rows of the two operator rounds. c is the
	// average fraction of a site's g groups returned per operator round.
	mdUp := float64(red.RowsUp) - gTotal
	cFrac := mdUp / (2 * float64(n) * gSite)
	return FormulaCheck{
		N:         n,
		C:         cFrac,
		Measured:  float64(red.Rows) / float64(base.Rows),
		Predicted: (2*cFrac + 2*float64(n) + 1) / (4*float64(n) + 1),
	}, nil
}
