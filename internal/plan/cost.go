package plan

import (
	"fmt"

	"skalla/internal/agg"
	"skalla/internal/distrib"
	"skalla/internal/gmdj"
	"skalla/internal/relation"
	"skalla/internal/stats"
)

// CostModel estimates the communication a plan causes, priced by the two
// observables of the rounds-vs-communication literature — synchronization
// rounds and bytes shipped per direction — which are exactly what
// internal/stats measures per executed round, so estimates and actuals line
// up round-by-round. The model is deliberately coarse: its job is ranking
// candidate plans for one query, not predicting wall-clock time.
type CostModel struct {
	// Net models the links (currently informational; round counts and byte
	// volumes dominate plan choice on any uniform network).
	Net stats.NetModel
	// DefaultGroups is the base-values cardinality |Q| assumed when the
	// catalog has no distinct counts for the key attributes.
	DefaultGroups int64
	// GuardSelectivity is the assumed fraction of groups a site returns under
	// the Prop. 1 guard (|RNG| > 0 for some variable).
	GuardSelectivity float64
	// MsgOverhead is the fixed per-site request framing cost per round, in
	// bytes (schema, condition text, block headers).
	MsgOverhead int64
}

// DefaultCostModel returns the model used when the caller supplies none.
func DefaultCostModel(net stats.NetModel) CostModel {
	return CostModel{Net: net, DefaultGroups: 1024, GuardSelectivity: 0.5, MsgOverhead: 96}
}

// RoundEstimate is the predicted traffic of one synchronization round. Names
// match the executed round names (internal/core), so estimates join with
// stats.RoundStat by position and name.
type RoundEstimate struct {
	Name      string
	BytesDown int64
	BytesUp   int64
}

// CostEstimate is the predicted communication cost of a whole plan.
type CostEstimate struct {
	Rounds    int
	BytesDown int64
	BytesUp   int64
	PerRound  []RoundEstimate
}

// TotalBytes is the plan's total estimated traffic in both directions.
func (e CostEstimate) TotalBytes() int64 { return e.BytesDown + e.BytesUp }

// Compare orders estimates by (rounds, total bytes, bytes down); negative
// means e is cheaper than o.
func (e CostEstimate) Compare(o CostEstimate) int {
	switch {
	case e.Rounds != o.Rounds:
		if e.Rounds < o.Rounds {
			return -1
		}
		return 1
	case e.TotalBytes() != o.TotalBytes():
		if e.TotalBytes() < o.TotalBytes() {
			return -1
		}
		return 1
	case e.BytesDown != o.BytesDown:
		if e.BytesDown < o.BytesDown {
			return -1
		}
		return 1
	}
	return 0
}

// String renders the estimate for explain output.
func (e CostEstimate) String() string {
	return fmt.Sprintf("%d round(s), %d B down, %d B up", e.Rounds, e.BytesDown, e.BytesUp)
}

// estimate prices a draft plan. It mirrors the coordinator's round structure
// (internal/core executePlan): a base round (plain, folded into MD1, or a
// local prefix), then one coordinator-driven round per remaining operator.
func (m CostModel) estimate(p *Plan, xs []relation.Schema, cat *distrib.Catalog) CostEstimate {
	n := int64(p.NumSites)
	overhead := m.MsgOverhead
	groups, aligned := m.baseGroups(p.Query, cat)
	// Per-site share of the groups a site returns: partition-aligned keys
	// mean each group lives at one site (1/n of them per site); otherwise
	// every site may report every group.
	perSite := float64(groups)
	if aligned {
		perSite /= float64(n)
	}

	var est CostEstimate
	add := func(name string, down, up int64) {
		est.PerRound = append(est.PerRound, RoundEstimate{Name: name, BytesDown: down, BytesUp: up})
		est.BytesDown += down
		est.BytesUp += up
		est.Rounds++
	}
	rowB := func(k int) int64 {
		if k < len(xs) {
			return rowBytes(xs[k])
		}
		return 16
	}
	// An operator round ships what the exchange ships (internal/core
	// operatorRound): down, X_k projected onto the keys and the columns the
	// operator's conditions read; up, the row ordinal and the operator's
	// physical columns.
	downB := func(k int) int64 {
		if k < len(xs) {
			if cols, err := p.Query.Ops[k].ShippedColumns(xs[k], p.Query.Keys()); err == nil {
				return rowBytes(xs[k].Project(cols))
			}
		}
		return rowB(k)
	}
	upB := func(k int) int64 {
		if k+1 < len(xs) {
			return 8 + rowBytes(physColumns(p.Query.Ops[k], xs[k], xs[k+1]))
		}
		return 16
	}

	numOps := len(p.Query.Ops)
	startOp := 0
	switch {
	case p.LocalPrefix > 0:
		name := fmt.Sprintf("local-MD1..MD%d", p.LocalPrefix)
		if p.FullLocal {
			name = "local-all"
		}
		// One request down, each site returns its locally finished share of
		// X_prefix; alignment is what made the prefix legal, so the shares
		// partition the groups.
		add(name, n*overhead, groups*rowB(p.LocalPrefix))
		startOp = p.LocalPrefix
	case p.SkipBaseSync:
		add("base+MD1", n*overhead, n*ceilI(perSite)*rowB(1))
		startOp = 1
	default:
		add("base", n*overhead, n*ceilI(perSite)*rowB(0))
	}
	for k := startOp; k < numOps; k++ {
		// Down: the coordinator ships X_k to every site — unless Thm. 4
		// reducers partition it so each site gets only its own fragment.
		down := n*overhead + n*groups*downB(k)
		if p.Reducers != nil && k < len(p.Reducers) && p.Reducers[k] != nil {
			down = n*overhead + groups*downB(k)
		}
		// Up: each site returns aggregates for the groups it saw; the Prop. 1
		// guard suppresses groups with no matching detail rows.
		up := float64(n) * perSite
		if p.Guard {
			up *= m.GuardSelectivity
		}
		add(fmt.Sprintf("MD%d", k+1), down, ceilI(up)*upB(k))
	}
	return est
}

// baseGroups estimates |Q|, the base-values cardinality, from catalog
// distinct counts of the key attributes (capped at the relation's total
// rows), and reports whether some key is a partition attribute. Without
// statistics the model falls back to DefaultGroups — candidate ranking then
// still reflects round counts and per-round traffic shape.
func (m CostModel) baseGroups(q gmdj.Query, cat *distrib.Catalog) (int64, bool) {
	aligned := false
	known := false
	groups := int64(1)
	if dist := cat.Distribution(q.Base.Detail); dist != nil {
		part := dist.PartitionAttrs()
		allKnown := true
		for _, k := range q.Keys() {
			if _, ok := part[k]; ok {
				aligned = true
			}
			info, ok := dist.Attr(k)
			if !ok || info.Distinct <= 0 {
				allKnown = false
				continue
			}
			if groups < 1<<40 { // avoid overflow on wide keys
				groups *= info.Distinct
			}
		}
		known = allKnown
		if known && dist.TotalRows > 0 && groups > dist.TotalRows {
			groups = dist.TotalRows
		}
	}
	if !known || groups <= 0 {
		groups = m.DefaultGroups
		if groups <= 0 {
			groups = 1024
		}
	}
	return groups, aligned
}

// physColumns returns the columns op appends to X that its H_i carries: the
// ones after has and not before, less the derived columns, which the
// coordinator recomputes from them.
func physColumns(op gmdj.Operator, before, after relation.Schema) relation.Schema {
	derived := make(map[string]struct{})
	for _, v := range op.Vars {
		for _, sp := range v.Aggs {
			switch sp.Func {
			case agg.Avg, agg.Variance, agg.StdDev:
				derived[sp.As] = struct{}{}
			}
		}
	}
	var out relation.Schema
	for _, c := range after[len(before):] {
		if _, ok := derived[c.Name]; !ok {
			out = append(out, c)
		}
	}
	return out
}

// rowBytes is the modeled serialized width of one tuple of the schema.
func rowBytes(s relation.Schema) int64 {
	var n int64 = 1 // row framing
	for _, c := range s {
		switch c.Kind {
		case relation.KindString:
			n += 16
		case relation.KindBool:
			n += 1
		default:
			n += 8
		}
	}
	return n
}

func ceilI(f float64) int64 {
	n := int64(f)
	if float64(n) < f {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}

// RoundCost joins one round's estimated and measured traffic — the cost
// model's calibration record surfaced in -stats-json and bench artifacts.
type RoundCost struct {
	Name            string
	EstBytesDown    int64
	EstBytesUp      int64
	ActualBytesDown int64
	ActualBytesUp   int64
}

// CompareRounds joins the plan's per-round estimates with the measured
// metrics, by position (names coincide when the plan executed normally; a
// retried or degraded run may report fewer rounds).
func (p *Plan) CompareRounds(m *stats.Metrics) []RoundCost {
	var out []RoundCost
	for i, re := range p.Estimate.PerRound {
		rc := RoundCost{Name: re.Name, EstBytesDown: re.BytesDown, EstBytesUp: re.BytesUp}
		if m != nil && i < len(m.Rounds) {
			rs := &m.Rounds[i]
			rc.ActualBytesDown = int64(rs.BytesDown())
			rc.ActualBytesUp = int64(rs.BytesUp())
			if rs.Name != "" {
				rc.Name = rs.Name
			}
		}
		out = append(out, rc)
	}
	if m != nil {
		for i := len(p.Estimate.PerRound); i < len(m.Rounds); i++ {
			rs := &m.Rounds[i]
			out = append(out, RoundCost{Name: rs.Name, ActualBytesDown: int64(rs.BytesDown()), ActualBytesUp: int64(rs.BytesUp())})
		}
	}
	return out
}
