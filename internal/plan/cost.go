package plan

import (
	"fmt"
	"slices"

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

// estimate prices a draft plan one round of Steps at a time.
func (m CostModel) estimate(p *Plan, xs []relation.Schema, cat *distrib.Catalog) CostEstimate {
	n := int64(p.NumSites)
	groups, aligned := m.baseGroups(p.Query, cat)
	// Per-site share of the groups a site returns: partition-aligned keys
	// mean each group lives at one site (1/n of them per site); otherwise
	// every site may report every group.
	perSite := float64(groups)
	if aligned {
		perSite /= float64(n)
	}

	est := CostEstimate{Rounds: len(p.Steps)}
	for _, r := range p.Steps {
		// Every round sends each site one request.
		down, up := n*m.MsgOverhead, int64(0)
		switch r.Kind {
		case RoundBase, RoundBaseMD1:
			up = n * ceilI(perSite) * localRowBytes(p, r, xs)
		case RoundLocalPrefix:
			// Each site returns its locally finished share of X; alignment
			// is what made the prefix legal, so the shares partition the
			// groups.
			up = groups * localRowBytes(p, r, xs)
		case RoundOperator:
			down, up = m.operatorRound(p, r, xs, n, groups, perSite)
		}
		est.PerRound = append(est.PerRound, RoundEstimate{Name: r.Name, BytesDown: down, BytesUp: up})
		est.BytesDown += down
		est.BytesUp += up
	}
	return est
}

// operatorRound prices what the exchange ships (internal/core operatorRound):
// down, X_k projected onto the keys and the columns the operator's conditions
// read, to every site — or, under an observed reduction, the share of those
// rows the guard let through, without the keys when the sites derive them
// (DerivedFrom), and under Thm. 4 reducers each site only its own fragment;
// up, the row ordinal and the operator's physical columns for the groups
// each site saw, fewer under the Prop. 1 guard.
func (m CostModel) operatorRound(p *Plan, r Round, xs []relation.Schema, n, groups int64, perSite float64) (down, up int64) {
	k := r.UpTo - 1
	op := p.Query.Ops[k]
	downB := rowBytes(xs[k])
	if cols, err := op.ShippedColumns(xs[k], p.Query.Keys()); err == nil {
		if _, ok := p.DerivedFrom(r); ok {
			cols = cols[len(p.Query.Keys()):] // the keys lead X
		}
		downB = rowBytes(xs[k].Project(cols))
	}
	upB := 8 + rowBytes(physColumns(op, xs[k], xs[k+1]))
	// Thm. 4 reducers cap the rows down at |Q|, and an observed reduction
	// ships each site a subset of its own fragment, so its share applies to
	// what the reducers left.
	shipped := n * groups
	if r.Reducers != nil {
		shipped = min(shipped, groups)
	}
	if r.Observed > 0 {
		shipped = ceilI(m.GuardSelectivity * float64(shipped))
	}
	rows := float64(n) * perSite
	if r.Guard {
		rows *= m.GuardSelectivity
	}
	return n*m.MsgOverhead + shipped*downB, ceilI(rows) * upB
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

// localRowBytes is the modeled width of one row of a base or local round's
// reply: gmdj.LocalReplySchema after the operators the round evaluates.
func localRowBytes(p *Plan, r Round, xs []relation.Schema) int64 {
	return rowBytes(gmdj.LocalReplySchema(xs[r.UpTo], p.Query.Ops[:r.UpTo], r.Witness))
}

// physColumns returns the columns op appends to X that its H_i carries: the
// ones after has and not before, less the derived columns, which the
// coordinator recomputes from them.
func physColumns(op gmdj.Operator, before, after relation.Schema) relation.Schema {
	derived := gmdj.DerivedColumns([]gmdj.Operator{op})
	var out relation.Schema
	for _, c := range after[len(before):] {
		if !slices.Contains(derived, c.Name) {
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
// metrics by position: the executed rounds are the plan's Steps, so the names
// coincide (a run served without rounds reports none).
func (p *Plan) CompareRounds(m *stats.Metrics) []RoundCost {
	var out []RoundCost
	for i, re := range p.Estimate.PerRound {
		rc := RoundCost{Name: re.Name, EstBytesDown: re.BytesDown, EstBytesUp: re.BytesUp}
		if m != nil && i < len(m.Rounds) {
			rc.ActualBytesDown = int64(m.Rounds[i].BytesDown())
			rc.ActualBytesUp = int64(m.Rounds[i].BytesUp())
		}
		out = append(out, rc)
	}
	return out
}
