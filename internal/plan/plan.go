// Package plan implements Egil, the Skalla query planner: it takes a complex
// GMDJ expression, the distribution catalog, and a rule selection, and
// produces the distributed evaluation plan executed by the coordinator
// (internal/core).
//
// Since Egil v2, planning is a rule pipeline: each paper optimization is an
// independent Rule (rules.go) with one Apply method, and the driver
// (driver.go) applies each selected rule once, in canonical order, with
// per-rule Δcost accounting under a communication CostModel (cost.go) and a
// canonical plan fingerprint (fingerprint.go). A rule is listed in
// Plan.Rules only when it changed the query or a Round. The registered rules,
// in canonical order — three structure rules that decide which rounds exist,
// then three annotation rules that mark the operator rounds left:
//
//   - coalesce: merge adjacent independent MD operators (Sect. 4.3);
//   - local-prefix: evaluate a partition-aligned operator prefix locally
//     with one synchronization (Thm. 5 / Cor. 1);
//   - sync-skip: fold the base-values sync into the first operator round
//     (Prop. 2); over a filtered base the sites count, per group, the rows
//     the filter admits, and the coordinator keeps the groups whose counts
//     sum to a positive total (a witness);
//   - group-reduce-coord: distribution-aware group reduction — per-operator,
//     per-site coordinator-side predicates selecting the base fragment each
//     site needs (Thm. 4);
//   - group-reduce-site: the distribution-independent guard flag (Prop. 1),
//     applied by the sites at execution time;
//   - group-reduce-observed: an operator round whose conditions contain an
//     earlier guarded round's, or that links every base key over the base's
//     detail relation after a local round, ships each site only the X rows
//     that site reported in that round (Thm. 4 with the answers as φ_i).
//
// Callers choose rules with a Selection passed to Compile: none, all, an
// explicit rule list, or ModeAuto, which compiles each of the 2^3 subsets of
// the structure rules followed by every annotation rule, and keeps the
// cheapest by estimated (rounds, bytes down/up). No annotation raises an
// estimate, so this reaches the minimum over all 2^6 rule subsets. The
// paper's Sect. 5 switches map onto rule lists (sync reduction is
// local-prefix plus sync-skip).
package plan

import (
	"fmt"
	"strings"

	"skalla/internal/distrib"
	"skalla/internal/expr"
	"skalla/internal/gmdj"
	"skalla/internal/relation"
)

// Plan is a compiled distributed evaluation plan.
type Plan struct {
	// Query is the (possibly coalesced) query to execute.
	Query gmdj.Query
	// NumSites is the number of participating sites.
	NumSites int
	// Merges counts coalescing rewrites applied.
	Merges int
	// Steps are the synchronization rounds the coordinator runs, in order:
	// the baseline (base, then one round per operator) as the round rules
	// rewrote it. Executor, cost model, Describe and TrafficBound read them.
	Steps []Round
	// XSchemas[k] is the base-result structure schema after k operators.
	XSchemas []relation.Schema

	// Mode is the canonical selection the plan was compiled under
	// ("none", "all", "auto", or "rules=...").
	Mode string
	// Rules lists the applied rules in canonical order.
	Rules []string
	// Trace records, per selected rule, whether it applied and its estimated
	// cost delta (the explain trace).
	Trace []RuleTrace
	// Estimate is the plan's predicted communication cost.
	Estimate CostEstimate
	// Fingerprint is the plan's canonical identity: a stable hash over the
	// rewritten query, the applied rules, the site count, and the catalog
	// generation. Equal fingerprints mean equal execution.
	Fingerprint string
	// CatalogGen is the catalog generation the plan was compiled under (the
	// same value the fingerprint hashes, kept separately so executors can
	// re-check validity — e.g. before committing a shared result — without
	// recomputing the hash).
	CatalogGen uint64
	// Candidates is the number of plans auto mode compiled (0 in the other
	// modes).
	Candidates int
}

// RoundKind says how a round evaluates and what it ships.
type RoundKind uint8

const (
	// RoundBase is round 0 of Alg. GMDJDistribEval: each site returns its
	// base-values fragment B_i.
	RoundBase RoundKind = iota
	// RoundBaseMD1 is Prop. 2: the base sync folded into MD1, which the
	// sites evaluate locally with one synchronization.
	RoundBaseMD1
	// RoundLocalPrefix is Thm. 5: the sites evaluate the base and MD1..MDk
	// locally with one synchronization (Cor. 1 when it covers the chain).
	RoundLocalPrefix
	// RoundOperator is one coordinator-driven round of one operator.
	RoundOperator
)

// Round is one synchronization round of a plan.
type Round struct {
	Kind RoundKind
	// Name is the executed round's name (stats.RoundStat.Name).
	Name string
	// UpTo is the number of operators X holds once the round completes: 0
	// for the base round, k for a local round over MD1..MDk, k+1 for the
	// round of operator k (0-based).
	UpTo int
	// Guard is Prop. 1: sites return only groups with |RNG| > 0.
	Guard bool
	// Reducers[site] is the Thm. 4 base-fragment predicate for the round's
	// operator at that site; nil means no reduction (operator rounds).
	Reducers []distrib.ReductionPred
	// Observed names an earlier guarded operator round, or an earlier local
	// round, by its UpTo (MD number) when this round ships each site only the
	// X rows that site reported there; 0 means none.
	Observed int
	// Witness marks a RoundBaseMD1 over a filtered base: the sites evaluate
	// the base unfiltered and count, per group, the detail rows the filter
	// admits, and the coordinator drops the groups whose counts sum to 0.
	Witness bool
}

// baselineSteps is the unreduced algorithm: a base round, then one round per
// operator.
func baselineSteps(numOps int) []Round {
	steps := append(make([]Round, 0, numOps+1), Round{Kind: RoundBase, Name: "base"})
	for k := 0; k < numOps; k++ {
		steps = append(steps, Round{Kind: RoundOperator, Name: fmt.Sprintf("MD%d", k+1), UpTo: k + 1})
	}
	return steps
}

// foldPrefix replaces the leading rounds that evaluate no operator past upTo
// (the base round at least) with one local round of the given kind and name.
func (p *Plan) foldPrefix(kind RoundKind, upTo int, name string) {
	i := 0
	for i+1 < len(p.Steps) && p.Steps[i+1].UpTo <= upTo {
		i++
	}
	p.Steps = p.Steps[i:]
	p.Steps[0] = Round{Kind: kind, Name: name, UpTo: upTo}
}

// operatorRounds reports whether some round is coordinator-driven, the only
// kind that ships X down and can be reduced or guarded.
func (p *Plan) operatorRounds() bool {
	for _, r := range p.Steps {
		if r.Kind == RoundOperator {
			return true
		}
	}
	return false
}

// fullLocal reports Cor. 1: one local round covers the whole chain.
func (p *Plan) fullLocal() bool {
	return p.Steps[0].Kind == RoundLocalPrefix && p.Steps[0].UpTo == len(p.Query.Ops)
}

// Rounds is the number of synchronization rounds the plan runs.
func (p *Plan) Rounds() int { return len(p.Steps) }

// TrafficBound is the Theorem 2 bound on the base-structure rows the plan
// transfers, for a result of groups groups: every site ships at most |Q| rows
// in a base or local round, and at most |Q| each way in an operator round.
// A witnessed round is the exception: its sites report their groups before
// the base filter, so it ships at most unfiltered rows per site, the size of
// the base-values relation without its filter. Every later round ships only
// the groups the witness kept, so |Q| bounds it as before. unfiltered is
// read only by a plan with a witnessed round.
func (p *Plan) TrafficBound(groups, unfiltered int) int {
	bound := 0
	for _, r := range p.Steps {
		if r.Witness {
			bound += p.NumSites * unfiltered
			continue
		}
		bound += p.NumSites * groups
		if r.Kind == RoundOperator {
			bound += p.NumSites * groups // X_k down as well
		}
	}
	return bound
}

// DerivedFrom returns the local round (Prop. 2 or Thm. 5) whose replies
// bound operator round r (Observed), when r ships no keys: each site
// rebuilds the keys of its own reply from its partition (engine.Derive), and
// the round ships only the other columns. A base with grouping sets keeps
// shipping its keys.
func (p *Plan) DerivedFrom(r Round) (Round, bool) {
	if r.Kind == RoundOperator && len(p.Query.Base.GroupingSets) == 0 {
		for _, s := range p.Steps {
			if r.Observed > 0 && s.UpTo == r.Observed && s.Kind != RoundOperator {
				return s, true
			}
		}
	}
	return Round{}, false
}

// Keys returns the base key attributes K.
func (p *Plan) Keys() []string { return p.Query.Keys() }

// Describe renders a human-readable plan summary (the CLI's EXPLAIN output):
// the plan shape, then the per-rule trace with estimated cost deltas, then
// the per-round traffic estimates.
func (p *Plan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %s: %d site(s), mode %s\n", p.Fingerprint, p.NumSites, p.Mode)
	fmt.Fprintf(&b, "  operators: %d (coalescing merges: %d)\n", len(p.Query.Ops), p.Merges)
	fmt.Fprintf(&b, "  synchronization rounds: %d\n", p.Rounds())
	switch first := p.Steps[0]; {
	case p.fullLocal():
		b.WriteString("  sync reduction: full local evaluation (Cor. 1)\n")
	case first.Kind == RoundLocalPrefix:
		fmt.Fprintf(&b, "  sync reduction: MD1..MD%d evaluated locally (Thm. 5 prefix)\n", first.UpTo)
	case first.Kind == RoundBaseMD1 && first.Witness:
		b.WriteString("  sync reduction: base sync folded into MD1 (Prop. 2), σ counted by a witness\n")
	case first.Kind == RoundBaseMD1:
		b.WriteString("  sync reduction: base sync folded into MD1 (Prop. 2)\n")
	}
	// Each operator is shown as the round that evaluates it treats it: only
	// an operator round reduces or guards.
	done := 0
	for _, r := range p.Steps {
		observed := "none"
		if r.Observed > 0 {
			observed = fmt.Sprintf("from MD%d", r.Observed)
		}
		if _, ok := p.DerivedFrom(r); ok {
			observed += ", keys derived at the site"
		}
		for ; done < r.UpTo; done++ {
			fmt.Fprintf(&b, "  MD%d: coordinator-side group reduction: %v, site-side guard: %v, observed reduction: %s\n",
				done+1, r.Reducers != nil, r.Guard, observed)
		}
	}
	for _, t := range p.Trace {
		if t.Applied {
			fmt.Fprintf(&b, "  rule %-18s applied: %s (est %+d round(s), %+d B)\n",
				t.Rule, t.Detail, t.DeltaRounds, t.DeltaBytes)
		} else {
			fmt.Fprintf(&b, "  rule %-18s skipped: %s\n", t.Rule, t.Detail)
		}
	}
	fmt.Fprintf(&b, "  estimated cost: %s\n", p.Estimate)
	for _, r := range p.Estimate.PerRound {
		fmt.Fprintf(&b, "    round %-16s est %d B down, %d B up\n", r.Name, r.BytesDown, r.BytesUp)
	}
	return b.String()
}

// simplifyQuery returns a copy of the query with every condition passed
// through expr.Simplify. The input query is not modified.
func simplifyQuery(q gmdj.Query) gmdj.Query {
	out := q
	if q.Base.Where != nil {
		out.Base.Where = expr.Simplify(q.Base.Where)
	}
	out.Ops = make([]gmdj.Operator, len(q.Ops))
	for i, op := range q.Ops {
		vars := make([]gmdj.GroupVar, len(op.Vars))
		for j, v := range op.Vars {
			vars[j] = gmdj.GroupVar{Aggs: v.Aggs, Cond: expr.Simplify(v.Cond)}
		}
		out.Ops[i] = gmdj.Operator{Detail: op.Detail, Vars: vars}
	}
	return out
}
