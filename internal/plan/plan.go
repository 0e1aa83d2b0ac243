// Package plan implements Egil, the Skalla query planner: it takes a complex
// GMDJ expression, the distribution catalog, and a rule selection, and
// produces the distributed evaluation plan executed by the coordinator
// (internal/core).
//
// Since Egil v2, planning is a rule pipeline: each paper optimization is an
// independent Rule (rules.go) driven to a fixpoint by a deterministic
// multi-pass driver (driver.go), with per-rule Δcost accounting under a
// communication CostModel (cost.go) and a canonical plan fingerprint
// (fingerprint.go). The registered rules, in canonical order:
//
//   - coalesce: merge adjacent independent MD operators (Sect. 4.3);
//   - local-prefix: evaluate a partition-aligned operator prefix locally
//     with one synchronization (Thm. 5 / Cor. 1);
//   - sync-skip: fold the base-values sync into the first operator round
//     (Prop. 2; unsound on filtered bases, guarded);
//   - group-reduce-coord: distribution-aware group reduction — per-operator,
//     per-site coordinator-side predicates selecting the base fragment each
//     site needs (Thm. 4);
//   - group-reduce-site: the distribution-independent guard flag (Prop. 1),
//     applied by the sites at execution time.
//
// Callers choose rules with a Selection passed to Compile: none, all, an
// explicit rule list, or ModeAuto, which picks the rule subset per query by
// estimated (rounds, bytes down/up). The paper's Sect. 5 switches map onto
// rule lists (sync reduction is local-prefix plus sync-skip).
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
	// SkipBaseSync is Prop. 2: the base round is folded into the first
	// operator round (sites evaluate base+MD1 locally).
	SkipBaseSync bool
	// LocalPrefix is the number of leading operators evaluated entirely at
	// the sites with one synchronization at the end of the prefix (Thm. 5 /
	// Cor. 1 family; see distrib.LocalPrefixLen). Zero means no local
	// prefix.
	LocalPrefix int
	// FullLocal is Cor. 1: LocalPrefix covers the entire chain, so the
	// query runs in a single fully local round.
	FullLocal bool
	// Guard is Prop. 1: sites return only groups with |RNG| > 0 in
	// coordinator-driven operator rounds.
	Guard bool
	// XSchemas[k] is the base-result structure schema after k operators.
	XSchemas []relation.Schema
	// Reducers[k][site] is the Thm. 4 base-fragment predicate for operator k
	// at the given site; Reducers[k] == nil means no reduction derivable.
	Reducers [][]distrib.ReductionPred

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
	// Candidates is the number of plans enumerated (1 except in auto mode).
	Candidates int
}

// Rounds predicts the number of synchronization rounds the plan needs: a
// local prefix of k operators costs one round plus one per remaining
// operator; Prop. 2 saves the base round; otherwise an m-operator query uses
// m+1 rounds (Sect. 3.2).
func (p *Plan) Rounds() int {
	if p.LocalPrefix > 0 {
		return 1 + len(p.Query.Ops) - p.LocalPrefix
	}
	if p.SkipBaseSync {
		return len(p.Query.Ops)
	}
	return len(p.Query.Ops) + 1
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
	switch {
	case p.FullLocal:
		b.WriteString("  sync reduction: full local evaluation (Cor. 1)\n")
	case p.LocalPrefix > 0:
		fmt.Fprintf(&b, "  sync reduction: MD1..MD%d evaluated locally (Thm. 5 prefix)\n", p.LocalPrefix)
	case p.SkipBaseSync:
		b.WriteString("  sync reduction: base sync folded into MD1 (Prop. 2)\n")
	}
	for k := range p.Query.Ops {
		reduced := p.Reducers != nil && k < len(p.Reducers) && p.Reducers[k] != nil
		fmt.Fprintf(&b, "  MD%d: coordinator-side group reduction: %v, site-side guard: %v\n",
			k+1, reduced, p.Guard)
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
