package distrib

import (
	"fmt"

	"skalla/internal/expr"
	"skalla/internal/gmdj"
	"skalla/internal/relation"
)

// ReductionPred is a coordinator-side predicate over base tuples: it keeps
// exactly the tuples that must be shipped to one particular site (the ¬ψ_i
// of Theorem 4). Reduction predicates run at the coordinator, so they are
// plain closures rather than wire-format expressions.
type ReductionPred func(relation.Tuple) (bool, error)

// GroupReducers derives, for one MD operator, a per-site slice of reduction
// predicates implementing distribution-aware group reduction (Theorem 4).
//
// For every grouping variable θ_j it relaxes each top-level conjunct into a
// necessary condition over the base tuple, given site i's attribute filters:
//
//   - B.g = R.A        →  φ_i^A(b.g)               (equality on a constrained attr)
//   - baseExpr op affine(R.A) → baseExpr op bound   (the paper's inequality example)
//   - base-only conjunct c(b) → c(b)
//   - anything else    →  true (no information)
//
// ¬ψ_i is the OR over variables of the AND of the relaxations. If some
// variable yields no constraint at all, ¬ψ_i ≡ true and no reduction is
// possible (ok = false).
func GroupReducers(op gmdj.Operator, baseSchema relation.Schema, dist *Distribution) ([]ReductionPred, bool, error) {
	if dist == nil || dist.NumSites <= 0 {
		return nil, false, nil
	}
	preds := make([]ReductionPred, dist.NumSites)
	for site := 0; site < dist.NumSites; site++ {
		var varPreds []ReductionPred // one per grouping variable (to be OR-ed)
		reducible := true
		for _, v := range op.Vars {
			p, ok, err := relaxVariable(v.Cond, baseSchema, dist, site)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				reducible = false
				break
			}
			varPreds = append(varPreds, p)
		}
		if !reducible {
			return nil, false, nil
		}
		all := varPreds
		preds[site] = func(t relation.Tuple) (bool, error) {
			for _, p := range all {
				ok, err := p(t)
				if err != nil {
					return false, err
				}
				if ok {
					return true, nil
				}
			}
			return false, nil
		}
	}
	return preds, true, nil
}

// relaxVariable relaxes one condition θ_j into a base-only predicate for a
// site. ok=false means no conjunct yielded information.
func relaxVariable(cond expr.Expr, baseSchema relation.Schema, dist *Distribution, site int) (ReductionPred, bool, error) {
	var conjPreds []ReductionPred
	for _, c := range expr.Conjuncts(cond) {
		if p := relaxConjunct(c, baseSchema, dist, site); p != nil {
			conjPreds = append(conjPreds, p)
		}
	}
	if len(conjPreds) == 0 {
		return nil, false, nil
	}
	return func(t relation.Tuple) (bool, error) {
		for _, p := range conjPreds {
			ok, err := p(t)
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
		}
		return true, nil
	}, true, nil
}

// relaxConjunct relaxes a single conjunct; nil means no information.
func relaxConjunct(c expr.Expr, baseSchema relation.Schema, dist *Distribution, site int) ReductionPred {
	// Base-only conjunct: usable as-is.
	if expr.SideOnly(c, expr.SideBase) {
		bound, err := expr.Bind(c, baseSchema, nil)
		if err != nil {
			return nil
		}
		return func(t relation.Tuple) (bool, error) {
			return expr.EvalCond(bound, t, nil)
		}
	}
	bin, ok := c.(*expr.Bin)
	if !ok || !bin.Op.IsComparison() {
		return nil
	}
	// Normalize so the base side is on the left.
	op, l, r := bin.Op, bin.L, bin.R
	if !expr.SideOnly(l, expr.SideBase) || !expr.SideOnly(r, expr.SideDetail) {
		if expr.SideOnly(r, expr.SideBase) && expr.SideOnly(l, expr.SideDetail) {
			fl, okf := expr.FlipComparison(op)
			if !okf {
				return nil
			}
			op, l, r = fl, r, l
		} else {
			return nil
		}
	}

	// Equality against a bare constrained detail column: membership test.
	if op == expr.OpEq {
		if col, isCol := r.(*expr.Col); isCol {
			info, known := dist.Attr(col.Name)
			if known {
				f := info.Filter(site)
				if f != nil {
					boundL, err := expr.Bind(l, baseSchema, nil)
					if err != nil {
						return nil
					}
					return func(t relation.Tuple) (bool, error) {
						v, err := boundL.Eval(t, nil)
						if err != nil {
							return false, err
						}
						return f.Contains(v), nil
					}
				}
			}
		}
	}

	// Affine comparison: relax against the filter's numeric bounds.
	aff, isAff := expr.DetailAffine(r)
	if !isAff {
		return nil
	}
	info, known := dist.Attr(aff.Col)
	if !known {
		return nil
	}
	f := info.Filter(site)
	if f == nil {
		return nil
	}
	lo, hi, okB := f.Bounds()
	if !okB {
		return nil
	}
	relaxed, okR := expr.RelaxComparison(op, l, aff, lo, hi)
	if !okR {
		return nil
	}
	bound, err := expr.Bind(relaxed, baseSchema, nil)
	if err != nil {
		return nil
	}
	return func(t relation.Tuple) (bool, error) {
		return expr.EvalCond(bound, t, nil)
	}
}

// CanSkipBaseSync implements the practical entailment test for Proposition 2:
// the base-values relation is computed over the first operator's own detail
// relation, and every condition of the first operator carries conjuncts
// "B.k = R.k" for every base key attribute k (so θ_j entails θ_K and any
// detail row matching a group at a site implies that group is in the site's
// unfiltered local base). The base-values synchronization round can then be
// folded into the first operator's round.
//
// A base selection σ breaks the entailment for a filtered local base: a
// detail row at one site can match a group whose σ-rows all live at other
// sites, so the group is absent from this site's filtered base and the row's
// contribution is silently lost. Prop. 2 makes no placement assumption, so a
// filtered base folds only with a witness: each site evaluates its base
// unfiltered and counts, per group, the rows σ admits, and the coordinator
// keeps the groups whose counts sum to a positive total over the sites
// (gmdj.EvalLocalReply). The witness pass does not cover grouping
// sets, so a filtered base with grouping sets is refused.
func CanSkipBaseSync(q gmdj.Query) bool {
	if len(q.Ops) == 0 || q.Base.Where != nil && len(q.Base.GroupingSets) > 0 {
		return false
	}
	return SelfLinksBase(q, q.Ops[0])
}

// SelfLinksBase reports whether op reads the base's detail relation and each
// of its variables links every base key k to the detail column k: a detail
// row op matches to a group is then one of that group's rows in the base's
// detail relation.
func SelfLinksBase(q gmdj.Query, op gmdj.Operator) bool {
	return op.Detail == q.Base.Detail && allVarsSelfLinkKeys(op, q.Keys())
}

// LocalPrefixLen returns the longest operator prefix that can be evaluated
// entirely at the sites with a single synchronization at its end. An
// operator qualifies when its detail relation is the base relation and every
// grouping variable's condition entails equality between a base key
// attribute and the same-named detail attribute, where that key is a
// partition attribute (Definition 2, extended through the FD closure): each
// group is then owned by exactly one site, so no site ever needs another
// site's aggregates for these operators — the per-tuple synchronization
// elision of Theorem 5 applied uniformly.
//
// A prefix equal to len(q.Ops) is Corollary 1's full synchronization
// reduction: the whole chain runs locally with one final synchronization.
func LocalPrefixLen(q gmdj.Query, cat *Catalog) int {
	dist := cat.Distribution(q.Base.Detail)
	if dist == nil {
		return 0
	}
	partAttrs := dist.PartitionAttrs()
	// A linked partition key must be among the base projection columns.
	var candidateKeys []string
	for _, k := range q.Keys() {
		if _, ok := partAttrs[k]; ok {
			candidateKeys = append(candidateKeys, k)
		}
	}
	if len(candidateKeys) == 0 {
		return 0
	}
	prefix := 0
	for _, op := range q.Ops {
		if op.Detail != q.Base.Detail {
			return prefix
		}
		for _, v := range op.Vars {
			if !linksSomeKey(v.Cond, candidateKeys) {
				return prefix
			}
		}
		prefix++
	}
	return prefix
}

// FullLocal implements Corollary 1's synchronization reduction: the entire
// multi-operator chain is evaluated locally at each site with a single final
// synchronization. It is the special case LocalPrefixLen == len(q.Ops).
func FullLocal(q gmdj.Query, cat *Catalog) (bool, error) {
	if len(q.Ops) == 0 {
		return false, nil
	}
	return LocalPrefixLen(q, cat) == len(q.Ops), nil
}

// allVarsSelfLinkKeys reports whether every variable's condition links every
// key attribute k to the detail column of the same name.
func allVarsSelfLinkKeys(op gmdj.Operator, keys []string) bool {
	for _, v := range op.Vars {
		m, ok := expr.KeyLinkage(v.Cond, keys)
		if !ok {
			return false
		}
		for k, d := range m {
			if k != d {
				return false
			}
		}
	}
	return true
}

// linksSomeKey reports whether cond has a conjunct B.k = R.k for at least one
// of the candidate partition-aligned keys.
func linksSomeKey(cond expr.Expr, candidates []string) bool {
	for _, l := range expr.EqualityLinks(cond) {
		if l.Base != l.Detail {
			continue
		}
		for _, k := range candidates {
			if l.Base == k {
				return true
			}
		}
	}
	return false
}

// Ownership returns, for a FullLocal-eligible query, the index of the site
// owning a base tuple, derived from the partition filters of the first
// linked partition key. It returns -1 when no site's filter contains the
// value (data outside the declared distribution). Used by tests and
// diagnostics.
func Ownership(q gmdj.Query, cat *Catalog, baseSchema relation.Schema) (func(relation.Tuple) int, error) {
	dist := cat.Distribution(q.Base.Detail)
	if dist == nil {
		return nil, fmt.Errorf("distrib: no distribution for %q", q.Base.Detail)
	}
	partAttrs := dist.PartitionAttrs()
	for _, k := range q.Keys() {
		if _, ok := partAttrs[k]; !ok {
			continue
		}
		info, known := dist.Attr(k)
		if !known || info.Filters == nil {
			continue
		}
		idx := baseSchema.Index(k)
		if idx < 0 {
			continue
		}
		return func(t relation.Tuple) int {
			for site, f := range info.Filters {
				if f != nil && f.Contains(t[idx]) {
					return site
				}
			}
			return -1
		}, nil
	}
	return nil, fmt.Errorf("distrib: no partition-aligned key with explicit filters")
}
