package plan

import (
	"fmt"
	"slices"

	"skalla/internal/distrib"
	"skalla/internal/expr"
	"skalla/internal/gmdj"
	"skalla/internal/relation"
)

// Rule is one independent optimization of the pipeline. Rules are stateless
// values: all analysis state lives in the Context, so a single registry
// instance serves every compilation concurrently.
type Rule interface {
	// Name is the rule's unique kebab-case identifier. It doubles as the
	// label value of skalla_plan_rule_applied_total and as the token accepted
	// by -plan-mode rules=...; the skallavet rulename analyzer enforces the
	// naming contract.
	Name() string
	// Applies reports whether the rule can rewrite the current draft, with a
	// human-readable reason when it cannot (surfaced in the explain trace).
	Applies(c *Context) (bool, string, error)
	// Apply performs the rewrite on the draft plan and returns a one-line
	// description of what changed.
	Apply(c *Context) (string, error)
}

// Context is the analysis state a rule sees: the draft plan (whose Query may
// already have been rewritten by earlier rules), the schema source, the
// distribution catalog, and the cost model used for Δcost accounting.
type Context struct {
	Src      gmdj.SchemaSource
	Catalog  *distrib.Catalog
	NumSites int
	Model    CostModel

	plan     *Plan
	xschemas []relation.Schema
}

// Query returns the draft's current (possibly rewritten) query.
func (c *Context) Query() gmdj.Query { return c.plan.Query }

// SetQuery replaces the draft's query, invalidating the cached structure
// schemas, and resets the draft's rounds to the new query's baseline. Rules
// that rewrite the query (coalesce) must go through here. The reset discards
// no round rewrite only because the registry orders coalesce first, before
// every rule that rewrites Steps.
func (c *Context) SetQuery(q gmdj.Query) {
	c.plan.Query = q
	c.plan.Steps = baselineSteps(len(q.Ops))
	c.xschemas = nil
}

// XSchemas returns the base-result structure schemas after each operator of
// the current query, computed lazily and cached until the query changes.
func (c *Context) XSchemas() ([]relation.Schema, error) {
	if c.xschemas == nil {
		xs, err := gmdj.XSchemas(c.plan.Query, c.Src)
		if err != nil {
			return nil, err
		}
		c.xschemas = xs
	}
	return c.xschemas, nil
}

// estimate prices the draft in its current state.
func (c *Context) estimate() (CostEstimate, error) {
	xs, err := c.XSchemas()
	if err != nil {
		return CostEstimate{}, err
	}
	return c.Model.estimate(c.plan, xs, c.Catalog), nil
}

// registry holds every rule in canonical application order. Query rewrites
// (coalesce) come first so the structural analyses see the final operator
// chain; the sync reductions precede group reduction because a local prefix
// removes rounds the reducers would otherwise be derived for.
var registry = []Rule{
	coalesceRule{},
	localPrefixRule{},
	syncSkipRule{},
	groupReduceCoordRule{},
	groupReduceSiteRule{},
	groupReduceObservedRule{},
}

// RuleNames returns the registered rule names in canonical order.
func RuleNames() []string {
	names := make([]string, len(registry))
	for i, r := range registry {
		names[i] = r.Name()
	}
	return names
}

func ruleIndex(name string) int {
	for i, r := range registry {
		if r.Name() == name {
			return i
		}
	}
	return -1
}

// coalesceRule merges adjacent independent MD operators (Sect. 4.3): fewer
// operators means fewer synchronization rounds at identical results.
type coalesceRule struct{}

func (coalesceRule) Name() string { return "coalesce" }

func (coalesceRule) Applies(c *Context) (bool, string, error) {
	_, merges, err := gmdj.Coalesce(c.Query(), c.Src)
	if err != nil {
		return false, "", err
	}
	if merges == 0 {
		return false, "no adjacent independent operators", nil
	}
	return true, "", nil
}

func (coalesceRule) Apply(c *Context) (string, error) {
	cq, merges, err := gmdj.Coalesce(c.Query(), c.Src)
	if err != nil {
		return "", err
	}
	c.SetQuery(cq)
	c.plan.Merges += merges
	return fmt.Sprintf("merged %d operator pair(s), %d round(s) saved", merges, merges), nil
}

// localPrefixRule evaluates a partition-aligned operator prefix entirely at
// the sites with one synchronization at its end (Thm. 5; Cor. 1 when the
// prefix covers the whole chain).
type localPrefixRule struct{}

func (localPrefixRule) Name() string { return "local-prefix" }

func (localPrefixRule) Applies(c *Context) (bool, string, error) {
	if distrib.LocalPrefixLen(c.Query(), c.Catalog) == 0 {
		return false, "no partition-aligned operator prefix", nil
	}
	return true, "", nil
}

func (localPrefixRule) Apply(c *Context) (string, error) {
	p := c.plan
	k := distrib.LocalPrefixLen(p.Query, c.Catalog)
	if k == len(p.Query.Ops) {
		p.foldPrefix(RoundLocalPrefix, k, "local-all")
		return "full local evaluation (Cor. 1), single round", nil
	}
	p.foldPrefix(RoundLocalPrefix, k, fmt.Sprintf("local-MD1..MD%d", k))
	return fmt.Sprintf("MD1..MD%d evaluated locally (Thm. 5 prefix)", k), nil
}

// syncSkipRule folds the base-values synchronization into the first operator
// round (Prop. 2). Soundness guard: filtered bases never qualify — a detail
// row can match a group whose selection-passing witnesses all live at other
// sites (see distrib.CanSkipBaseSync).
type syncSkipRule struct{}

func (syncSkipRule) Name() string { return "sync-skip" }

func (syncSkipRule) Applies(c *Context) (bool, string, error) {
	q := c.Query()
	if c.plan.Steps[0].Kind == RoundLocalPrefix {
		return false, "local prefix already folds the base sync", nil
	}
	if distrib.CanSkipBaseSync(q) {
		return true, "", nil
	}
	switch {
	case len(q.Ops) == 0:
		return false, "no operators", nil
	case q.Base.Where != nil:
		return false, "filtered base: Prop. 2 entailment is unsound", nil
	default:
		return false, "first operator does not entail the base key linkage", nil
	}
}

func (syncSkipRule) Apply(c *Context) (string, error) {
	c.plan.foldPrefix(RoundBaseMD1, 1, "base+MD1")
	return "base sync folded into MD1 (Prop. 2)", nil
}

// groupReduceCoordRule derives the Thm. 4 coordinator-side reduction
// predicates ¬ψ_i: the coordinator ships each site only the base tuples the
// site can contribute to.
type groupReduceCoordRule struct{}

func (groupReduceCoordRule) Name() string { return "group-reduce-coord" }

func (groupReduceCoordRule) Applies(c *Context) (bool, string, error) {
	if c.plan.fullLocal() {
		return false, "fully local plan ships no base fragments", nil
	}
	if len(c.Query().Ops) == 0 {
		return false, "no operators", nil
	}
	if !c.plan.operatorRounds() {
		return false, "no coordinator-driven operator rounds to reduce", nil
	}
	return true, "", nil
}

func (groupReduceCoordRule) Apply(c *Context) (string, error) {
	p := c.plan
	xs, err := c.XSchemas()
	if err != nil {
		return "", err
	}
	dist := c.Catalog.Distribution(p.Query.Base.Detail)
	derived := 0
	for i := range p.Steps {
		r := &p.Steps[i]
		if r.Kind != RoundOperator {
			continue // evaluated locally; nothing is shipped
		}
		op := p.Query.Ops[r.UpTo-1]
		opDist := dist
		if op.Detail != p.Query.Base.Detail {
			opDist = c.Catalog.Distribution(op.Detail)
			if opDist != nil && opDist.NumSites != c.NumSites {
				return "", fmt.Errorf("plan: catalog describes %d sites for %q, executing on %d",
					opDist.NumSites, op.Detail, c.NumSites)
			}
		}
		preds, ok, err := distrib.GroupReducers(op, xs[r.UpTo-1], opDist)
		if err != nil {
			return "", err
		}
		if ok {
			r.Reducers = preds
			derived++
		}
	}
	return fmt.Sprintf("reduction predicates for %d of %d operator round(s)", derived, len(p.Query.Ops)), nil
}

// groupReduceSiteRule sets the distribution-independent Prop. 1 guard: sites
// return only groups with |RNG| > 0.
type groupReduceSiteRule struct{}

func (groupReduceSiteRule) Name() string { return "group-reduce-site" }

func (groupReduceSiteRule) Applies(c *Context) (bool, string, error) {
	if !c.plan.operatorRounds() {
		return false, "no coordinator-driven operator rounds to guard", nil
	}
	return true, "", nil
}

func (groupReduceSiteRule) Apply(c *Context) (string, error) {
	for i := range c.plan.Steps {
		c.plan.Steps[i].Guard = c.plan.Steps[i].Kind == RoundOperator
	}
	return "sites return only groups with |RNG| > 0 (Prop. 1)", nil
}

// groupReduceObservedRule bounds an operator round's fragments by an earlier
// guarded round's answers. Under the Prop. 1 guard, site i reports exactly
// the X rows some θ of operator k matched there. If every grouping variable
// of a later operator k′ over the same detail relation has all the conjuncts
// of some θ of operator k among its own top-level conjuncts, a row site i
// did not report in round k matches nothing there in round k′ either: the
// conjuncts read only detail rows and X columns that existed at round k,
// which X never rewrites. So round k′ ships site i only the rows it reported
// (Thm. 4 with the observed answers as φ_i).
type groupReduceObservedRule struct{}

func (groupReduceObservedRule) Name() string { return "group-reduce-observed" }

func (groupReduceObservedRule) Applies(c *Context) (bool, string, error) {
	if !c.plan.operatorRounds() {
		return false, "no coordinator-driven operator rounds to reduce", nil
	}
	if observedSources(c.plan) != nil {
		return true, "", nil
	}
	for _, r := range c.plan.Steps {
		if r.Guard {
			return false, "no operator round's conditions contain an earlier guarded round's", nil
		}
	}
	return false, "no guarded operator round to observe", nil
}

func (groupReduceObservedRule) Apply(c *Context) (string, error) {
	p := c.plan
	src := observedSources(p)
	derived := 0
	for i, k := range src {
		if k > 0 {
			p.Steps[i].Observed = k
			derived++
		}
	}
	return fmt.Sprintf("observed reduction for %d of %d operator round(s)", derived, len(p.Query.Ops)), nil
}

// observedSources returns, per round of p, the UpTo of the latest earlier
// guarded operator round whose answers bound it (0 for none), or nil when no
// round has one. The latest source is the tightest: its own fragments were
// already bounded by any earlier source that contains it.
func observedSources(p *Plan) []int {
	var src []int
	for i, r := range p.Steps {
		if r.Kind != RoundOperator {
			continue
		}
		op := p.Query.Ops[r.UpTo-1]
		for j := i - 1; j >= 0; j-- {
			e := p.Steps[j]
			if e.Kind != RoundOperator || !e.Guard || !containsConditions(op, p.Query.Ops[e.UpTo-1]) {
				continue
			}
			if src == nil {
				src = make([]int, len(p.Steps))
			}
			src[i] = e.UpTo
			break
		}
	}
	return src
}

// containsConditions reports whether a row matching some grouping variable
// of later also matches some grouping variable of earlier, read off the
// conditions' text: both read the same detail relation, and every variable
// of later has, among its top-level conjuncts, all those of one variable of
// earlier. Conjuncts compare by their canonical text, which keeps literal
// kinds apart (2 is not 2.0).
func containsConditions(later, earlier gmdj.Operator) bool {
	if later.Detail != earlier.Detail {
		return false
	}
	for _, lv := range later.Vars {
		have := make(map[string]bool)
		for _, e := range expr.Conjuncts(lv.Cond) {
			have[e.String()] = true
		}
		holds := func(ev gmdj.GroupVar) bool {
			for _, e := range expr.Conjuncts(ev.Cond) {
				if !have[e.String()] {
					return false
				}
			}
			return true
		}
		if !slices.ContainsFunc(earlier.Vars, holds) {
			return false
		}
	}
	return true
}
