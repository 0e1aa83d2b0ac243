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
	// Apply rewrites the draft and reports whether it changed the query or a
	// Round, with a one-line description of what changed. When it changed
	// nothing, detail is the reason (surfaced in the explain trace) and the
	// draft is untouched.
	Apply(c *Context) (applied bool, detail string, err error)
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

// The registry holds every rule in canonical application order, and the
// driver applies each once in that order. Each rule reads only what earlier
// rules write, so one pass is the fixpoint. The structure rules decide which
// rounds exist: coalesce rewrites the query, so it runs first; local-prefix
// and sync-skip then fold rounds of the final operator chain. The annotation
// rules mark the operator rounds that remain: group-reduce-coord sets
// Reducers, group-reduce-site sets Guard, and group-reduce-observed reads
// Guard to set Observed.
var (
	structureRules  = []Rule{coalesceRule{}, localPrefixRule{}, syncSkipRule{}}
	annotationRules = []Rule{groupReduceCoordRule{}, groupReduceSiteRule{}, groupReduceObservedRule{}}
	registry        = append(append([]Rule(nil), structureRules...), annotationRules...)
)

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

func (coalesceRule) Apply(c *Context) (bool, string, error) {
	cq, merges, err := gmdj.Coalesce(c.Query(), c.Src)
	if err != nil {
		return false, "", err
	}
	if merges == 0 {
		return false, "no adjacent independent operators", nil
	}
	c.SetQuery(cq)
	c.plan.Merges += merges
	return true, fmt.Sprintf("merged %d operator pair(s), %d round(s) saved", merges, merges), nil
}

// localPrefixRule evaluates a partition-aligned operator prefix entirely at
// the sites with one synchronization at its end (Thm. 5; Cor. 1 when the
// prefix covers the whole chain).
type localPrefixRule struct{}

func (localPrefixRule) Name() string { return "local-prefix" }

func (localPrefixRule) Apply(c *Context) (bool, string, error) {
	p := c.plan
	switch k := distrib.LocalPrefixLen(p.Query, c.Catalog); k {
	case 0:
		return false, "no partition-aligned operator prefix", nil
	case len(p.Query.Ops):
		p.foldPrefix(RoundLocalPrefix, k, "local-all")
		return true, "full local evaluation (Cor. 1), single round", nil
	default:
		p.foldPrefix(RoundLocalPrefix, k, fmt.Sprintf("local-MD1..MD%d", k))
		return true, fmt.Sprintf("MD1..MD%d evaluated locally (Thm. 5 prefix)", k), nil
	}
}

// syncSkipRule folds the base-values synchronization into the first operator
// round (Prop. 2) when MD1 reads the base's detail relation and each of its
// variables links every key to itself (distrib.CanSkipBaseSync). A filtered
// base folds too, with a witness: a detail row can match a group whose
// σ-rows all live at other sites, so no site may filter its local base.
// Each site evaluates its unfiltered base and MD1 and counts, per group, the
// rows σ admits; the coordinator sums the counts and drops the groups whose
// total is 0 — Prop. 1's |RNG| > 0 test applied to σ. The query is not
// rewritten, so WHERE keeps its base-only meaning.
type syncSkipRule struct{}

func (syncSkipRule) Name() string { return "sync-skip" }

func (syncSkipRule) Apply(c *Context) (bool, string, error) {
	q := c.Query()
	switch {
	case c.plan.Steps[0].Kind == RoundLocalPrefix:
		return false, "local prefix already folds the base sync", nil
	case distrib.CanSkipBaseSync(q):
		c.plan.foldPrefix(RoundBaseMD1, 1, "base+MD1")
		if q.Base.Where == nil {
			return true, "base sync folded into MD1 (Prop. 2)", nil
		}
		c.plan.Steps[0].Witness = true
		return true, "base sync folded into MD1 (Prop. 2), σ counted by a witness", nil
	case len(q.Ops) == 0:
		return false, "no operators", nil
	case q.Base.Where != nil && len(q.Base.GroupingSets) > 0:
		return false, "filtered base with grouping sets: the witness pass does not cover it", nil
	default:
		return false, "first operator does not entail the base key linkage", nil
	}
}

// groupReduceCoordRule derives the Thm. 4 coordinator-side reduction
// predicates ¬ψ_i: the coordinator ships each site only the base tuples the
// site can contribute to.
type groupReduceCoordRule struct{}

func (groupReduceCoordRule) Name() string { return "group-reduce-coord" }

func (groupReduceCoordRule) Apply(c *Context) (bool, string, error) {
	p := c.plan
	switch {
	case p.fullLocal():
		return false, "fully local plan ships no base fragments", nil
	case len(p.Query.Ops) == 0:
		return false, "no operators", nil
	case !p.operatorRounds():
		return false, "no coordinator-driven operator rounds to reduce", nil
	}
	xs, err := c.XSchemas()
	if err != nil {
		return false, "", err
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
				return false, "", fmt.Errorf("plan: catalog describes %d sites for %q, executing on %d",
					opDist.NumSites, op.Detail, c.NumSites)
			}
		}
		preds, ok, err := distrib.GroupReducers(op, xs[r.UpTo-1], opDist)
		if err != nil {
			return false, "", err
		}
		if ok {
			r.Reducers = preds
			derived++
		}
	}
	if derived == 0 {
		return false, "no operator round has a Thm. 4 reduction", nil
	}
	return true, fmt.Sprintf("reduction predicates for %d of %d operator round(s)", derived, len(p.Query.Ops)), nil
}

// groupReduceSiteRule sets the distribution-independent Prop. 1 guard: sites
// return only groups with |RNG| > 0.
type groupReduceSiteRule struct{}

func (groupReduceSiteRule) Name() string { return "group-reduce-site" }

func (groupReduceSiteRule) Apply(c *Context) (bool, string, error) {
	if !c.plan.operatorRounds() {
		return false, "no coordinator-driven operator rounds to guard", nil
	}
	for i := range c.plan.Steps {
		c.plan.Steps[i].Guard = c.plan.Steps[i].Kind == RoundOperator
	}
	return true, "sites return only groups with |RNG| > 0 (Prop. 1)", nil
}

// groupReduceObservedRule bounds an operator round's fragments by an earlier
// round's answers. Under the Prop. 1 guard, site i reports exactly the X rows
// some θ of operator k matched there. If every grouping variable of a later
// operator k′ over the same detail relation has all the conjuncts of some θ
// of operator k among its own top-level conjuncts, a row site i did not
// report in round k matches nothing there in round k′ either: the conjuncts
// read only detail rows and X columns that existed at round k, which X never
// rewrites. A local round (base+MD1 or a Thm. 5 prefix) is a source too, for
// a later operator over the base's detail relation whose every θ links every
// key to itself: site i's local reply holds every group with a detail row at
// site i that X keeps, and a row of site i matching such a θ is one of those
// groups' rows. So round k′ ships site i only the rows it reported (Thm. 4
// with the observed answers as φ_i).
type groupReduceObservedRule struct{}

func (groupReduceObservedRule) Name() string { return "group-reduce-observed" }

func (groupReduceObservedRule) Apply(c *Context) (bool, string, error) {
	p := c.plan
	if !p.operatorRounds() {
		return false, "no coordinator-driven operator rounds to reduce", nil
	}
	derived, guarded, local := 0, false, false
	for i, r := range p.Steps {
		guarded = guarded || r.Guard
		local = local || r.Kind == RoundBaseMD1 || r.Kind == RoundLocalPrefix
		if k := observedSource(p, i); k > 0 {
			p.Steps[i].Observed = k
			derived++
		}
	}
	switch {
	case derived > 0:
		return true, fmt.Sprintf("observed reduction for %d of %d operator round(s)", derived, len(p.Query.Ops)), nil
	case local:
		return false, "no operator round links every base key after the local round", nil
	case guarded:
		return false, "no operator round's conditions contain an earlier guarded round's", nil
	default:
		return false, "no guarded operator round to observe", nil
	}
}

// observedSource returns the UpTo of the latest round before round i of p
// whose answers bound it — a guarded operator round whose conditions round
// i's contain, or a local round when round i's operator links every base key
// over the base's detail relation — or 0 for none (or when round i is no
// operator round). The latest source is the tightest: its own fragments were
// already bounded by any earlier source that contains it.
func observedSource(p *Plan, i int) int {
	if p.Steps[i].Kind != RoundOperator {
		return 0
	}
	op := p.Query.Ops[p.Steps[i].UpTo-1]
	for j := i - 1; j >= 0; j-- {
		switch e := p.Steps[j]; e.Kind {
		case RoundOperator:
			if e.Guard && containsConditions(op, p.Query.Ops[e.UpTo-1]) {
				return e.UpTo
			}
		case RoundBaseMD1, RoundLocalPrefix:
			if distrib.SelfLinksBase(p.Query, op) {
				return e.UpTo
			}
		}
	}
	return 0
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
