package plan

import (
	"fmt"
	"slices"
	"strings"

	"skalla/internal/distrib"
	"skalla/internal/gmdj"
)

// Mode selects how the compiler chooses rules.
type Mode uint8

const (
	// ModeRules applies exactly the rules listed in Selection.Rules.
	ModeRules Mode = iota
	// ModeNone applies no rules (the baseline plans of Sect. 5).
	ModeNone
	// ModeAll applies every registered rule that is applicable.
	ModeAll
	// ModeAuto compiles one candidate per subset of the structure rules,
	// each with every annotation rule, and picks the cheapest plan under the
	// cost model by estimated (rounds, bytes down/up).
	ModeAuto
)

// Selection names the rule set a plan should be compiled with.
type Selection struct {
	Mode Mode
	// Rules lists rule names for ModeRules; ignored otherwise.
	Rules []string
}

// SelectNone compiles baseline plans.
func SelectNone() Selection { return Selection{Mode: ModeNone} }

// SelectAll applies every applicable rule.
func SelectAll() Selection { return Selection{Mode: ModeAll} }

// SelectAuto lets the cost model choose the structure rules per query.
func SelectAuto() Selection { return Selection{Mode: ModeAuto} }

// SelectRules applies exactly the named rules.
func SelectRules(names ...string) Selection {
	return Selection{Mode: ModeRules, Rules: append([]string(nil), names...)}
}

// ParseSelection parses the textual plan-mode syntax used by the CLIs:
// "auto", "none", "all", "rules=a,b,..." (or a bare comma list of rule
// names).
func ParseSelection(s string) (Selection, error) {
	switch t := strings.TrimSpace(s); t {
	case "auto":
		return SelectAuto(), nil
	case "none":
		return SelectNone(), nil
	case "all":
		return SelectAll(), nil
	default:
		list := strings.TrimPrefix(t, "rules=")
		if list == "" {
			return Selection{}, fmt.Errorf("plan: empty selection %q (want auto|none|all|rules=...)", s)
		}
		var names []string
		for _, n := range strings.Split(list, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
		if len(names) == 0 {
			return Selection{}, fmt.Errorf("plan: empty selection %q (want auto|none|all|rules=...)", s)
		}
		sel := SelectRules(names...)
		if _, err := sel.resolve(); err != nil {
			return Selection{}, err
		}
		return sel, nil
	}
}

// String renders the selection canonically, in the syntax ParseSelection
// accepts: a rule list in registry order without duplicates, the full
// registry as "all" and the empty set as "none", so two selections that
// compile the same plans render the same text. A list naming an unknown rule
// renders as given.
func (s Selection) String() string {
	if s.Mode == ModeAuto {
		return "auto"
	}
	rules, err := s.resolve()
	switch {
	case err != nil:
		return "rules=" + strings.Join(s.Rules, ",")
	case len(rules) == 0:
		return "none"
	case len(rules) == len(registry):
		return "all"
	}
	names := make([]string, len(rules))
	for i, r := range rules {
		names[i] = r.Name()
	}
	return "rules=" + strings.Join(names, ",")
}

// resolve maps the selection to registry rules in canonical order,
// deduplicated; unknown names error.
func (s Selection) resolve() ([]Rule, error) {
	switch s.Mode {
	case ModeNone:
		return nil, nil
	case ModeAll, ModeAuto:
		return registry, nil
	}
	for _, n := range s.Rules {
		if ruleIndex(n) < 0 {
			return nil, fmt.Errorf("plan: unknown rule %q (known: %s)", n, strings.Join(RuleNames(), ", "))
		}
	}
	var rules []Rule
	for _, r := range registry {
		if slices.Contains(s.Rules, r.Name()) {
			rules = append(rules, r)
		}
	}
	return rules, nil
}

// RuleTrace records one rule's outcome during compilation: whether it
// applied, what it did (or why it was skipped), and the estimated cost delta
// its rewrite produced under the cost model.
type RuleTrace struct {
	Rule    string
	Applied bool
	// Detail describes the rewrite when applied, or the skip reason.
	Detail string
	// DeltaRounds and DeltaBytes are estimate(after) − estimate(before) for
	// applied rules (negative = saved).
	DeltaRounds int
	DeltaBytes  int64
}

// Compile compiles a plan for the given rule selection and cost model. The
// schema source provides detail schemas; cat may be nil when no distribution
// knowledge exists, which disables the distribution-aware rules.
func Compile(q gmdj.Query, src gmdj.SchemaSource, cat *distrib.Catalog, numSites int, sel Selection, model CostModel) (*Plan, error) {
	if numSites <= 0 {
		return nil, fmt.Errorf("plan: numSites = %d", numSites)
	}
	if err := q.Validate(src); err != nil {
		return nil, err
	}
	// Distribution knowledge must describe the same deployment.
	if dist := cat.Distribution(q.Base.Detail); dist != nil && dist.NumSites != numSites {
		return nil, fmt.Errorf("plan: catalog describes %d sites for %q, executing on %d",
			dist.NumSites, q.Base.Detail, numSites)
	}
	// Simplify every condition before the rules run and before shipping
	// anything: constant folding and logical-identity elimination shrink the
	// wire plans and can expose equality links (e.g. a front end emitting
	// "true && B.k = R.k") to the Sect. 4 analyses.
	sq := simplifyQuery(q)

	if sel.Mode == ModeAuto {
		return compileAuto(sq, src, cat, numSites, model)
	}
	rules, err := sel.resolve()
	if err != nil {
		return nil, err
	}
	return compileRules(sq, src, cat, numSites, rules, model, sel.String())
}

// compileRules applies the rules once each, in canonical order. It prices
// the draft before the first rule and again after each rule that changed it,
// so an applied rule's Δcost is measured from the previous applied rule's
// estimate, and the last estimate is the plan's.
func compileRules(q gmdj.Query, src gmdj.SchemaSource, cat *distrib.Catalog, numSites int, rules []Rule, model CostModel, mode string) (*Plan, error) {
	p := &Plan{Query: q, NumSites: numSites, Steps: baselineSteps(len(q.Ops)), Mode: mode}
	c := &Context{Src: src, Catalog: cat, NumSites: numSites, Model: model, plan: p}
	est, err := c.estimate()
	if err != nil {
		return nil, err
	}
	p.Trace = make([]RuleTrace, len(rules))
	for i, r := range rules {
		applied, detail, err := r.Apply(c)
		if err != nil {
			return nil, err
		}
		p.Trace[i] = RuleTrace{Rule: r.Name(), Applied: applied, Detail: detail}
		if !applied {
			continue
		}
		after, err := c.estimate()
		if err != nil {
			return nil, err
		}
		p.Trace[i].DeltaRounds = after.Rounds - est.Rounds
		p.Trace[i].DeltaBytes = after.TotalBytes() - est.TotalBytes()
		p.Rules = append(p.Rules, r.Name())
		est = after
	}
	p.XSchemas = c.xschemas
	p.Estimate = est
	p.Fingerprint = fingerprint(p, cat)
	p.CatalogGen = cat.Gen()
	return p, nil
}

// compileAuto compiles one candidate per subset of the structure rules, each
// followed by every annotation rule, and keeps the cheapest under the cost
// model. No annotation raises an estimate (Reducers cap the rows down at |Q|,
// Guard halves the rows up, Observed halves the rows down), so for a given
// structure the plan with every applicable annotation is the cheapest, and
// these 2^3 candidates reach the minimum over all 2^6 rule subsets.
// Enumeration is a bitmask over canonical rule order and ties break toward
// fewer rules, then the lexicographically smaller rule list, so the winner,
// and therefore its fingerprint, is stable across runs. The winner's trace
// keeps only the rules it applied.
func compileAuto(q gmdj.Query, src gmdj.SchemaSource, cat *distrib.Catalog, numSites int, model CostModel) (*Plan, error) {
	var best *Plan
	candidates := 1 << len(structureRules)
	for mask := 0; mask < candidates; mask++ {
		rules := make([]Rule, 0, len(registry))
		for i, r := range structureRules {
			if mask&(1<<i) != 0 {
				rules = append(rules, r)
			}
		}
		cand, err := compileRules(q, src, cat, numSites, append(rules, annotationRules...), model, "auto")
		if err != nil {
			return nil, err
		}
		if best == nil || betterPlan(cand, best) {
			best = cand
		}
	}
	best.Trace = slices.DeleteFunc(best.Trace, func(t RuleTrace) bool { return !t.Applied })
	best.Candidates = candidates
	return best, nil
}

// betterPlan orders candidate plans: estimated cost first (rounds, total
// bytes, bytes down), then fewer applied rules, then the lexicographically
// smaller rule list. Strict order — a later candidate replaces an earlier one
// only when genuinely better, keeping enumeration deterministic.
func betterPlan(a, b *Plan) bool {
	if c := a.Estimate.Compare(b.Estimate); c != 0 {
		return c < 0
	}
	if len(a.Rules) != len(b.Rules) {
		return len(a.Rules) < len(b.Rules)
	}
	return strings.Join(a.Rules, ",") < strings.Join(b.Rules, ",")
}
