package plan

import (
	"fmt"
	"sort"
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
	// ModeAuto enumerates rule subsets and picks the cheapest plan under the
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

// SelectAuto lets the cost model choose the rule subset per query.
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
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			if ruleIndex(n) < 0 {
				return Selection{}, fmt.Errorf("plan: unknown rule %q (known: %s)",
					n, strings.Join(RuleNames(), ", "))
			}
			names = append(names, n)
		}
		if len(names) == 0 {
			return Selection{}, fmt.Errorf("plan: empty selection %q (want auto|none|all|rules=...)", s)
		}
		return SelectRules(names...), nil
	}
}

// String renders the selection in the same syntax ParseSelection accepts.
func (s Selection) String() string {
	switch s.Mode {
	case ModeNone:
		return "none"
	case ModeAll:
		return "all"
	case ModeAuto:
		return "auto"
	}
	if len(s.Rules) == 0 {
		return "none"
	}
	return "rules=" + strings.Join(s.Rules, ",")
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
	idx := make([]int, 0, len(s.Rules))
	seen := make(map[int]bool, len(s.Rules))
	for _, n := range s.Rules {
		i := ruleIndex(n)
		if i < 0 {
			return nil, fmt.Errorf("plan: unknown rule %q (known: %s)", n, strings.Join(RuleNames(), ", "))
		}
		if !seen[i] {
			seen[i] = true
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	rules := make([]Rule, len(idx))
	for i, j := range idx {
		rules[i] = registry[j]
	}
	return rules, nil
}

// label canonicalizes the mode string recorded on compiled plans: a rule
// list equal to the full registry reads "all", an empty one "none".
func label(sel Selection, rules []Rule) string {
	switch sel.Mode {
	case ModeAuto:
		return "auto"
	case ModeAll:
		return "all"
	case ModeNone:
		return "none"
	}
	if len(rules) == 0 {
		return "none"
	}
	if len(rules) == len(registry) {
		return "all"
	}
	names := make([]string, len(rules))
	for i, r := range rules {
		names[i] = r.Name()
	}
	return "rules=" + strings.Join(names, ",")
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
	return compileRules(sq, src, cat, numSites, rules, model, label(sel, rules))
}

// compileRules runs the deterministic multi-pass driver: each pass tries the
// not-yet-applied rules in canonical order and re-checks applicability
// against the rewritten draft; a pass that applies nothing ends the loop, so
// the driver reaches a fixpoint in at most len(rules) passes.
func compileRules(q gmdj.Query, src gmdj.SchemaSource, cat *distrib.Catalog, numSites int, rules []Rule, model CostModel, mode string) (*Plan, error) {
	p := &Plan{Query: q, NumSites: numSites, Steps: baselineSteps(len(q.Ops)), Mode: mode}
	c := &Context{Src: src, Catalog: cat, NumSites: numSites, Model: model, plan: p}

	traces := make([]RuleTrace, len(rules))
	for i, r := range rules {
		traces[i] = RuleTrace{Rule: r.Name()}
	}
	for pass := 0; pass <= len(rules); pass++ {
		progressed := false
		for i, r := range rules {
			if traces[i].Applied {
				continue
			}
			ok, why, err := r.Applies(c)
			if err != nil {
				return nil, err
			}
			if !ok {
				traces[i].Detail = why
				continue
			}
			before, err := c.estimate()
			if err != nil {
				return nil, err
			}
			detail, err := r.Apply(c)
			if err != nil {
				return nil, err
			}
			after, err := c.estimate()
			if err != nil {
				return nil, err
			}
			traces[i] = RuleTrace{
				Rule:        r.Name(),
				Applied:     true,
				Detail:      detail,
				DeltaRounds: after.Rounds - before.Rounds,
				DeltaBytes:  after.TotalBytes() - before.TotalBytes(),
			}
			progressed = true
		}
		if !progressed {
			break
		}
	}

	p.Trace = traces
	for _, t := range traces {
		if t.Applied {
			p.Rules = append(p.Rules, t.Rule)
		}
	}
	xs, err := c.XSchemas()
	if err != nil {
		return nil, err
	}
	p.XSchemas = xs
	p.Estimate = model.estimate(p, xs, cat)
	p.Fingerprint = fingerprint(p, cat)
	p.CatalogGen = cat.Gen()
	return p, nil
}

// compileAuto enumerates the subsets of the registry, compiles each, and
// keeps the cheapest under the cost model. A subset with
// group-reduce-observed but not group-reduce-site is skipped: the rule reads
// the guard group-reduce-site sets, so the plan is the one the subset
// without it compiles (2^6 − 2^4 = 48 candidates). Enumeration order is
// deterministic (bitmask over canonical rule order) and ties break toward
// fewer rules, then the lexicographically smaller rule list — so the winner,
// and therefore its fingerprint, is stable across runs.
func compileAuto(q gmdj.Query, src gmdj.SchemaSource, cat *distrib.Catalog, numSites int, model CostModel) (*Plan, error) {
	n := len(registry)
	guard, observed := 1<<ruleIndex("group-reduce-site"), 1<<ruleIndex("group-reduce-observed")
	var best *Plan
	candidates := 0
	for mask := 0; mask < 1<<n; mask++ {
		if mask&observed != 0 && mask&guard == 0 {
			continue
		}
		candidates++
		subset := make([]Rule, 0, n)
		for i, r := range registry {
			if mask&(1<<i) != 0 {
				subset = append(subset, r)
			}
		}
		cand, err := compileRules(q, src, cat, numSites, subset, model, "auto")
		if err != nil {
			return nil, err
		}
		if best == nil || betterPlan(cand, best) {
			best = cand
		}
	}
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
