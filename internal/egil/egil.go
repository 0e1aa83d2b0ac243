// Package egil is the Skalla query front end, named after the paper's GMDJ
// query optimizer (Sect. 3.2: "the Skalla query engine uses Egil, a GMDJ
// query optimizer, to translate the OLAP query into GMDJ expressions"). It
// parses a small SQL-style OLAP dialect and translates it into the complex
// GMDJ expressions the distributed engine executes:
//
//	SELECT SourceAS, DestAS, COUNT(*) AS cnt, AVG(NumBytes) AS avgBytes
//	FROM Flow
//	WHERE NumBytes > 0
//	GROUP BY SourceAS, DestAS
//
// GROUP BY may be replaced by CUBE BY or ROLLUP BY (Gray et al.'s operators,
// translated through grouping sets), and a trailing
//
//	HAVING EACH <condition>
//
// clause adds a second, correlated GMDJ operator counting the detail rows
// that satisfy the condition per group (the condition may reference the
// SELECT aliases, e.g. HAVING EACH NumBytes >= avgBytes — the paper's
// Example 1 shape). Bare identifiers in WHERE and HAVING EACH refer to
// detail columns; aliases of selected aggregates refer to the group's
// aggregates.
package egil

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"skalla/internal/agg"
	"skalla/internal/expr"
	"skalla/internal/gmdj"
	"skalla/internal/olap"
	"skalla/internal/relation"
)

// GroupKind distinguishes the grouping clause.
type GroupKind uint8

const (
	// GroupBy is plain GROUP BY.
	GroupBy GroupKind = iota
	// CubeBy is CUBE BY (all 2^n grouping sets).
	CubeBy
	// RollupBy is ROLLUP BY (prefix grouping sets).
	RollupBy
)

// Statement is a parsed OLAP statement.
type Statement struct {
	Detail     string
	Dims       []string // selected plain columns == grouping columns
	Aggs       []agg.Spec
	Where      string // raw condition text (bare identifiers = detail columns)
	Group      GroupKind
	GroupCols  []string
	HavingEach string // raw condition text for the correlated second operator
	OrderBy    string // result column for client-side ordering ("" = none)
	OrderDesc  bool
	Limit      int // max result rows after ordering (0 = all)
}

// Translate parses the statement text and produces the GMDJ expression.
func Translate(input string) (gmdj.Query, error) {
	st, err := ParseStatement(input)
	if err != nil {
		return gmdj.Query{}, err
	}
	return st.ToQuery()
}

// ParseStatement parses the SQL-style dialect into a Statement.
func ParseStatement(input string) (*Statement, error) {
	clauses, err := splitClauses(input)
	if err != nil {
		return nil, err
	}
	st := &Statement{}
	sel, ok := clauses["select"]
	if !ok {
		return nil, fmt.Errorf("egil: missing SELECT")
	}
	from, ok := clauses["from"]
	if !ok {
		return nil, fmt.Errorf("egil: missing FROM")
	}
	st.Detail = strings.TrimSpace(from)
	if st.Detail == "" || strings.ContainsAny(st.Detail, " \t") {
		return nil, fmt.Errorf("egil: FROM needs exactly one relation name, got %q", from)
	}
	if err := st.parseSelectList(sel); err != nil {
		return nil, err
	}
	st.Where = strings.TrimSpace(clauses["where"])
	st.HavingEach = strings.TrimSpace(clauses["having each"])
	if ob, ok := clauses["order by"]; ok {
		fields := strings.Fields(ob)
		switch {
		case len(fields) == 1:
			st.OrderBy = fields[0]
		case len(fields) == 2 && strings.EqualFold(fields[1], "desc"):
			st.OrderBy, st.OrderDesc = fields[0], true
		case len(fields) == 2 && strings.EqualFold(fields[1], "asc"):
			st.OrderBy = fields[0]
		default:
			return nil, fmt.Errorf("egil: ORDER BY takes one column with optional ASC/DESC, got %q", ob)
		}
	}
	if lim, ok := clauses["limit"]; ok {
		n, err := strconv.Atoi(strings.TrimSpace(lim))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("egil: LIMIT needs a positive integer, got %q", lim)
		}
		st.Limit = n
	}

	groupClauses := 0
	if g, ok := clauses["group by"]; ok {
		st.Group, st.GroupCols = GroupBy, splitNames(g)
		groupClauses++
	}
	if g, ok := clauses["cube by"]; ok {
		st.Group, st.GroupCols = CubeBy, splitNames(g)
		groupClauses++
	}
	if g, ok := clauses["rollup by"]; ok {
		st.Group, st.GroupCols = RollupBy, splitNames(g)
		groupClauses++
	}
	if groupClauses != 1 {
		return nil, fmt.Errorf("egil: exactly one of GROUP BY / CUBE BY / ROLLUP BY is required")
	}
	if len(st.GroupCols) == 0 {
		return nil, fmt.Errorf("egil: empty grouping column list")
	}
	// Every selected plain column must be a grouping column, and vice versa
	// (SQL's GROUP BY discipline; the dims drive the base-values relation).
	if err := sameNameSet(st.Dims, st.GroupCols); err != nil {
		return nil, err
	}
	return st, nil
}

// Postprocess applies the statement's client-side clauses (ORDER BY, LIMIT)
// to an executed result relation. The coordinator applies it
// after distributed evaluation — ordering and truncation are presentation,
// not part of the GMDJ algebra. Only rel's own header changes
// (relation.KeepRows), so a body shared with other consumers (a cached or
// single-flighted result) is never permuted or written.
func (st *Statement) Postprocess(rel *relation.Relation) error {
	n := rel.Len()
	if st.OrderBy == "" && (st.Limit <= 0 || n <= st.Limit) {
		return nil
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	if st.OrderBy != "" {
		idx := rel.Schema.Index(st.OrderBy)
		if idx < 0 {
			return fmt.Errorf("egil: ORDER BY column %q not in result %s", st.OrderBy, rel.Schema)
		}
		keys := make([]relation.Value, n)
		for i := range keys {
			keys[i] = rel.Value(i, idx)
		}
		sort.SliceStable(order, func(i, j int) bool {
			a, b := keys[order[i]], keys[order[j]]
			c, ok := a.Compare(b)
			if !ok {
				// NULLs (and incomparables) sort first ascending, last descending.
				c = 0
				if a.IsNull() && !b.IsNull() {
					c = -1
				} else if !a.IsNull() && b.IsNull() {
					c = 1
				}
			}
			if st.OrderDesc {
				return c > 0
			}
			return c < 0
		})
	}
	if st.Limit > 0 && n > st.Limit {
		order = order[:st.Limit]
	}
	rel.KeepRows(order)
	return nil
}

// ToQuery translates the statement into a complex GMDJ expression.
func (st *Statement) ToQuery() (gmdj.Query, error) {
	if len(st.Aggs) == 0 {
		return gmdj.Query{}, fmt.Errorf("egil: SELECT needs at least one aggregate")
	}
	var q gmdj.Query
	var err error
	switch st.Group {
	case GroupBy:
		conjuncts := make([]expr.Expr, len(st.GroupCols))
		for i, c := range st.GroupCols {
			conjuncts[i] = expr.Eq(expr.C(expr.SideBase, c), expr.C(expr.SideDetail, c))
		}
		q = gmdj.Query{
			Base: gmdj.BaseQuery{Detail: st.Detail, Cols: st.GroupCols},
			Ops: []gmdj.Operator{{Detail: st.Detail, Vars: []gmdj.GroupVar{{
				Aggs: st.Aggs,
				Cond: expr.And(conjuncts...),
			}}}},
		}
	case CubeBy:
		q, err = olap.CubeQuery(st.Detail, st.GroupCols, st.Aggs)
	case RollupBy:
		q, err = olap.RollupQuery(st.Detail, st.GroupCols, st.Aggs)
	}
	if err != nil {
		return gmdj.Query{}, err
	}
	if st.Where != "" {
		w, err := expr.ParseDefaultSide(st.Where, expr.SideDetail)
		if err != nil {
			return gmdj.Query{}, fmt.Errorf("egil: WHERE: %w", err)
		}
		if expr.ReferencesBase(w) {
			return gmdj.Query{}, fmt.Errorf("egil: WHERE may only reference detail columns")
		}
		q.Base.Where = w
	}
	if st.HavingEach != "" {
		if st.Group != GroupBy {
			return gmdj.Query{}, fmt.Errorf("egil: HAVING EACH requires GROUP BY")
		}
		cond, err := st.havingCond()
		if err != nil {
			return gmdj.Query{}, err
		}
		q.Ops = append(q.Ops, gmdj.Operator{Detail: st.Detail, Vars: []gmdj.GroupVar{{
			Aggs: []agg.Spec{{Func: agg.Count, As: "matching"}},
			Cond: cond,
		}}})
	}
	return q, nil
}

// havingCond builds the correlated second operator's condition: the group
// linkage conjuncts plus the user condition, in which bare identifiers
// resolve to detail columns except the SELECT aliases, which resolve to the
// base side (the group's aggregates).
func (st *Statement) havingCond() (expr.Expr, error) {
	raw, err := expr.ParseDefaultSide(st.HavingEach, expr.SideDetail)
	if err != nil {
		return nil, fmt.Errorf("egil: HAVING EACH: %w", err)
	}
	aliases := make(map[string]struct{}, len(st.Aggs))
	for _, a := range st.Aggs {
		aliases[a.As] = struct{}{}
	}
	user := rewriteAliases(raw, aliases)
	conjuncts := make([]expr.Expr, 0, len(st.GroupCols)+1)
	for _, c := range st.GroupCols {
		conjuncts = append(conjuncts, expr.Eq(expr.C(expr.SideBase, c), expr.C(expr.SideDetail, c)))
	}
	conjuncts = append(conjuncts, user)
	return expr.And(conjuncts...), nil
}

// rewriteAliases flips detail-side references whose names are aggregate
// aliases to the base side.
func rewriteAliases(e expr.Expr, aliases map[string]struct{}) expr.Expr {
	switch n := e.(type) {
	case *expr.Col:
		if n.Side == expr.SideDetail {
			if _, ok := aliases[n.Name]; ok {
				return expr.C(expr.SideBase, n.Name)
			}
		}
		return n
	case *expr.Bin:
		return expr.B2(n.Op, rewriteAliases(n.L, aliases), rewriteAliases(n.R, aliases))
	case *expr.Un:
		return &expr.Un{Op: n.Op, X: rewriteAliases(n.X, aliases)}
	default:
		return e
	}
}

// parseSelectList splits the SELECT list into plain dimension columns and
// aggregate specs.
func (st *Statement) parseSelectList(sel string) error {
	items, err := splitTopLevel(sel, ',')
	if err != nil {
		return err
	}
	autoName := 0
	for _, item := range items {
		item = strings.TrimSpace(item)
		if item == "" {
			return fmt.Errorf("egil: empty SELECT item")
		}
		if !strings.Contains(item, "(") {
			if strings.ContainsAny(item, " \t") {
				return fmt.Errorf("egil: SELECT item %q: plain columns take no alias", item)
			}
			st.Dims = append(st.Dims, item)
			continue
		}
		spec, err := parseAggItem(item, &autoName)
		if err != nil {
			return err
		}
		st.Aggs = append(st.Aggs, spec)
	}
	return nil
}

var aggFuncs = map[string]agg.Func{
	"count": agg.Count, "sum": agg.Sum, "avg": agg.Avg, "min": agg.Min, "max": agg.Max,
	"variance": agg.Variance, "stdev": agg.StdDev,
}

func parseAggItem(item string, autoName *int) (agg.Spec, error) {
	open := strings.Index(item, "(")
	closing := strings.LastIndex(item, ")")
	if open < 0 || closing < open {
		return agg.Spec{}, fmt.Errorf("egil: malformed aggregate %q", item)
	}
	fn, ok := aggFuncs[strings.ToLower(strings.TrimSpace(item[:open]))]
	if !ok {
		return agg.Spec{}, fmt.Errorf("egil: unknown aggregate function in %q", item)
	}
	arg := strings.TrimSpace(item[open+1 : closing])
	if arg == "*" {
		if fn != agg.Count {
			return agg.Spec{}, fmt.Errorf("egil: only COUNT accepts * (%q)", item)
		}
		arg = ""
	} else if arg == "" || strings.ContainsAny(arg, " \t(,") {
		return agg.Spec{}, fmt.Errorf("egil: aggregate argument must be a single column (%q)", item)
	}
	rest := strings.TrimSpace(item[closing+1:])
	name := ""
	if rest != "" {
		fields := strings.Fields(rest)
		if len(fields) != 2 || !strings.EqualFold(fields[0], "as") {
			return agg.Spec{}, fmt.Errorf("egil: expected AS <alias> after aggregate (%q)", item)
		}
		name = fields[1]
	} else {
		*autoName++
		base := strings.ToLower(fnName(fn))
		if arg != "" {
			name = fmt.Sprintf("%s_%s", base, arg)
		} else {
			name = fmt.Sprintf("%s_%d", base, *autoName)
		}
	}
	return agg.Spec{Func: fn, Arg: arg, As: name}, nil
}

func fnName(f agg.Func) string {
	switch f {
	case agg.Count:
		return "count"
	case agg.Sum:
		return "sum"
	case agg.Avg:
		return "avg"
	case agg.Min:
		return "min"
	case agg.Max:
		return "max"
	case agg.Variance:
		return "variance"
	default:
		return "stdev"
	}
}

// clause keywords, longest first so "group by" wins over bare scanning.
var clauseKeywords = []string{"select", "from", "where", "group by", "cube by", "rollup by", "having each", "order by", "limit"}

// splitClauses slices the input at top-level clause keywords
// (case-insensitive, whitespace-normalized). Keywords inside parentheses or
// quotes do not split.
func splitClauses(input string) (map[string]string, error) {
	norm := normalizeSpace(input)
	type hit struct {
		kw  string
		pos int
		end int
	}
	var hits []hit
	lower := asciiLower(norm)
	depth := 0
	inStr := false
	for i := 0; i < len(lower); i++ {
		switch lower[i] {
		case '\'':
			inStr = !inStr
			continue
		case '(':
			if !inStr {
				depth++
			}
			continue
		case ')':
			if !inStr {
				depth--
			}
			continue
		}
		if inStr || depth != 0 {
			continue
		}
		if i > 0 && lower[i-1] != ' ' {
			continue // keyword must start at a word boundary
		}
		for _, kw := range clauseKeywords {
			if strings.HasPrefix(lower[i:], kw) {
				end := i + len(kw)
				if end < len(lower) && lower[end] != ' ' {
					continue // identifier prefix like "fromage"
				}
				hits = append(hits, hit{kw: kw, pos: i, end: end})
				i = end - 1
				break
			}
		}
	}
	if len(hits) == 0 || hits[0].kw != "select" || hits[0].pos != 0 {
		return nil, fmt.Errorf("egil: statement must start with SELECT")
	}
	out := make(map[string]string, len(hits))
	for i, h := range hits {
		stop := len(norm)
		if i+1 < len(hits) {
			stop = hits[i+1].pos
		}
		if _, dup := out[h.kw]; dup {
			return nil, fmt.Errorf("egil: duplicate %s clause", strings.ToUpper(h.kw))
		}
		out[h.kw] = strings.TrimSpace(norm[h.end:stop])
	}
	return out, nil
}

// asciiLower lowercases A-Z byte for byte and leaves every other byte alone,
// so an offset into the result is the same offset into s. strings.ToLower is
// not: it re-encodes invalid UTF-8 and some runes (İ) to other lengths.
func asciiLower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

func normalizeSpace(s string) string {
	return strings.Join(strings.Fields(s), " ")
}

// splitTopLevel splits on sep outside parentheses and quotes.
func splitTopLevel(s string, sep byte) ([]string, error) {
	var out []string
	depth := 0
	inStr := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'':
			inStr = !inStr
		case '(':
			if !inStr {
				depth++
			}
		case ')':
			if !inStr {
				depth--
				if depth < 0 {
					return nil, fmt.Errorf("egil: unbalanced parentheses in %q", s)
				}
			}
		case sep:
			if !inStr && depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if depth != 0 || inStr {
		return nil, fmt.Errorf("egil: unbalanced parentheses or quotes in %q", s)
	}
	out = append(out, s[start:])
	return out, nil
}

func splitNames(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}

func sameNameSet(a, b []string) error {
	as := make(map[string]struct{}, len(a))
	for _, x := range a {
		as[x] = struct{}{}
	}
	bs := make(map[string]struct{}, len(b))
	for _, x := range b {
		bs[x] = struct{}{}
	}
	for x := range as {
		if _, ok := bs[x]; !ok {
			return fmt.Errorf("egil: selected column %q is not in the grouping clause", x)
		}
	}
	for x := range bs {
		if _, ok := as[x]; !ok {
			return fmt.Errorf("egil: grouping column %q is not selected", x)
		}
	}
	return nil
}
