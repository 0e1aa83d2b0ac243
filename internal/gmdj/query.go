// Package gmdj defines the GMDJ (Generalized Multi-Dimensional Join)
// operator of Definition 1 and complex GMDJ expressions (chains where the
// result of an inner GMDJ is the base-values relation of the outer one), a
// centralized reference evaluator, and the coalescing transformation of
// Sect. 4.3. The distributed evaluation lives in internal/core; this package
// is the algebraic core shared by both and the correctness oracle for the
// distributed engine's tests.
package gmdj

import (
	"fmt"
	"strings"

	"skalla/internal/agg"
	"skalla/internal/expr"
	"skalla/internal/relation"
)

// GroupVar is one (l_i, θ_i) pair of an MD operator: a list of aggregate
// functions and the condition that selects, for each base tuple b, the detail
// range RNG(b, R, θ) the aggregates are computed over.
type GroupVar struct {
	Aggs []agg.Spec
	Cond expr.Expr
}

// Operator is one MD operator application: one or more grouping variables
// evaluated against a named detail relation. Multiple grouping variables per
// operator arise naturally from coalescing (Sect. 4.3).
type Operator struct {
	Detail string
	Vars   []GroupVar
}

// OutputColumns returns every column name the operator appends to the
// base-result structure (physical sub-aggregate columns plus derived AVG
// columns), given the detail schema.
func (op Operator) OutputColumns(detail relation.Schema) ([]string, error) {
	var out []string
	for _, v := range op.Vars {
		l, err := agg.NewLayout(v.Aggs, detail)
		if err != nil {
			return nil, err
		}
		for _, c := range l.PhysSchema() {
			out = append(out, c.Name)
		}
		for _, c := range l.DerivedSchema() {
			out = append(out, c.Name)
		}
	}
	return out, nil
}

// ShippedColumns returns the positions, ascending, of the columns of the
// base-result schema x a site needs to evaluate the operator: the key
// attributes and every base-side column one of its conditions reads.
// Aggregate arguments are detail columns, so nothing else of X is ever looked
// at — this is what an operator round ships, and what the cost model prices.
func (op Operator) ShippedColumns(x relation.Schema, keys []string) ([]int, error) {
	need := make([]bool, len(x))
	idx, err := x.Indexes(keys)
	if err != nil {
		return nil, err
	}
	for _, i := range idx {
		need[i] = true
	}
	for _, v := range op.Vars {
		base, _ := expr.Attrs(v.Cond)
		for name := range base {
			i := x.Index(name)
			if i < 0 {
				return nil, fmt.Errorf("gmdj: condition reads %q, which is not in %s", name, x)
			}
			need[i] = true
		}
	}
	var cols []int
	for i, n := range need {
		if n {
			cols = append(cols, i)
		}
	}
	return cols, nil
}

// BaseQuery defines the base-values relation B_0: a distinct projection of a
// detail relation, optionally filtered. The projection columns are the key
// attributes K of the base-values relation.
type BaseQuery struct {
	Detail string
	Cols   []string
	Where  expr.Expr // optional, detail-side only; nil keeps all rows
	// GroupingSets generalizes the distinct projection to SQL grouping sets
	// (and therefore CUBE/ROLLUP, Gray et al. [12]): the base-values
	// relation becomes the union over the sets S of the distinct projection
	// onto Cols with the columns outside S padded with NULL. Conditions of
	// the form (B.d IS NULL || B.d = R.d) then aggregate each detail row
	// into every grouping-set row it rolls up to (see internal/olap). Every
	// set must be a subset of Cols; empty means the single set Cols.
	//
	// As in Gray et al.'s ALL encoding, a NULL produced by rollup is not
	// distinguishable from a NULL occurring in the data.
	GroupingSets [][]string
}

// Query is a complex GMDJ expression: a base query followed by a chain of MD
// operators, each using the previous result as its base-values relation.
type Query struct {
	Base BaseQuery
	Ops  []Operator
}

// Keys returns the key attributes K of the base-values relation.
func (q Query) Keys() []string { return q.Base.Cols }

// String renders the query for logs and CLIs.
func (q Query) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "BASE distinct %s over %s", strings.Join(q.Base.Cols, ","), q.Base.Detail)
	if q.Base.Where != nil {
		fmt.Fprintf(&b, " where %s", q.Base.Where)
	}
	for _, set := range q.Base.GroupingSets {
		fmt.Fprintf(&b, " set(%s)", strings.Join(set, ","))
	}
	for i, op := range q.Ops {
		fmt.Fprintf(&b, "\nMD%d over %s:", i+1, op.Detail)
		for _, v := range op.Vars {
			specs := make([]string, len(v.Aggs))
			for j, s := range v.Aggs {
				specs[j] = s.String()
			}
			fmt.Fprintf(&b, "\n  [%s] by %s", strings.Join(specs, "; "), v.Cond)
		}
	}
	return b.String()
}

// SchemaSource resolves detail relation names to schemas (the catalog view
// needed to validate and plan a query without touching data).
type SchemaSource interface {
	DetailSchema(name string) (relation.Schema, error)
}

// SchemaSourceFunc adapts a function to SchemaSource.
type SchemaSourceFunc func(string) (relation.Schema, error)

// DetailSchema implements SchemaSource.
func (f SchemaSourceFunc) DetailSchema(name string) (relation.Schema, error) { return f(name) }

// Schemas is a map-based SchemaSource.
//
//skallavet:allow stringkey -- catalog keyed by relation name: planning metadata, not tuple traffic
type Schemas map[string]relation.Schema

// DetailSchema implements SchemaSource.
func (s Schemas) DetailSchema(name string) (relation.Schema, error) {
	sch, ok := s[name]
	if !ok {
		return nil, fmt.Errorf("gmdj: unknown detail relation %q", name)
	}
	return sch, nil
}

// XSchemas computes the evolving schema of the base-result structure X:
// element 0 is the base-values schema; element k is the schema after the kth
// operator (base columns, then per grouping variable its physical
// sub-aggregate columns followed by its derived AVG columns).
func XSchemas(q Query, src SchemaSource) ([]relation.Schema, error) {
	baseDetail, err := src.DetailSchema(q.Base.Detail)
	if err != nil {
		return nil, err
	}
	idx, err := baseDetail.Indexes(q.Base.Cols)
	if err != nil {
		return nil, fmt.Errorf("gmdj: base query: %w", err)
	}
	cur := baseDetail.Project(idx)
	out := []relation.Schema{cur}
	for i, op := range q.Ops {
		detail, err := src.DetailSchema(op.Detail)
		if err != nil {
			return nil, fmt.Errorf("gmdj: MD%d: %w", i+1, err)
		}
		next := cur.Clone()
		for j, v := range op.Vars {
			l, err := agg.NewLayout(v.Aggs, detail)
			if err != nil {
				return nil, fmt.Errorf("gmdj: MD%d var %d: %w", i+1, j+1, err)
			}
			next, err = next.Concat(l.PhysSchema())
			if err != nil {
				return nil, fmt.Errorf("gmdj: MD%d var %d: %w", i+1, j+1, err)
			}
			next, err = next.Concat(l.DerivedSchema())
			if err != nil {
				return nil, fmt.Errorf("gmdj: MD%d var %d: %w", i+1, j+1, err)
			}
		}
		out = append(out, next)
		cur = next
	}
	return out, nil
}

// FinalColumns lists the logical output column names: the base key attributes
// followed by each aggregate's output name, in query order.
func FinalColumns(q Query) []string {
	out := append([]string{}, q.Base.Cols...)
	for _, op := range q.Ops {
		for _, v := range op.Vars {
			for _, s := range v.Aggs {
				out = append(out, s.As)
			}
		}
	}
	return out
}

// Validate checks the whole query against a schema source: detail relations
// exist, base columns and filter bind, every aggregate spec is well-typed,
// every condition binds against the evolving X schema on the base side and
// the operator's detail schema on the detail side, and output names are
// globally unique (guaranteed by the schema concatenation).
func (q Query) Validate(src SchemaSource) error {
	if len(q.Base.Cols) == 0 {
		return fmt.Errorf("gmdj: base query needs at least one projection column")
	}
	baseDetail, err := src.DetailSchema(q.Base.Detail)
	if err != nil {
		return err
	}
	if _, err := baseDetail.Indexes(q.Base.Cols); err != nil {
		return fmt.Errorf("gmdj: base query: %w", err)
	}
	if q.Base.Where != nil {
		if _, err := expr.Bind(q.Base.Where, nil, baseDetail); err != nil {
			return fmt.Errorf("gmdj: base filter: %w", err)
		}
	}
	for si, set := range q.Base.GroupingSets {
		for _, col := range set {
			found := false
			for _, c := range q.Base.Cols {
				if c == col {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("gmdj: grouping set %d: column %q not among base columns %v", si, col, q.Base.Cols)
			}
		}
	}
	xs, err := XSchemas(q, src)
	if err != nil {
		return err
	}
	for i, op := range q.Ops {
		if len(op.Vars) == 0 {
			return fmt.Errorf("gmdj: MD%d has no grouping variables", i+1)
		}
		detail, err := src.DetailSchema(op.Detail)
		if err != nil {
			return err
		}
		for j, v := range op.Vars {
			if v.Cond == nil {
				return fmt.Errorf("gmdj: MD%d var %d has no condition", i+1, j+1)
			}
			if len(v.Aggs) == 0 {
				return fmt.Errorf("gmdj: MD%d var %d has no aggregates", i+1, j+1)
			}
			// Conditions see the pre-operator X schema (all variables of one
			// operator are evaluated against the same base instance).
			if _, err := expr.Bind(v.Cond, xs[i], detail); err != nil {
				return fmt.Errorf("gmdj: MD%d var %d condition: %w", i+1, j+1, err)
			}
		}
	}
	return nil
}
