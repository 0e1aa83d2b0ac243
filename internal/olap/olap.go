// Package olap builds GMDJ expressions for the higher-level OLAP constructs
// the paper cites as uniformly expressible through the GMDJ operator
// (Sect. 2.2): the data cube and rollup of Gray et al. [12] via grouping
// sets, and the unpivot operator of Graefe et al. [11] for marginal
// distributions. The constructed queries run unchanged on the distributed
// engine — the cube of a distributed warehouse costs one GMDJ round.
package olap

import (
	"fmt"

	"skalla/internal/agg"
	"skalla/internal/expr"
	"skalla/internal/gmdj"
	"skalla/internal/relation"
)

// rollCond builds the grouping-set condition over the dimensions:
//
//	(B.d1 IS NULL || B.d1 = R.d1) && … && (B.dn IS NULL || B.dn = R.dn)
//
// For a base row produced by grouping set S, the IS NULL disjunct
// short-circuits the dimensions outside S, so each detail row aggregates
// into every grouping-set row it rolls up to — exactly the cube semantics of
// Gray et al.'s ALL value.
func rollCond(dims []string) expr.Expr {
	conjuncts := make([]expr.Expr, len(dims))
	for i, d := range dims {
		conjuncts[i] = expr.Or(
			expr.IsNull(expr.C(expr.SideBase, d)),
			expr.Eq(expr.C(expr.SideBase, d), expr.C(expr.SideDetail, d)),
		)
	}
	return expr.And(conjuncts...)
}

// GroupingSetsQuery builds the GMDJ expression computing the given aggregate
// list per grouping set over the dimension columns.
func GroupingSetsQuery(detail string, dims []string, sets [][]string, aggs []agg.Spec) (gmdj.Query, error) {
	if len(dims) == 0 {
		return gmdj.Query{}, fmt.Errorf("olap: no dimensions")
	}
	if len(sets) == 0 {
		return gmdj.Query{}, fmt.Errorf("olap: no grouping sets")
	}
	if len(aggs) == 0 {
		return gmdj.Query{}, fmt.Errorf("olap: no aggregates")
	}
	dimSet := make(map[string]struct{}, len(dims))
	for _, d := range dims {
		dimSet[d] = struct{}{}
	}
	for si, set := range sets {
		for _, c := range set {
			if _, ok := dimSet[c]; !ok {
				return gmdj.Query{}, fmt.Errorf("olap: grouping set %d: %q is not a dimension", si, c)
			}
		}
	}
	return gmdj.Query{
		Base: gmdj.BaseQuery{Detail: detail, Cols: dims, GroupingSets: sets},
		Ops: []gmdj.Operator{{Detail: detail, Vars: []gmdj.GroupVar{{
			Aggs: aggs,
			Cond: rollCond(dims),
		}}}},
	}, nil
}

// CubeQuery builds the full data cube (CUBE BY of Gray et al. [12]): one
// grouping set per subset of the dimensions, 2^n sets in total.
func CubeQuery(detail string, dims []string, aggs []agg.Spec) (gmdj.Query, error) {
	if len(dims) > 16 {
		return gmdj.Query{}, fmt.Errorf("olap: cube over %d dimensions (max 16)", len(dims))
	}
	var sets [][]string
	for mask := 0; mask < 1<<len(dims); mask++ {
		var set []string
		for i, d := range dims {
			if mask&(1<<i) != 0 {
				set = append(set, d)
			}
		}
		sets = append(sets, set)
	}
	return GroupingSetsQuery(detail, dims, sets, aggs)
}

// RollupQuery builds the ROLLUP hierarchy: the grouping sets are the
// prefixes of dims, from the full list down to the grand total.
func RollupQuery(detail string, dims []string, aggs []agg.Spec) (gmdj.Query, error) {
	var sets [][]string
	for i := len(dims); i >= 0; i-- {
		sets = append(sets, append([]string{}, dims[:i]...))
	}
	return GroupingSetsQuery(detail, dims, sets, aggs)
}

// UnpivotSchema is the schema produced by Unpivot: the attribute name, its
// value (as a string, the common supertype), plus any carried-through key
// columns in front.
func UnpivotSchema(keep relation.Schema) relation.Schema {
	out := keep.Clone()
	out = append(out, relation.Column{Name: "Attr", Kind: relation.KindString})
	out = append(out, relation.Column{Name: "Val", Kind: relation.KindString})
	return out
}

// Unpivot implements the unpivot operator of Graefe et al. [11]: it turns
// the named columns of each row into (Attr, Val) pairs, carrying the keep
// columns through. Marginal-distribution extraction composes Unpivot with a
// COUNT-per-(Attr, Val) GMDJ; NULL values are skipped as in SQL UNPIVOT.
func Unpivot(r *relation.Relation, keep, cols []string) (*relation.Relation, error) {
	keepIdx, err := r.Schema.Indexes(keep)
	if err != nil {
		return nil, err
	}
	colIdx, err := r.Schema.Indexes(cols)
	if err != nil {
		return nil, err
	}
	out := relation.New(UnpivotSchema(r.Schema.Project(keepIdx)))
	row := make(relation.Tuple, 0, len(keepIdx)+2)
	for _, t := range r.Rows() {
		for ci, c := range colIdx {
			if t[c].IsNull() {
				continue
			}
			row = row[:0]
			for _, k := range keepIdx {
				row = append(row, t[k])
			}
			row = append(row, relation.NewString(cols[ci]), relation.NewString(t[c].String()))
			out.MustAppend(row)
		}
	}
	return out, nil
}

// MarginalsQuery builds the GMDJ expression computing the marginal
// distribution over an unpivoted relation: COUNT per (Attr, Val) pair. Run
// it against the relation produced by Unpivot (loaded at the sites under
// unpivotName).
func MarginalsQuery(unpivotName string) gmdj.Query {
	return gmdj.Query{
		Base: gmdj.BaseQuery{Detail: unpivotName, Cols: []string{"Attr", "Val"}},
		Ops: []gmdj.Operator{{Detail: unpivotName, Vars: []gmdj.GroupVar{{
			Aggs: []agg.Spec{{Func: agg.Count, As: "freq"}},
			Cond: expr.MustParse("B.Attr = R.Attr && B.Val = R.Val"),
		}}}},
	}
}
