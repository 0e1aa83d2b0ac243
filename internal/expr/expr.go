// Package expr implements the scalar expression and condition language used
// in GMDJ expressions. A condition θ_i of a GMDJ operator (Definition 1 in
// the paper) is a boolean expression over the attributes of the base-values
// relation B and the detail relation R; this package provides the expression
// tree, name binding, evaluation with SQL NULL semantics, a text parser, and
// the static analyses (conjunct decomposition, equality links, affine range
// propagation) that power the distributed optimizations of Sect. 4.
package expr

import (
	"fmt"
	"math"
	"strings"

	"skalla/internal/relation"
)

// Side says which relation a column reference addresses: the base-values
// relation B or the detail relation R.
type Side uint8

const (
	// SideBase addresses the base-values relation (written "B.col").
	SideBase Side = iota
	// SideDetail addresses the detail relation (written "R.col").
	SideDetail
)

// String returns the conventional one-letter prefix for the side.
func (s Side) String() string {
	if s == SideBase {
		return "B"
	}
	return "R"
}

// Op enumerates binary and unary operators.
type Op uint8

const (
	OpInvalid Op = iota
	// Arithmetic.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	// Comparison.
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	// Logical.
	OpAnd
	OpOr
	// Unary.
	OpNot
	OpNeg
	// OpIsNull tests a value for SQL NULL; it is the only predicate that is
	// true on NULL and enables grouping-set / data-cube conditions such as
	// (B.d IS NULL || B.d = R.d).
	OpIsNull
	// OpIsNotNull is the negation of OpIsNull.
	OpIsNotNull
)

var opNames = map[Op]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "&&", OpOr: "||", OpNot: "!", OpNeg: "-",
	OpIsNull: "IS NULL", OpIsNotNull: "IS NOT NULL",
}

// String returns the surface syntax of the operator.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// IsComparison reports whether o is one of = != < <= > >=.
func (o Op) IsComparison() bool { return o >= OpEq && o <= OpGe }

// Expr is a node of an expression tree. Expressions are immutable after
// construction; Bind returns resolved copies rather than mutating.
type Expr interface {
	// Eval evaluates the (bound) expression against one base tuple and one
	// detail tuple. Either side may be nil if the expression does not
	// reference it.
	Eval(base, detail relation.Tuple) (relation.Value, error)
	// String renders the expression in parseable surface syntax.
	String() string
}

// Col is a column reference. Before binding only Side and Name are set; Bind
// resolves Idx against the corresponding schema.
type Col struct {
	Side Side
	Name string
	Idx  int
}

// C constructs an unbound column reference.
func C(side Side, name string) *Col { return &Col{Side: side, Name: name, Idx: -1} }

// Lit is a literal constant.
type Lit struct {
	Val relation.Value
}

// L constructs a literal.
func L(v relation.Value) *Lit { return &Lit{Val: v} }

// Int is shorthand for an integer literal.
func Int(v int64) *Lit { return L(relation.NewInt(v)) }

// Float is shorthand for a float literal.
func Float(v float64) *Lit { return L(relation.NewFloat(v)) }

// Str is shorthand for a string literal.
func Str(v string) *Lit { return L(relation.NewString(v)) }

// Bin is a binary operation.
type Bin struct {
	Op   Op
	L, R Expr
}

// B2 constructs a binary node.
func B2(op Op, l, r Expr) *Bin { return &Bin{Op: op, L: l, R: r} }

// Eq builds l = r.
func Eq(l, r Expr) *Bin { return B2(OpEq, l, r) }

// And builds the conjunction of one or more expressions.
func And(es ...Expr) Expr {
	if len(es) == 0 {
		return L(relation.NewBool(true))
	}
	out := es[0]
	for _, e := range es[1:] {
		out = B2(OpAnd, out, e)
	}
	return out
}

// Or builds the disjunction of one or more expressions.
func Or(es ...Expr) Expr {
	if len(es) == 0 {
		return L(relation.NewBool(false))
	}
	out := es[0]
	for _, e := range es[1:] {
		out = B2(OpOr, out, e)
	}
	return out
}

// Un is a unary operation (OpNot or OpNeg).
type Un struct {
	Op Op
	X  Expr
}

// Not negates a boolean expression.
func Not(x Expr) *Un { return &Un{Op: OpNot, X: x} }

// IsNull tests x for NULL.
func IsNull(x Expr) *Un { return &Un{Op: OpIsNull, X: x} }

// IsNotNull tests x for non-NULL.
func IsNotNull(x Expr) *Un { return &Un{Op: OpIsNotNull, X: x} }

func (c *Col) String() string { return c.Side.String() + "." + c.Name }
func (l *Lit) String() string {
	switch l.Val.Kind {
	case relation.KindString:
		// Double embedded quotes so the output re-parses.
		return "'" + strings.ReplaceAll(l.Val.Str, "'", "''") + "'"
	case relation.KindFloat:
		// An integral FLOAT prints like an INT ("2"); mark it so the text
		// re-parses as a FLOAT. The text is the query's canonical form
		// (plan fingerprints, conjunct comparison), and R.x * 2 wraps where
		// R.x * 2.0 does not.
		s := l.Val.String()
		if f := l.Val.Float; !math.IsInf(f, 0) && !math.IsNaN(f) && !strings.ContainsAny(s, ".e") {
			s += ".0"
		}
		return s
	}
	return l.Val.String()
}
func (b *Bin) String() string {
	return "(" + b.L.String() + " " + b.Op.String() + " " + b.R.String() + ")"
}
func (u *Un) String() string {
	if u.Op == OpIsNull || u.Op == OpIsNotNull {
		return "(" + u.X.String() + " " + u.Op.String() + ")"
	}
	return u.Op.String() + "(" + u.X.String() + ")"
}
