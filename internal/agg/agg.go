// Package agg implements the aggregate-function framework for GMDJ
// evaluation: the logical aggregate specs (COUNT, SUM, AVG, MIN, MAX), their
// decomposition into sub-aggregates computed at the local sites and
// super-aggregates computed at the coordinator (following Gray et al., as
// used by Theorem 1 of the paper), and the physical column layout shared by
// the sites' sub-aggregate relations H_i and the coordinator's base-result
// structure X.
package agg

import (
	"fmt"
	"math"

	"skalla/internal/relation"
)

// Func identifies a logical aggregate function.
type Func uint8

const (
	Count Func = iota // COUNT(*) or COUNT(col)
	Sum               // SUM(col)
	Avg               // AVG(col), decomposed into SUM + COUNT sub-aggregates
	Min               // MIN(col)
	Max               // MAX(col)
	// Variance is the population variance, decomposed into SUM + sum of
	// squares + COUNT sub-aggregates (all distributive, so Theorem 1
	// synchronization applies unchanged).
	Variance
	// StdDev is the population standard deviation (same decomposition).
	StdDev
)

// String returns the SQL name of the function.
func (f Func) String() string {
	switch f {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Variance:
		return "VARIANCE"
	case StdDev:
		return "STDEV"
	default:
		return fmt.Sprintf("Func(%d)", uint8(f))
	}
}

// Spec is one logical aggregate in a GMDJ aggregate list l_i: a function, the
// detail-relation argument column (empty only for COUNT(*)), and the output
// column name.
type Spec struct {
	Func Func
	Arg  string // detail column; "" means COUNT(*)
	As   string // output column name; must be unique within the query
}

// String renders the spec as "FUNC(arg) -> as".
func (s Spec) String() string {
	arg := s.Arg
	if arg == "" {
		arg = "*"
	}
	return fmt.Sprintf("%s(%s) -> %s", s.Func, arg, s.As)
}

// Validate checks the spec against the detail schema.
func (s Spec) Validate(detail relation.Schema) error {
	if s.As == "" {
		return fmt.Errorf("agg: %s has no output name", s.Func)
	}
	if s.Arg == "" {
		if s.Func != Count {
			return fmt.Errorf("agg: %s requires an argument column", s.Func)
		}
		return nil
	}
	idx := detail.Index(s.Arg)
	if idx < 0 {
		return fmt.Errorf("agg: %s argument %q not in detail schema %s", s.Func, s.Arg, detail)
	}
	kind := detail[idx].Kind
	switch s.Func {
	case Sum, Avg, Variance, StdDev:
		if kind != relation.KindInt && kind != relation.KindFloat {
			return fmt.Errorf("agg: %s(%s): argument is %s, want numeric", s.Func, s.Arg, kind)
		}
	case Min, Max, Count:
		// Any kind is allowed (MIN/MAX use the value ordering; COUNT(col)
		// counts non-NULLs).
	}
	return nil
}

// PhysOp is a physical (distributive) aggregate operation. Sub-aggregates
// computed at sites and the merge at the coordinator both operate on physical
// columns; the super-aggregate of a COUNT is a SUM, which at the value level
// is the same null-aware addition used for SUM, so merge needs no separate
// op table.
type PhysOp uint8

const (
	PhysCount PhysOp = iota
	PhysSum
	PhysMin
	PhysMax
	// PhysSumSq accumulates the sum of squares (always FLOAT), feeding the
	// variance/stddev derived columns.
	PhysSumSq
)

// String returns the name of the physical op.
func (p PhysOp) String() string {
	switch p {
	case PhysCount:
		return "count"
	case PhysSum:
		return "sum"
	case PhysMin:
		return "min"
	case PhysMax:
		return "max"
	case PhysSumSq:
		return "sumsq"
	default:
		return fmt.Sprintf("PhysOp(%d)", uint8(p))
	}
}

// PhysCol is one physical aggregate column.
type PhysCol struct {
	Op     PhysOp
	Arg    string // detail column; "" for row count
	ArgIdx int    // resolved index into the detail schema (-1 for row count)
	Name   string // column name in H and X
	Kind   relation.Kind
}

// DerivedKind selects the finalization function of a derived column.
type DerivedKind uint8

const (
	// DerivedAvg finalizes sum/count.
	DerivedAvg DerivedKind = iota
	// DerivedVariance finalizes sumsq/n - (sum/n)^2.
	DerivedVariance
	// DerivedStdDev is the square root of the variance.
	DerivedStdDev
)

// Derived is a column computed from physical columns after every merge: the
// finalized AVG/VARIANCE/STDEV. Materializing it in X lets later GMDJ
// conditions reference the value by name (as in the paper's Example 1
// predicate NB >= sum1/cnt1, which can equally be written against the avg
// column).
type Derived struct {
	Name     string
	Kind     DerivedKind
	SumIdx   int // index into the layout's physical columns
	CntIdx   int
	SumSqIdx int // -1 unless Kind needs the sum of squares
}

// Layout is the compiled physical layout for one aggregate list: the
// physical sub-aggregate columns, and the derived columns.
type Layout struct {
	Specs   []Spec
	Phys    []PhysCol
	Derived []Derived
	// specPhys[i] locates spec i's result: for AVG {sumIdx, cntIdx, -1},
	// for VARIANCE/STDEV {sumIdx, cntIdx, sumSqIdx}, for the rest
	// {physIdx, -1, -1}.
	specPhys [][3]int
}

// NewLayout validates the specs against the detail schema and compiles the
// physical layout. Output names (including the derived _sum/_cnt columns of
// AVG) must not collide.
func NewLayout(specs []Spec, detail relation.Schema) (*Layout, error) {
	l := &Layout{Specs: specs}
	names := make(map[string]struct{})
	claim := func(n string) error {
		if _, dup := names[n]; dup {
			return fmt.Errorf("agg: duplicate output column %q", n)
		}
		names[n] = struct{}{}
		return nil
	}
	for _, s := range specs {
		if err := s.Validate(detail); err != nil {
			return nil, err
		}
		argIdx := -1
		var argKind relation.Kind
		if s.Arg != "" {
			argIdx = detail.MustIndex(s.Arg)
			argKind = detail[argIdx].Kind
		}
		switch s.Func {
		case Count:
			if err := claim(s.As); err != nil {
				return nil, err
			}
			l.Phys = append(l.Phys, PhysCol{Op: PhysCount, Arg: s.Arg, ArgIdx: argIdx, Name: s.As, Kind: relation.KindInt})
			l.specPhys = append(l.specPhys, [3]int{len(l.Phys) - 1, -1, -1})
		case Sum:
			if err := claim(s.As); err != nil {
				return nil, err
			}
			l.Phys = append(l.Phys, PhysCol{Op: PhysSum, Arg: s.Arg, ArgIdx: argIdx, Name: s.As, Kind: sumKind(argKind)})
			l.specPhys = append(l.specPhys, [3]int{len(l.Phys) - 1, -1, -1})
		case Min, Max:
			if err := claim(s.As); err != nil {
				return nil, err
			}
			op := PhysMin
			if s.Func == Max {
				op = PhysMax
			}
			l.Phys = append(l.Phys, PhysCol{Op: op, Arg: s.Arg, ArgIdx: argIdx, Name: s.As, Kind: argKind})
			l.specPhys = append(l.specPhys, [3]int{len(l.Phys) - 1, -1, -1})
		case Avg:
			sumName, cntName := s.As+"_sum", s.As+"_cnt"
			for _, n := range []string{s.As, sumName, cntName} {
				if err := claim(n); err != nil {
					return nil, err
				}
			}
			l.Phys = append(l.Phys, PhysCol{Op: PhysSum, Arg: s.Arg, ArgIdx: argIdx, Name: sumName, Kind: sumKind(argKind)})
			l.Phys = append(l.Phys, PhysCol{Op: PhysCount, Arg: s.Arg, ArgIdx: argIdx, Name: cntName, Kind: relation.KindInt})
			sumIdx, cntIdx := len(l.Phys)-2, len(l.Phys)-1
			l.Derived = append(l.Derived, Derived{Name: s.As, Kind: DerivedAvg, SumIdx: sumIdx, CntIdx: cntIdx, SumSqIdx: -1})
			l.specPhys = append(l.specPhys, [3]int{sumIdx, cntIdx, -1})
		case Variance, StdDev:
			sumName, sqName, cntName := s.As+"_sum", s.As+"_sumsq", s.As+"_cnt"
			for _, n := range []string{s.As, sumName, sqName, cntName} {
				if err := claim(n); err != nil {
					return nil, err
				}
			}
			l.Phys = append(l.Phys, PhysCol{Op: PhysSum, Arg: s.Arg, ArgIdx: argIdx, Name: sumName, Kind: sumKind(argKind)})
			l.Phys = append(l.Phys, PhysCol{Op: PhysSumSq, Arg: s.Arg, ArgIdx: argIdx, Name: sqName, Kind: relation.KindFloat})
			l.Phys = append(l.Phys, PhysCol{Op: PhysCount, Arg: s.Arg, ArgIdx: argIdx, Name: cntName, Kind: relation.KindInt})
			sumIdx, sqIdx, cntIdx := len(l.Phys)-3, len(l.Phys)-2, len(l.Phys)-1
			kind := DerivedVariance
			if s.Func == StdDev {
				kind = DerivedStdDev
			}
			l.Derived = append(l.Derived, Derived{Name: s.As, Kind: kind, SumIdx: sumIdx, CntIdx: cntIdx, SumSqIdx: sqIdx})
			l.specPhys = append(l.specPhys, [3]int{sumIdx, cntIdx, sqIdx})
		default:
			return nil, fmt.Errorf("agg: unknown function %v", s.Func)
		}
	}
	return l, nil
}

func sumKind(arg relation.Kind) relation.Kind {
	if arg == relation.KindInt {
		return relation.KindInt
	}
	return relation.KindFloat
}

// PhysSchema returns the schema of the physical sub-aggregate columns, in
// layout order. This is the aggregate part of the sites' H_i rows.
func (l *Layout) PhysSchema() relation.Schema {
	s := make(relation.Schema, len(l.Phys))
	for i, p := range l.Phys {
		s[i] = relation.Column{Name: p.Name, Kind: p.Kind}
	}
	return s
}

// DerivedSchema returns the schema of the derived (finalized AVG) columns.
func (l *Layout) DerivedSchema() relation.Schema {
	s := make(relation.Schema, len(l.Derived))
	for i, d := range l.Derived {
		s[i] = relation.Column{Name: d.Name, Kind: relation.KindFloat}
	}
	return s
}

// Identity returns the identity tuple for the physical columns: COUNT is 0,
// the others are NULL. The coordinator initializes new X columns with it so
// that groups untouched by any site (e.g. under group reduction) carry the
// correct empty-range aggregates.
func (l *Layout) Identity() relation.Tuple {
	t := make(relation.Tuple, len(l.Phys))
	for i, p := range l.Phys {
		if p.Op == PhysCount {
			t[i] = relation.NewInt(0)
		} else {
			t[i] = relation.Null
		}
	}
	return t
}

// Accumulate folds one detail row into the physical accumulator slice acc
// (sub-aggregation at a site). acc must have layout length and start from
// Identity().
func (l *Layout) Accumulate(acc relation.Tuple, detailRow relation.Tuple) error {
	for i, p := range l.Phys {
		switch p.Op {
		case PhysCount:
			if p.ArgIdx < 0 || !detailRow[p.ArgIdx].IsNull() {
				acc[i] = relation.NewInt(acc[i].Int + 1)
			}
		case PhysSum:
			v := detailRow[p.ArgIdx]
			nv, err := addValues(acc[i], v)
			if err != nil {
				return fmt.Errorf("agg: sum %s: %w", p.Name, err)
			}
			acc[i] = nv
		case PhysSumSq:
			v := detailRow[p.ArgIdx]
			if !v.IsNull() {
				f, ok := v.AsFloat()
				if !ok {
					return fmt.Errorf("agg: sumsq %s: non-numeric %s", p.Name, v.Kind)
				}
				nv, err := addValues(acc[i], relation.NewFloat(f*f))
				if err != nil {
					return fmt.Errorf("agg: sumsq %s: %w", p.Name, err)
				}
				acc[i] = nv
			}
		case PhysMin:
			acc[i] = minValue(acc[i], detailRow[p.ArgIdx])
		case PhysMax:
			acc[i] = maxValue(acc[i], detailRow[p.ArgIdx])
		}
	}
	return nil
}

// MergePhys merges one incoming sub-aggregate slice into the running
// super-aggregate slice (synchronization at the coordinator, Theorem 1), one
// MergeCell per physical column.
func (l *Layout) MergePhys(into, from relation.Tuple) error {
	for i, p := range l.Phys {
		nv, err := MergeCell(p.Op, into[i], from[i])
		if err != nil {
			return fmt.Errorf("agg: merge %s: %w", p.Name, err)
		}
		into[i] = nv
	}
	return nil
}

// MergeCell folds the sub-aggregate cell from into the super-aggregate cell
// into under op and returns the result: the super-aggregate of COUNT is SUM;
// COUNT, SUM and SUMSQ merge by NULL-aware addition, MIN and MAX by
// comparison.
func MergeCell(op PhysOp, into, from relation.Value) (relation.Value, error) {
	switch op {
	case PhysMin:
		return minValue(into, from), nil
	case PhysMax:
		return maxValue(into, from), nil
	}
	return addValues(into, from)
}

// AppendDerived appends the derived column values for a physical slice to
// dst, which may share phys's backing array past phys's end.
func (l *Layout) AppendDerived(dst, phys relation.Tuple) relation.Tuple {
	for _, d := range l.Derived {
		dst = append(dst, d.compute(phys))
	}
	return dst
}

func (d Derived) compute(phys relation.Tuple) relation.Value {
	sumsq := relation.Null
	if d.SumSqIdx >= 0 {
		sumsq = phys[d.SumSqIdx]
	}
	return d.Of(phys[d.SumIdx], sumsq, phys[d.CntIdx])
}

// Of finalizes d over its operand cells — the sum, the sum of squares (read
// by VARIANCE and STDEV only) and the count: NULL over an empty range (an
// operand NULL or a zero count), else Finish over their numeric values.
func (d Derived) Of(sum, sumsq, cnt relation.Value) relation.Value {
	if sum.IsNull() || cnt.IsNull() || cnt.Int == 0 || d.Kind != DerivedAvg && sumsq.IsNull() {
		return relation.Null
	}
	sf, _ := sum.AsFloat()
	qf, _ := sumsq.AsFloat()
	return relation.NewFloat(d.Finish(sf, qf, cnt.Int))
}

// Finish finalizes d over a non-empty range: the mean sum/cnt, or the
// population variance sumsq/cnt − mean², clamped at zero against
// floating-point cancellation, or its square root. It is the one place these
// are computed, so every caller gets the same bits.
func (d Derived) Finish(sum, sumsq float64, cnt int64) float64 {
	n := float64(cnt)
	mean := sum / n
	if d.Kind == DerivedAvg {
		return mean
	}
	v := sumsq/n - mean*mean
	if v < 0 {
		v = 0
	}
	if d.Kind == DerivedStdDev {
		return math.Sqrt(v)
	}
	return v
}

// FinalSchema returns the logical output schema: one column per spec, in
// spec order (AVG is FLOAT; the rest keep their physical kind).
func (l *Layout) FinalSchema() relation.Schema {
	s := make(relation.Schema, len(l.Specs))
	for i, sp := range l.Specs {
		if sp.Func == Avg || sp.Func == Variance || sp.Func == StdDev {
			s[i] = relation.Column{Name: sp.As, Kind: relation.KindFloat}
		} else {
			p := l.Phys[l.specPhys[i][0]]
			s[i] = relation.Column{Name: p.Name, Kind: p.Kind}
		}
	}
	return s
}

// Finalize maps a physical slice to the logical output values, one per spec.
func (l *Layout) Finalize(phys relation.Tuple) relation.Tuple {
	out := make(relation.Tuple, len(l.Specs))
	for i, sp := range l.Specs {
		loc := l.specPhys[i]
		switch sp.Func {
		case Avg:
			out[i] = Derived{Kind: DerivedAvg}.Of(phys[loc[0]], relation.Null, phys[loc[1]])
		case Variance:
			out[i] = Derived{Kind: DerivedVariance}.Of(phys[loc[0]], phys[loc[2]], phys[loc[1]])
		case StdDev:
			out[i] = Derived{Kind: DerivedStdDev}.Of(phys[loc[0]], phys[loc[2]], phys[loc[1]])
		default:
			out[i] = phys[loc[0]]
		}
	}
	return out
}

// addValues is NULL-aware addition preserving integer kinds: NULL is the
// identity (SQL SUM ignores NULLs; the sum of an empty multiset is NULL).
func addValues(a, b relation.Value) (relation.Value, error) {
	if a.IsNull() {
		return b, nil
	}
	if b.IsNull() {
		return a, nil
	}
	if !a.IsNumeric() || !b.IsNumeric() {
		return relation.Null, fmt.Errorf("cannot add %s and %s", a.Kind, b.Kind)
	}
	if a.Kind == relation.KindInt && b.Kind == relation.KindInt {
		return relation.NewInt(a.Int + b.Int), nil
	}
	af, _ := a.AsFloat()
	bf, _ := b.AsFloat()
	return relation.NewFloat(af + bf), nil
}

func minValue(a, b relation.Value) relation.Value {
	if a.IsNull() {
		return b
	}
	if b.IsNull() {
		return a
	}
	if c, ok := a.Compare(b); ok && c <= 0 {
		return a
	}
	return b
}

func maxValue(a, b relation.Value) relation.Value {
	if a.IsNull() {
		return b
	}
	if b.IsNull() {
		return a
	}
	if c, ok := a.Compare(b); ok && c >= 0 {
		return a
	}
	return b
}
