package gmdj

import (
	"skalla/internal/agg"
	"skalla/internal/expr"
	"skalla/internal/obs"
	"skalla/internal/relation"
)

// Compiled scan kernels. A site's detail scan visits every row of the
// partition once per grouping variable per round, so whatever is decided per
// row is decided |R_i| times. The scalar path (eval.go) decides everything
// per row: it hashes the row's link key byte by byte, walks the bound
// condition tree boxing every operand into a Value, and folds Values into
// Value accumulators. A kernel decides it once per request: X's link values
// are translated into the partition's dictionary codes, the residual
// conjuncts become closures over typed column slices, and accumulators are
// flat typed slabs, boxed into Values only for the rows a caller asks for.
// What is left per row is an array index, a few typed compares and a few adds.
//
// A kernel exists only for the shapes compileOperator and compileBaseKernel
// cover; every other request runs the scalar path unchanged. The choice is
// made from the request and the source alone, and both paths return the same
// bytes: rows are visited in the same order and every aggregate step mirrors
// agg.Layout's, so even float sums add in the same order.

// ColumnSource is an optional RowSource capability: the source's rows are
// also held as a columnar image, and a compiled kernel may scan that instead
// of calling Scan.
type ColumnSource interface {
	RowSource
	// Columns returns the image of the rows Scan would visit, in scan order.
	// A nil image declines.
	Columns() *relation.Columns
}

// scanAccountant is the optional capability of a source whose owner keeps
// accounts of the passes made over it — engine.Site wraps a partition in one
// per request — and is told what it cannot see through Scan. A source without
// it (a SourceOf relation under EvalCentral or a coordinator's local round)
// is evaluated unaccounted, so skalla_engine_scan_path_total counts site
// passes only.
type scanAccountant interface {
	// NoteScanPath is called once per evaluation, on the source the
	// evaluation was handed: its passes detail passes take path, for reason.
	NoteScanPath(path, reason string, passes int)
	// ChargeColumnScan is called once per kernel pass over the image, where
	// the scalar path would have called Scan once: the rows to charge are the
	// source's Len.
	ChargeColumnScan()
}

// Why a scan ran where it ran: the label values of
// skalla_engine_scan_path_total.
const (
	pathKernel = "kernel"
	pathScalar = "scalar"

	reasonOK     = "ok"     // compiled
	reasonSource = "source" // the source has no columnar image
	reasonShape  = "shape"  // a condition or filter shape the compiler does not cover, or useHash=false
	reasonKind   = "kind"   // a column or value kind the typed code cannot reproduce exactly
)

// noteScanPath reports to detail's accountant, if it has one, that n detail
// passes run under reason; reasonOK is the kernel's, every other reason the
// scalar path's.
func noteScanPath(detail RowSource, reason string, n int) {
	acct, ok := detail.(scanAccountant)
	if !ok {
		return
	}
	path := pathScalar
	if reason == reasonOK {
		path = pathKernel
	}
	acct.NoteScanPath(path, reason, n)
}

// chargeKernelScan accounts one kernel pass over rows rows exactly as
// scanCounted accounts a scalar one.
func chargeKernelScan(src RowSource, rows int) {
	obs.EngineRowsScanned.Add(int64(rows))
	if acct, ok := src.(scanAccountant); ok {
		acct.ChargeColumnScan()
	}
}

// columnImage returns detail's columnar image, or nil when it has none.
func columnImage(detail RowSource) *relation.Columns {
	if cs, ok := detail.(ColumnSource); ok {
		return cs.Columns()
	}
	return nil
}

// noID marks "no such key" in every id space below.
const noID = ^uint32(0)

// intTable is an open-addressed int64 → dense id table (ids count up from 0
// in insertion order), with one optional slot for NULL. The operator kernel
// fills it from X once per request and only reads it during the scan; the
// base kernel inserts while scanning.
type intTable struct {
	keys   []int64
	ids    []uint32 // id+1; 0 marks an empty slot
	shift  uint
	n      uint32
	nullID uint32 // id+1 of the NULL key; 0 while unseen
}

func newIntTable(hint int) *intTable {
	bits := uint(3)
	for 1<<bits < 2*hint {
		bits++
	}
	return &intTable{keys: make([]int64, 1<<bits), ids: make([]uint32, 1<<bits), shift: 64 - bits}
}

func (t *intTable) slot(k int64) uint64 {
	return uint64(k) * 0x9E3779B97F4A7C15 >> t.shift
}

// find returns the id of k, or noID.
func (t *intTable) find(k int64) uint32 {
	mask := uint64(len(t.ids) - 1)
	for s := t.slot(k); ; s = (s + 1) & mask {
		id := t.ids[s]
		if id == 0 {
			return noID
		}
		if t.keys[s] == k {
			return id - 1
		}
	}
}

// insert returns the id of k and whether this call added it.
func (t *intTable) insert(k int64) (uint32, bool) {
	mask := uint64(len(t.ids) - 1)
	for s := t.slot(k); ; s = (s + 1) & mask {
		id := t.ids[s]
		if id == 0 {
			if 2*int(t.n+1) > len(t.ids) {
				t.grow()
				return t.insert(k)
			}
			t.n++
			t.keys[s], t.ids[s] = k, t.n
			return t.n - 1, true
		}
		if t.keys[s] == k {
			return id - 1, false
		}
	}
}

// insertNull is insert for the NULL key.
func (t *intTable) insertNull() (uint32, bool) {
	if t.nullID != 0 {
		return t.nullID - 1, false
	}
	t.n++
	t.nullID = t.n
	return t.n - 1, true
}

func (t *intTable) grow() {
	old := *t
	t.keys = make([]int64, 2*len(old.keys))
	t.ids = make([]uint32, 2*len(old.ids))
	t.shift--
	mask := uint64(len(t.ids) - 1)
	for s, id := range old.ids {
		if id == 0 {
			continue
		}
		k := old.keys[s]
		d := t.slot(k)
		for t.ids[d] != 0 {
			d = (d + 1) & mask
		}
		t.keys[d], t.ids[d] = k, id
	}
}

// rowPred is one compiled residual conjunct over detail row i and base row bi.
type rowPred func(i int, bi int32) bool

// number is what a kernel compares and accumulates natively; uint32 carries
// dictionary codes, which only ever meet = and <>.
type number interface{ int64 | float64 | uint32 }

// holds is expr's comparison on two non-NULL operands of one native type.
// The ordering operators mirror Value.Compare, under which a NaN orders as
// equal to everything; = and <> mirror Value.Equal.
func holds[T number](op expr.Op, a, b T) bool {
	switch op {
	case expr.OpEq:
		return a == b
	case expr.OpNe:
		return a != b
	case expr.OpLt:
		return a < b
	case expr.OpLe:
		return !(a > b)
	case expr.OpGt:
		return a > b
	default: // OpGe
		return !(a < b)
	}
}

func bitSet(bits []uint64, i int) bool {
	return bits != nil && bits[i>>6]>>(uint(i)&63)&1 != 0
}

// constPred compiles "R.col op k". The column converts to the constant's
// type, which is how Value.Compare treats an INT beside a FLOAT.
func constPred[C, T number](col []C, nulls []uint64, op expr.Op, k T) rowPred {
	return func(i int, _ int32) bool {
		return !bitSet(nulls, i) && holds(op, T(col[i]), k)
	}
}

// basePred compiles "R.col op B.col" over X's column b (bnull its NULL
// bitmap), both operands converted to T.
func basePred[C, B, T number](col []C, nulls []uint64, op expr.Op, b []B, bnull []uint64) rowPred {
	return func(i int, bi int32) bool {
		if bitSet(nulls, i) || bitSet(bnull, int(bi)) {
			return false
		}
		return holds(op, T(col[i]), T(b[bi]))
	}
}

// flipOp mirrors a comparison so its detail operand comes first.
func flipOp(op expr.Op) expr.Op {
	switch op {
	case expr.OpLt:
		return expr.OpGt
	case expr.OpLe:
		return expr.OpGe
	case expr.OpGt:
		return expr.OpLt
	case expr.OpGe:
		return expr.OpLe
	}
	return op
}

// baseVector returns column idx of X as a typed vector: a columnar X's own,
// as it is, or one gathered from a row X's cells. It is nil when some cell is
// neither NULL nor the canonical value of the column's kind, which only the
// scalar path compares exactly.
func baseVector(x *relation.Relation, idx int) *relation.Vector {
	if c := x.Columns(); c != nil {
		return &c.Vecs[idx]
	}
	if c := relation.GatherColumns(x.Schema, x.Tuples, nil, []int{idx}); c != nil {
		return &c.Vecs[0]
	}
	return nil
}

// compilePred compiles one residual conjunct — a comparison between a detail
// column and a literal or base column, in either operand order — or reports
// why it cannot. x is nil for a base filter, where only literals may appear.
func compilePred(c expr.Expr, x *relation.Relation, cols *relation.Columns) (rowPred, string) {
	b, ok := c.(*expr.Bin)
	if !ok || !b.Op.IsComparison() {
		return nil, reasonShape
	}
	op, lhs, rhs := b.Op, b.L, b.R
	if dc, ok := rhs.(*expr.Col); ok && dc.Side == expr.SideDetail {
		op, lhs, rhs = flipOp(op), rhs, lhs
	}
	dc, ok := lhs.(*expr.Col)
	if !ok || dc.Side != expr.SideDetail {
		return nil, reasonShape
	}
	vec := &cols.Vecs[dc.Idx]
	if vec.Boxed {
		return nil, reasonKind
	}
	numeric := vec.Kind == relation.KindInt || vec.Kind == relation.KindFloat
	if !numeric && op != expr.OpEq && op != expr.OpNe {
		return nil, reasonShape
	}

	switch r := rhs.(type) {
	case *expr.Lit:
		k := r.Val
		switch {
		case numeric && !k.IsNumeric(), !numeric && k.Kind != relation.KindString:
			return nil, reasonKind
		case !numeric:
			code, ok := vec.Code(k.Str)
			if !ok {
				code = noID
			}
			return constPred(vec.Codes, vec.Nulls, op, code), reasonOK
		case vec.Kind == relation.KindInt && k.Kind == relation.KindInt:
			return constPred(vec.Ints, vec.Nulls, op, k.Int), reasonOK
		case vec.Kind == relation.KindInt:
			return constPred(vec.Ints, vec.Nulls, op, k.Float), reasonOK
		default:
			f, _ := k.AsFloat()
			return constPred(vec.Floats, vec.Nulls, op, f), reasonOK
		}
	case *expr.Col:
		if r.Side != expr.SideBase || x == nil {
			return nil, reasonShape
		}
		// Every value must be NULL or of the column's declared kind.
		declared := x.Schema[r.Idx].Kind
		if numeric != (declared == relation.KindInt || declared == relation.KindFloat) ||
			!numeric && declared != relation.KindString {
			return nil, reasonKind
		}
		bv := baseVector(x, r.Idx)
		switch {
		case bv == nil:
			return nil, reasonKind
		case !numeric:
			// Codes in the detail column's dictionary; noID for a string no
			// detail row holds.
			codes := make([]uint32, x.Len())
			for bi := range codes {
				if !bv.Null(bi) {
					code, found := vec.Code(bv.Dict[bv.Codes[bi]])
					if !found {
						code = noID
					}
					codes[bi] = code
				}
			}
			return basePred[uint32, uint32, uint32](vec.Codes, vec.Nulls, op, codes, bv.Nulls), reasonOK
		case vec.Kind == relation.KindInt && declared == relation.KindInt:
			return basePred[int64, int64, int64](vec.Ints, vec.Nulls, op, bv.Ints, bv.Nulls), reasonOK
		case vec.Kind == relation.KindInt:
			return basePred[int64, float64, float64](vec.Ints, vec.Nulls, op, bv.Floats, bv.Nulls), reasonOK
		case declared == relation.KindInt:
			return basePred[float64, int64, float64](vec.Floats, vec.Nulls, op, bv.Ints, bv.Nulls), reasonOK
		}
		return basePred[float64, float64, float64](vec.Floats, vec.Nulls, op, bv.Floats, bv.Nulls), reasonOK
	}
	return nil, reasonShape
}

// isTrueLit reports a literal TRUE conjunct, which constrains nothing.
func isTrueLit(c expr.Expr) bool {
	l, ok := c.(*expr.Lit)
	return ok && l.Val.Kind == relation.KindBool && l.Val.Bool()
}

// linkStage is one link resolved for one request — the equality "B.b = R.d",
// or its rollup form "B.b IS NULL || B.b = R.d": X's values in b and the
// partition's values in d are both mapped into one small id space, so that
// equal ids mean equal values.
type linkStage struct {
	// xids holds each X row's id: noID when the row can match no detail row
	// (a value the partition does not hold, or NULL under a plain link), anyID
	// when it matches every detail row (NULL under a rollup link).
	xids []uint32
	n    uint32 // the ids in use are 0..n-1
	// rowID maps a detail row to its id, noID when it holds NULL or a value no
	// X row holds.
	rowID  func(i int) uint32
	rollup bool
}

// anyID is an X row's id in a rollup link it holds NULL in.
const anyID = noID - 1

// maxRollupLinks bounds the rollup links of one condition, as the scalar
// path's 2^n-probe scan does.
const maxRollupLinks = 16

// compileLink resolves one link. The probe stands in for evaluating the
// equality, so it must agree with expr's: same declared kinds on both sides
// and every X value NULL or of that kind (cross-kind numerics compare equal
// in expr, which a typed lookup would miss), and a detail NULL matches no
// value.
func compileLink(x *relation.Relation, bIdx int, vec *relation.Vector, rollup bool) (linkStage, string) {
	if vec.Boxed || x.Schema[bIdx].Kind != vec.Kind || vec.Kind != relation.KindString && vec.Kind != relation.KindInt {
		return linkStage{}, reasonKind
	}
	bv := baseVector(x, bIdx)
	if bv == nil {
		return linkStage{}, reasonKind
	}
	st := linkStage{xids: make([]uint32, x.Len()), rollup: rollup}
	null := noID
	if rollup {
		null = anyID
	}
	switch vec.Kind {
	case relation.KindString:
		// code → id+1, 0 for codes no X row holds.
		byCode := make([]uint32, len(vec.Dict))
		for bi := range st.xids {
			if bv.Null(bi) {
				st.xids[bi] = null
				continue
			}
			st.xids[bi] = noID
			code, ok := vec.Code(bv.Dict[bv.Codes[bi]])
			if !ok {
				continue
			}
			if byCode[code] == 0 {
				st.n++
				byCode[code] = st.n
			}
			st.xids[bi] = byCode[code] - 1
		}
		codes, nulls := vec.Codes, vec.Nulls
		st.rowID = func(i int) uint32 {
			if bitSet(nulls, i) {
				return noID
			}
			return byCode[codes[i]] - 1 // 0-1 wraps to noID
		}
	default:
		tbl := newIntTable(len(st.xids))
		for bi, k := range bv.Ints {
			if bv.Null(bi) {
				st.xids[bi] = null
				continue
			}
			st.xids[bi], _ = tbl.insert(k)
		}
		st.n = tbl.n
		ints, nulls := vec.Ints, vec.Nulls
		st.rowID = func(i int) uint32 {
			if bitSet(nulls, i) {
				return noID
			}
			return tbl.find(ints[i])
		}
	}
	return st, reasonOK
}

// physSlab is one physical aggregate column's accumulators, one cell per base
// row: ints for COUNT and INT-valued SUM/MIN/MAX, floats otherwise. seen
// stands for agg.Layout's NULL identity — a SUM, MIN or MAX cell is NULL
// until its first non-NULL input — and is nil for COUNT, which starts at 0.
type physSlab struct {
	ints   []int64
	floats []float64
	seen   []bool
}

// value boxes base row bi's cell as agg.Layout would hold it.
func (s *physSlab) value(bi int) relation.Value {
	switch {
	case s.seen != nil && !s.seen[bi]:
		return relation.Null
	case s.ints != nil:
		return relation.NewInt(s.ints[bi])
	default:
		return relation.NewFloat(s.floats[bi])
	}
}

// gather images the cells of the base rows listed as a vector: ints or
// floats as the slab holds them, and the rows never seen as its NULLs.
func (s *physSlab) gather(rows []int32) relation.Vector {
	n := len(rows)
	var v relation.Vector
	if s.ints != nil {
		v.Kind, v.Ints = relation.KindInt, make([]int64, n)
		for i, bi := range rows {
			v.Ints[i] = s.ints[bi]
		}
	} else {
		v.Kind, v.Floats = relation.KindFloat, make([]float64, n)
		for i, bi := range rows {
			v.Floats[i] = s.floats[bi]
		}
	}
	if s.seen != nil {
		for i, bi := range rows {
			if !s.seen[bi] {
				v.SetNull(i, n)
			}
		}
	}
	return v
}

// aggStep folds detail row i into base row bi's cell of one slab.
type aggStep func(i int, bi int32)

func countStep(nulls []uint64, acc []int64) aggStep {
	if nulls == nil {
		return func(_ int, bi int32) { acc[bi]++ }
	}
	return func(i int, bi int32) {
		if !bitSet(nulls, i) {
			acc[bi]++
		}
	}
}

// sumStep is addValues over one native type: the first input is taken as is
// (so -0.0 survives), later ones are added.
func sumStep[T int64 | float64](col []T, nulls []uint64, acc []T, seen []bool) aggStep {
	return func(i int, bi int32) {
		if bitSet(nulls, i) {
			return
		}
		if seen[bi] {
			acc[bi] += col[i]
		} else {
			acc[bi], seen[bi] = col[i], true
		}
	}
}

func sumSqStep[T int64 | float64](col []T, nulls []uint64, acc []float64, seen []bool) aggStep {
	return func(i int, bi int32) {
		if bitSet(nulls, i) {
			return
		}
		f := float64(col[i])
		if seen[bi] {
			acc[bi] += f * f
		} else {
			acc[bi], seen[bi] = f*f, true
		}
	}
}

// minMaxStep mirrors minValue/maxValue: the cell changes only when the input
// is strictly beyond it.
func minMaxStep[T int64 | float64](col []T, nulls []uint64, acc []T, seen []bool, max bool) aggStep {
	return func(i int, bi int32) {
		if bitSet(nulls, i) {
			return
		}
		v := col[i]
		switch {
		case !seen[bi]:
			acc[bi], seen[bi] = v, true
		case max && acc[bi] < v, !max && acc[bi] > v:
			acc[bi] = v
		}
	}
}

// varKernel is one grouping variable compiled for one request.
type varKernel struct {
	layout *agg.Layout
	args   []*relation.Vector // per physical column; nil for COUNT(*)
	// patterns are the X rows by the rollup links they hold NULL in; a θ
	// without rollup links has one, of every X row that can match at all.
	patterns []linkPattern
	preds    []rowPred
}

// opKernel is one MD operator compiled against one columnar partition.
type opKernel struct {
	nx, rows int // X rows, detail rows
	vars     []*varKernel
}

// compileOperator compiles every grouping variable of an operator, or returns
// the reason the operator stays on the scalar path. states carry the layouts
// and the bound conditions.
func compileOperator(x *relation.Relation, states []*varState, cols *relation.Columns) (*opKernel, string) {
	k := &opKernel{nx: x.Len(), rows: cols.Rows, vars: make([]*varKernel, len(states))}
	for vi, st := range states {
		vk, reason := compileVar(x, st, cols)
		if vk == nil {
			return nil, reason
		}
		k.vars[vi] = vk
	}
	return k, reasonOK
}

func compileVar(x *relation.Relation, st *varState, cols *relation.Columns) (*varKernel, string) {
	vk := &varKernel{layout: st.layout, args: make([]*relation.Vector, len(st.layout.Phys))}
	for p, pc := range st.layout.Phys {
		if pc.ArgIdx < 0 {
			continue
		}
		vec := &cols.Vecs[pc.ArgIdx]
		// COUNT(col) only reads the NULL bitmap; the others fold payloads.
		if vec.Boxed || (pc.Op != agg.PhysCount && vec.Kind != relation.KindInt && vec.Kind != relation.KindFloat) {
			return nil, reasonKind
		}
		vk.args[p] = vec
	}

	var stages []linkStage
	rollups := 0
	for _, c := range expr.Conjuncts(st.cond) {
		if isTrueLit(c) {
			continue
		}
		if bIdx, dIdx, rollup, ok := boundLink(c); ok {
			if rollup {
				if rollups++; rollups > maxRollupLinks {
					return nil, reasonShape
				}
			}
			stage, reason := compileLink(x, bIdx, &cols.Vecs[dIdx], rollup)
			if reason != reasonOK {
				return nil, reason
			}
			stages = append(stages, stage)
			continue
		}
		pred, reason := compilePred(c, x, cols)
		if reason != reasonOK {
			return nil, reason
		}
		vk.preds = append(vk.preds, pred)
	}
	if len(stages) == 0 {
		// No link: every base row is a candidate for every detail row, which
		// is the nested loop's job.
		return nil, reasonShape
	}

	vk.patterns = linkPatterns(stages, x.Len())
	return vk, reasonOK
}

// linkPattern is the X rows that hold NULL in the same rollup links, grouped
// by their values in the other links: a detail row matches them on those
// alone.
type linkPattern struct {
	// group maps a detail row to its link group — the pattern's X rows whose
	// link values equal the row's — or noID.
	group func(i int) uint32
	// starts/rows are the groups in CSR form: group g is
	// rows[starts[g]:starts[g+1]], ascending. X rows that share link values
	// share a group, so one detail row still reaches all of them.
	starts, rows []int32
}

// linkPatterns sorts the nx X rows into patterns — only the ones X holds
// exist — leaving out the rows that can match nothing, and groups each
// pattern's rows on the links it is matched on.
func linkPatterns(stages []linkStage, nx int) []linkPattern {
	// Bit r of a row's mask is its NULL in the r-th rollup link.
	masks := newIntTable(8)
	var members [][]int32 // per pattern, its X rows
	for bi := 0; bi < nx; bi++ {
		mask, bit, dead := int64(0), uint(0), false
		for s := range stages {
			switch stages[s].xids[bi] {
			case noID:
				dead = true
			case anyID:
				mask |= 1 << bit
			}
			if stages[s].rollup {
				bit++
			}
		}
		if dead {
			continue
		}
		pi, fresh := masks.insert(mask)
		if fresh {
			members = append(members, nil)
		}
		members[pi] = append(members[pi], int32(bi))
	}
	patterns := make([]linkPattern, len(members))
	for pi, xrows := range members {
		var on []linkStage
		for _, st := range stages {
			if st.xids[xrows[0]] != anyID {
				on = append(on, st)
			}
		}
		patterns[pi] = linkGroups(on, xrows)
	}
	return patterns
}

// linkGroups folds the per-link ids into one group id per X row of xrows and
// per detail row. A second and later link pairs the running group with its own
// id through a table built from the X rows, so only combinations one of them
// holds get a group. Without a link — xrows hold NULL in every rollup link —
// there is one group, which every detail row is in.
func linkGroups(stages []linkStage, xrows []int32) linkPattern {
	groups := make([]uint32, len(xrows))
	n := uint32(1)
	if len(stages) > 0 {
		for m, bi := range xrows {
			groups[m] = stages[0].xids[bi]
		}
		n = stages[0].n
	}
	var pairs []*intTable
	for _, st := range stages[min(1, len(stages)):] {
		pair := newIntTable(len(xrows))
		for m, bi := range xrows {
			groups[m], _ = pair.insert(int64(groups[m])<<32 | int64(st.xids[bi]))
		}
		pairs, n = append(pairs, pair), pair.n
	}
	var p linkPattern
	switch len(stages) {
	case 0:
		p.group = func(int) uint32 { return 0 }
	case 1:
		p.group = stages[0].rowID
	default:
		p.group = func(i int) uint32 {
			g := stages[0].rowID(i)
			for s := 1; g != noID && s < len(stages); s++ {
				id := stages[s].rowID(i)
				if id == noID {
					return noID
				}
				g = pairs[s-1].find(int64(g)<<32 | int64(id))
			}
			return g
		}
	}

	p.starts = make([]int32, n+1)
	for _, g := range groups {
		p.starts[g+1]++
	}
	for g := uint32(0); g < n; g++ {
		p.starts[g+1] += p.starts[g]
	}
	p.rows = make([]int32, len(xrows))
	next := append([]int32(nil), p.starts[:n]...)
	for m, g := range groups {
		p.rows[next[g]] = xrows[m]
		next[g]++
	}
	return p
}

// boundLink recognizes a bound link conjunct — "B.b = R.d", or the rollup
// form "B.b IS NULL || B.b = R.d" — in either operand order.
func boundLink(c expr.Expr) (bIdx, dIdx int, rollup, ok bool) {
	b, isBin := c.(*expr.Bin)
	if !isBin {
		return 0, 0, false, false
	}
	if b.Op == expr.OpOr {
		for _, o := range [][2]expr.Expr{{b.L, b.R}, {b.R, b.L}} {
			u, isUn := o[0].(*expr.Un)
			if !isUn || u.Op != expr.OpIsNull {
				continue
			}
			nc, isCol := u.X.(*expr.Col)
			bIdx, dIdx, nested, ok := boundLink(o[1])
			if isCol && nc.Side == expr.SideBase && ok && !nested && nc.Idx == bIdx {
				return bIdx, dIdx, true, true
			}
		}
		return 0, 0, false, false
	}
	l, lok := b.L.(*expr.Col)
	r, rok := b.R.(*expr.Col)
	switch {
	case b.Op != expr.OpEq || !lok || !rok || l.Side == r.Side:
		return 0, 0, false, false
	case l.Side == expr.SideBase:
		return l.Idx, r.Idx, false, true
	default:
		return r.Idx, l.Idx, false, true
	}
}

// newSlabs allocates a variable's accumulators.
func (vk *varKernel) newSlabs(nx int) []physSlab {
	slabs := make([]physSlab, len(vk.layout.Phys))
	for p, pc := range vk.layout.Phys {
		s := &slabs[p]
		if pc.Kind == relation.KindFloat {
			s.floats = make([]float64, nx)
		} else {
			s.ints = make([]int64, nx)
		}
		if pc.Op != agg.PhysCount {
			s.seen = make([]bool, nx)
		}
	}
	return slabs
}

// steps binds the variable's aggregate steps to its slabs.
func (vk *varKernel) steps(slabs []physSlab) []aggStep {
	out := make([]aggStep, len(slabs))
	for p, pc := range vk.layout.Phys {
		s, vec := &slabs[p], vk.args[p]
		switch {
		case pc.Op == agg.PhysCount && vec == nil:
			out[p] = countStep(nil, s.ints)
		case pc.Op == agg.PhysCount:
			out[p] = countStep(vec.Nulls, s.ints)
		case pc.Op == agg.PhysSumSq && vec.Kind == relation.KindInt:
			out[p] = sumSqStep(vec.Ints, vec.Nulls, s.floats, s.seen)
		case pc.Op == agg.PhysSumSq:
			out[p] = sumSqStep(vec.Floats, vec.Nulls, s.floats, s.seen)
		case pc.Op == agg.PhysSum && vec.Kind == relation.KindInt:
			out[p] = sumStep(vec.Ints, vec.Nulls, s.ints, s.seen)
		case pc.Op == agg.PhysSum:
			out[p] = sumStep(vec.Floats, vec.Nulls, s.floats, s.seen)
		case vec.Kind == relation.KindInt:
			out[p] = minMaxStep(vec.Ints, vec.Nulls, s.ints, s.seen, pc.Op == agg.PhysMax)
		default:
			out[p] = minMaxStep(vec.Floats, vec.Nulls, s.floats, s.seen, pc.Op == agg.PhysMax)
		}
	}
	return out
}

// scan accumulates the first rows detail rows into slabs, pattern by pattern.
// An X row is in one group of one pattern, so its inputs arrive in one pass,
// detail rows ascending — the order the scalar path folds them in.
func (vk *varKernel) scan(rows int, slabs []physSlab, touched []bool) {
	steps := vk.steps(slabs)
	for p := range vk.patterns {
		vk.patterns[p].scan(rows, vk.preds, steps, touched)
	}
}

func (pat *linkPattern) scan(rows int, preds []rowPred, steps []aggStep, touched []bool) {
	for i := 0; i < rows; i++ {
		g := pat.group(i)
		if g == noID {
			continue
		}
	candidates:
		for _, bi := range pat.rows[pat.starts[g]:pat.starts[g+1]] {
			for _, pred := range preds {
				if !pred(i, bi) {
					continue candidates
				}
			}
			for _, step := range steps {
				step(i, bi)
			}
			touched[bi] = true
		}
	}
}

// run scans the image once per variable and hands the slabs to the
// OperatorAccum as they are.
func (k *opKernel) run(src RowSource) *OperatorAccum {
	out := &OperatorAccum{
		Layouts: make([]*agg.Layout, len(k.vars)),
		Touched: make([]bool, k.nx),
		slabs:   make([][]physSlab, len(k.vars)),
	}
	for vi, vk := range k.vars {
		out.Layouts[vi] = vk.layout
		out.slabs[vi] = vk.newSlabs(k.nx)
		vk.scan(k.rows, out.slabs[vi], out.Touched)
		chargeKernelScan(src, k.rows)
	}
	return out
}

// baseKernel is a base query compiled against one columnar partition: the
// filter as predicates, the projection as typed columns whose cells are
// deduplicated on ids instead of hashed Values.
type baseKernel struct {
	cols *relation.Columns
	idx  []int
	// masks holds, per grouping set, the projected columns it keeps; nil for
	// a set that keeps them all.
	masks  [][]bool
	schema relation.Schema
	where  []rowPred
}

// compileBaseKernel covers the distinct projection, plain or per grouping
// set, over INT and STRING columns, filtered by a conjunction of
// column-vs-literal comparisons.
func compileBaseKernel(p *baseProg, cols *relation.Columns) (*baseKernel, string) {
	if len(p.idx) == 0 {
		return nil, reasonShape
	}
	k := &baseKernel{cols: cols, idx: p.idx, masks: make([][]bool, len(p.masks)), schema: p.schema}
	for set, mask := range p.masks {
		for _, keep := range mask {
			if !keep {
				k.masks[set] = mask
				break
			}
		}
	}
	for _, j := range p.idx {
		if vec := &cols.Vecs[j]; vec.Boxed || (vec.Kind != relation.KindInt && vec.Kind != relation.KindString) {
			return nil, reasonKind
		}
	}
	if p.where != nil {
		for _, c := range expr.Conjuncts(p.where) {
			if isTrueLit(c) {
				continue
			}
			pred, reason := compilePred(c, nil, cols)
			if reason != reasonOK {
				return nil, reason
			}
			k.where = append(k.where, pred)
		}
	}
	return k, reasonOK
}

// baseCell names one base row: detail row row projected under grouping set
// set.
type baseCell struct{ row, set int32 }

// baseDedup is one scan's distinct-projection state. The first projected
// column's cells key the first table directly (dictionary code or integer);
// each further column pairs the running group id with the column's own dense
// cell id through one more table. A projection is a first occurrence exactly
// when the last table had to add its key. A column its grouping set leaves
// out is offered as NULL, the cell a NULL in the data has, so every set goes
// through the same tables and the two NULLs collapse into one base row, as
// they do in the scalar path's one KeySet.
type baseDedup struct {
	k     *baseKernel
	cells []*intTable // per INT column after the first: value → dense cell id
	pairs []*intTable // pairs[0] keys the first column; pairs[c] pairs group and column c
	fresh []baseCell  // the new projections, in scan order
}

func (k *baseKernel) newDedup() *baseDedup {
	d := &baseDedup{k: k, cells: make([]*intTable, len(k.idx)), pairs: make([]*intTable, len(k.idx))}
	for c, j := range k.idx {
		d.pairs[c] = newIntTable(64)
		if c > 0 && k.cols.Vecs[j].Kind == relation.KindInt {
			d.cells[c] = newIntTable(64)
		}
	}
	return d
}

// add offers row i's projection — the columns mask keeps; nil keeps all — and
// reports whether it is new.
func (d *baseDedup) add(i int, mask []bool) bool {
	var g uint32
	var fresh bool
	for c, j := range d.k.idx {
		vec := &d.k.cols.Vecs[j]
		null := (mask != nil && !mask[c]) || vec.Null(i)
		if c == 0 {
			switch {
			case null:
				g, fresh = d.pairs[0].insertNull()
			case vec.Kind == relation.KindInt:
				g, fresh = d.pairs[0].insert(vec.Ints[i])
			default:
				g, fresh = d.pairs[0].insert(int64(vec.Codes[i]))
			}
			continue
		}
		var cell uint32
		switch {
		case null:
			// 0; real cells start at 1.
		case vec.Kind == relation.KindInt:
			cell, _ = d.cells[c].insert(vec.Ints[i])
			cell++
		default:
			cell = vec.Codes[i] + 1
		}
		g, fresh = d.pairs[c].insert(int64(g)<<32 | int64(cell))
	}
	return fresh
}

// scan offers the rows that pass the filter, each under every grouping set in
// turn — the scalar order — and lists the new projections. Under several sets
// the rows go through a dedup of their own first: a row that repeats an
// earlier one repeats its projection under every set, so only new rows are
// offered set by set.
func (d *baseDedup) scan() {
	where, masks := d.k.where, d.k.masks
	var whole *baseDedup
	if len(masks) > 1 {
		whole = d.k.newDedup()
	}
rows:
	for i := 0; i < d.k.cols.Rows; i++ {
		for _, pred := range where {
			if !pred(i, 0) {
				continue rows
			}
		}
		if whole != nil && !whole.add(i, nil) {
			continue
		}
		for set, mask := range masks {
			if d.add(i, mask) {
				d.fresh = append(d.fresh, baseCell{int32(i), int32(set)})
			}
		}
	}
}

// run evaluates the base query in one pass, keeping the first occurrences in
// scan order — the order the scalar path produces — as a columnar relation
// gathered from the partition's vectors.
func (k *baseKernel) run(src RowSource) *relation.Relation {
	d := k.newDedup()
	d.scan()
	chargeKernelScan(src, k.cols.Rows)
	n := len(d.fresh)
	out := &relation.Columns{Rows: n, Vecs: make([]relation.Vector, len(k.idx))}
	for c, j := range k.idx {
		in, v := &k.cols.Vecs[j], &out.Vecs[c]
		v.Kind = in.Kind
		if v.Kind == relation.KindInt {
			v.Ints = make([]int64, n)
		} else {
			v.Codes, v.Dict = make([]uint32, n), make([]string, 0, n)
		}
		for i, bc := range d.fresh {
			row := int(bc.row)
			switch mask := k.masks[bc.set]; {
			case mask != nil && !mask[c], in.Null(row):
				v.SetNull(i, n)
			case v.Kind == relation.KindInt:
				v.Ints[i] = in.Ints[row]
			default:
				v.Codes[i] = uint32(len(v.Dict))
				v.Dict = append(v.Dict, in.Dict[in.Codes[row]])
			}
		}
	}
	return relation.FromColumns(k.schema, out)
}
