package gmdj

import (
	"context"
	"errors"
	"math/bits"
	"slices"

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
// conjuncts become filters over typed column slices, and accumulators are
// flat typed slabs, boxed into Values only for the rows a caller asks for.
//
// The scan itself runs a block of detail rows at a time, each step one typed
// loop over the whole block: the block's link ids, then per pattern its
// candidate (detail row, X row) pairs, each residual compacting that pair
// list, and each aggregate folding what is left into its slab. Nothing is
// called per row, and what the loops branch on is either fixed for the
// request or almost always the same way.
//
// A partition is a sequence of images — an in-memory one, or a disk table's
// segments, each with dictionaries of its own — and a kernel scans them in
// order. What reads an image (the link translation into its dictionaries,
// the filters, the argument columns) is compiled per image; the accumulators
// are X's and span them all.
//
// A kernel exists only for the shapes compileOperator and compileBaseKernel
// cover; every other request runs the scalar path unchanged, and so does the
// whole evaluation when any one image declines. The choice is made from the
// request and the source alone, and both paths return the same bytes: every
// cell receives its inputs in ascending detail-row order, as the scalar path
// folds them, and every aggregate step mirrors agg.Layout's, so even float
// sums add in the same order.

// ColumnSource is a RowSource whose rows are held as columnar images, which a
// compiled kernel scans instead of calling Scan. A site holds every partition
// this way; a SourceOf relation is the one RowSource that is not one.
type ColumnSource interface {
	RowSource
	// Images hands fn the images of the rows Scan visits, in scan order, one
	// at a time, under ctx. An fn error aborts and is returned, as is an
	// error reading an image.
	Images(ctx context.Context, fn func(*relation.Columns) error) error
}

// Why a scan ran where it ran: the reason label of
// skalla_engine_scan_path_total. The kernel runs under reasonOK alone.
const (
	reasonOK    = "ok"    // compiled
	reasonShape = "shape" // a condition or filter shape the compiler does not cover (or the oracle's useHash=false)
	reasonKind  = "kind"  // a column kind the kernel does not cover: a BOOL or FLOAT dimension, a STRING or BOOL MIN or MAX
)

// chargeScan charges the recorder ctx carries with one evaluation's passes
// detail passes over src, all run where reason says, each reading every row.
// Only a site request carries a recorder, so the oracle's evaluations and any
// over a SourceOf relation count nowhere.
func chargeScan(ctx context.Context, src ColumnSource, reason string, passes int) {
	obs.RecorderFrom(ctx).ChargeScan(reason == reasonOK, reason, passes, int64(passes)*int64(src.Len()))
}

// errDeclined stops a kernel's walk over the images at the first one that
// does not compile.
var errDeclined = errors.New("gmdj: image declined")

// blockRows is how many detail rows a kernel works on at a time: enough that
// the per-block set-up vanishes, few enough that a block's buffers stay in
// the L1/L2 cache.
const blockRows = 1024

// scratch is the working state of one kernel evaluation: its block buffers,
// its link stages and patterns, its hash and dense tables and, for a caller
// that only reads them, its operator slabs. It is reused across the
// evaluation's images, patterns and variables and kept across evaluations,
// so a scan allocates nothing per block or per row, and a warm evaluation
// builds its tables in buffers an earlier one left.
type scratch struct {
	ids       [][]uint32 // per link stage, the block's ids
	rows, bis []int32    // candidate (detail row, X row) pairs
	groups    []uint32   // a pattern's group ids on several links

	// The link stages of the image being compiled, in compile order: each
	// one's X ids, reused by the next image and evaluation.
	xids  [][]uint32
	links int
	// Its link patterns likewise, each one's links, pair tables, only or
	// starts and grouped rows; and what building one takes: its X rows, the
	// rows of each rollup mask, their groups, a cursor.
	pons           [][]int
	ppairs         [][]pairTable
	pstarts, prows [][]int32
	patterns       int
	xrows, next    []int32
	members        [][]int32

	// The hash and dense tables of the image being compiled (or the base
	// pass being run), handed out in the order it asks for them.
	hashes        []*intTable
	dense         [][]uint32
	nhash, ndense int

	// An operator round's slabs and Touched flags, when the caller only
	// reads them (WithOperatorAccum): by kind, in the order the round asks
	// for them.
	ints                   [][]int64
	floats                 [][]float64
	flags                  [][]bool
	nints, nfloats, nflags int

	// The base dedup's: the dedups themselves (the projection's, and under
	// several grouping sets the whole row's), the projection each offered
	// row has, the cells of the projections a block offers, the positions
	// of the new ones, the (row, grouping set) elements under several sets,
	// the new projections in scan order and, under a witness, the
	// per-projection counts and the projections in the order the filter
	// first admits a row of each.
	dedups        [2]baseDedup
	projs         []int32
	cells         []uint32
	pos           []int32
	setRows, sets []int32
	fresh         []baseCell
	counts        []int64
	admitted      []int32

	// A fused operator's pair list: a block's rows and their projections
	// (fusedOp.fold).
	pairRows, pairProjs []int32

	// The row list a lent accumulator's reader gathers by (RowList).
	sel []int32
}

// scratches keeps the idle scratches for the next evaluation, whichever
// goroutine or P runs it.
var scratches = relation.FreeList[scratch]{New: func() *scratch {
	return &scratch{rows: make([]int32, blockRows), bis: make([]int32, blockRows)}
}}

// stageIDs returns n block-sized id buffers.
func (sc *scratch) stageIDs(n int) [][]uint32 {
	for len(sc.ids) < n {
		sc.ids = append(sc.ids, make([]uint32, blockRows))
	}
	return sc.ids[:n]
}

// linkXIDs returns the next link stage's X ids, nx of them, for the image
// being compiled.
func (sc *scratch) linkXIDs(nx int) []uint32 {
	sc.links++
	return slot(&sc.xids, sc.links-1, nx)
}

// resetTables hands the hash and dense tables out from the first again: the
// image or pass that used them is done.
func (sc *scratch) resetTables() { sc.nhash, sc.ndense = 0, 0 }

// hashTable returns the next hash table, empty and sized for hint keys.
func (sc *scratch) hashTable(hint int) *intTable {
	if sc.nhash == len(sc.hashes) {
		sc.hashes = append(sc.hashes, new(intTable))
	}
	t := sc.hashes[sc.nhash]
	sc.nhash++
	t.reset(hint)
	return t
}

// denseTable returns the next dense table, n zeroed entries.
func (sc *scratch) denseTable(n int) []uint32 { return take(true, &sc.dense, &sc.ndense, 0, n) }

// take returns n elements: the next of bufs, counted by used, when lend is
// set, its first have elements as its last user left them and the rest
// zeroed; n freshly allocated zeroed ones otherwise, when have must be 0.
func take[T any](lend bool, bufs *[][]T, used *int, have, n int) []T {
	if !lend {
		return make([]T, n)
	}
	for len(*bufs) <= *used {
		*bufs = append(*bufs, nil)
	}
	b := &(*bufs)[*used]
	*used++
	if cap(*b) < n {
		grown := make([]T, n)
		copy(grown, (*b)[:have])
		*b = grown
	}
	*b = (*b)[:n]
	clear((*b)[have:])
	return *b
}

// slot returns the i-th of bufs, n long, adding buffers and reallocating
// one as needed; it holds what its last user left.
func slot[T any](bufs *[][]T, i, n int) []T {
	for len(*bufs) <= i {
		*bufs = append(*bufs, nil)
	}
	return grow(&(*bufs)[i], n)
}

// denseLimit bounds the entries of a table indexed by value instead of hashed,
// for a table that will hold at most n keys: a small fixed allowance beside a
// few entries per key keeps it no larger than the hash table it replaces.
func denseLimit(n int) uint64 { return 4*uint64(n) + 1024 }

// noID marks "no such key" in every id space below.
const noID = ^uint32(0)

// intTable is an open-addressed int64 → dense id table (ids count up from 0
// in insertion order). The operator kernel
// fills it from X once per request and only reads it during the scan; the
// base kernel inserts while scanning. It lives in the kept scratch: reset
// empties it into the buffers it has, clearing only the slots it will use,
// and a grow rehashes the keys it lists in id order, so a warm table
// allocates nothing.
type intTable struct {
	keys  []int64
	ids   []uint32 // id+1; 0 marks an empty slot
	added []int64  // the keys by id
	shift uint
}

// reset empties the table, sized for hint keys before it grows.
func (t *intTable) reset(hint int) {
	bits := uint(3)
	for 1<<bits < 2*hint {
		bits++
	}
	t.keys, t.ids = grow(&t.keys, 1<<bits), grow(&t.ids, 1<<bits)
	clear(t.ids)
	t.added, t.shift = t.added[:0], 64-bits
}

// len is how many keys the table holds.
func (t *intTable) len() uint32 { return uint32(len(t.added)) }

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
			if 2*(len(t.added)+1) > len(t.ids) {
				t.grow()
				return t.insert(k)
			}
			t.added = append(t.added, k)
			t.keys[s], t.ids[s] = k, t.len()
			return t.len() - 1, true
		}
		if t.keys[s] == k {
			return id - 1, false
		}
	}
}

// grow doubles the slots, in place when their buffers have room, and puts
// every key back.
func (t *intTable) grow() {
	n := 2 * len(t.ids)
	t.keys, t.ids = grow(&t.keys, n), grow(&t.ids, n)
	clear(t.ids)
	t.shift--
	mask := uint64(n - 1)
	for id, k := range t.added {
		s := t.slot(k)
		for t.ids[s] != 0 {
			s = (s + 1) & mask
		}
		t.keys[s], t.ids[s] = k, uint32(id)+1
	}
}

// keepFn is one compiled residual step over a list of candidate pairs —
// detail row rows[m] against X row bis[m]. It moves the pairs it keeps to the
// front, in order, and returns how many it kept.
type keepFn func(rows, bis []int32) int

// number is what a kernel compares and accumulates natively; uint32 carries
// dictionary codes, which only ever meet = and <>.
type number interface{ int64 | float64 | uint32 }

// cmpKeep compiles "col op b[bi&mask]" on two non-NULL operands converted to
// T: mask -1 reads X row bi's value of X's column b, mask 0 reads a literal
// held as b[0]. The operator is chosen here, once, as one of three loops and
// a negation: a == b, a < b or b < a, each possibly negated. So <= is
// !(a > b) and >= is !(a < b), and the ordering operators mirror
// Value.Compare, under which a NaN orders as equal to everything; = and <>
// mirror Value.Equal. Every loop writes each pair and advances past it only
// when it passes, so it compacts without a branch.
func cmpKeep[C, B, T number](op expr.Op, col []C, b []B, mask int32) keepFn {
	neg := op == expr.OpNe || op == expr.OpLe || op == expr.OpGe
	switch op {
	case expr.OpEq, expr.OpNe:
		return func(rows, bis []int32) int {
			n := 0
			for m, i := range rows {
				bi := bis[m]
				rows[n], bis[n] = i, bi
				if (T(col[i]) == T(b[bi&mask])) != neg {
					n++
				}
			}
			return n
		}
	case expr.OpLt, expr.OpGe:
		return func(rows, bis []int32) int {
			n := 0
			for m, i := range rows {
				bi := bis[m]
				rows[n], bis[n] = i, bi
				if (T(col[i]) < T(b[bi&mask])) != neg {
					n++
				}
			}
			return n
		}
	default: // OpGt, OpLe
		return func(rows, bis []int32) int {
			n := 0
			for m, i := range rows {
				bi := bis[m]
				rows[n], bis[n] = i, bi
				if (T(b[bi&mask]) < T(col[i])) != neg {
					n++
				}
			}
			return n
		}
	}
}

// nullKeep drops the pairs whose detail row (onBase false) or X row (onBase
// true) is NULL under the bitmap nulls, which a comparison never holds on.
func nullKeep(nulls []uint64, onBase bool) keepFn {
	return func(rows, bis []int32) int {
		idx := rows
		if onBase {
			idx = bis
		}
		n := 0
		for m, i := range rows {
			bi, j := bis[m], idx[m]
			rows[n], bis[n] = i, bi
			n += int(nulls[j>>6]>>(uint(j)&63)&1 ^ 1)
		}
		return n
	}
}

// cmpKeeps compiles "R.col op b" — the detail column col with NULL bitmap
// nulls against X's column b (bnull its bitmap) or a literal (mask 0, bnull
// nil) — into the NULL passes the bitmaps need and the comparison.
func cmpKeeps[C, B, T number](op expr.Op, col []C, nulls []uint64, b []B, bnull []uint64, mask int32) []keepFn {
	var keeps []keepFn
	if nulls != nil {
		keeps = append(keeps, nullKeep(nulls, false))
	}
	if bnull != nil {
		keeps = append(keeps, nullKeep(bnull, true))
	}
	return append(keeps, cmpKeep[C, B, T](op, col, b, mask))
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

// compilePred compiles one residual conjunct — a comparison between a detail
// column and a literal or base column, in either operand order — into its
// filters, or reports why it cannot. x is nil for a base filter, where only
// literals may appear.
func compilePred(c expr.Expr, x *relation.Relation, cols *relation.Columns) ([]keepFn, string) {
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
	if vec.Kind == relation.KindBool {
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
			return cmpKeeps[uint32, uint32, uint32](op, vec.Codes, vec.Nulls, []uint32{code}, nil, 0), reasonOK
		case vec.Kind == relation.KindInt && k.Kind == relation.KindInt:
			return cmpKeeps[int64, int64, int64](op, vec.Ints, vec.Nulls, []int64{k.Int}, nil, 0), reasonOK
		case vec.Kind == relation.KindInt:
			return cmpKeeps[int64, float64, float64](op, vec.Ints, vec.Nulls, []float64{k.Float}, nil, 0), reasonOK
		default:
			f, _ := k.AsFloat()
			return cmpKeeps[float64, float64, float64](op, vec.Floats, vec.Nulls, []float64{f}, nil, 0), reasonOK
		}
	case *expr.Col:
		if r.Side != expr.SideBase || x == nil {
			return nil, reasonShape
		}
		declared := x.Schema[r.Idx].Kind
		if numeric != (declared == relation.KindInt || declared == relation.KindFloat) ||
			!numeric && declared != relation.KindString {
			return nil, reasonKind
		}
		bv := &x.Columns().Vecs[r.Idx]
		switch {
		case !numeric:
			// Codes in the detail column's dictionary; noID for a string no
			// detail row holds.
			codes := bv.Codes
			if !sharesDict(bv, vec) {
				codes = make([]uint32, x.Len())
				for bi := range codes {
					if !bv.Null(bi) {
						code, found := vec.Code(bv.Dict[bv.Codes[bi]])
						if !found {
							code = noID
						}
						codes[bi] = code
					}
				}
			}
			return cmpKeeps[uint32, uint32, uint32](op, vec.Codes, vec.Nulls, codes, bv.Nulls, -1), reasonOK
		case vec.Kind == relation.KindInt && declared == relation.KindInt:
			return cmpKeeps[int64, int64, int64](op, vec.Ints, vec.Nulls, bv.Ints, bv.Nulls, -1), reasonOK
		case vec.Kind == relation.KindInt:
			return cmpKeeps[int64, float64, float64](op, vec.Ints, vec.Nulls, bv.Floats, bv.Nulls, -1), reasonOK
		case declared == relation.KindInt:
			return cmpKeeps[float64, int64, float64](op, vec.Floats, vec.Nulls, bv.Ints, bv.Nulls, -1), reasonOK
		}
		return cmpKeeps[float64, float64, float64](op, vec.Floats, vec.Nulls, bv.Floats, bv.Nulls, -1), reasonOK
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
	xids   []uint32
	n      uint32 // the ids in use are 0..n-1
	rollup bool

	// The detail column, read by resolve: a STRING column's codes map to
	// id+1 through byCode; an INT column's keys through dense, indexed by
	// key-lo, when X's keys span few values, and through tbl otherwise.
	codes  []uint32
	byCode []uint32
	ints   []int64
	lo     int64
	dense  []uint32 // its last entry is 0, where every key beyond X's span lands
	tbl    *intTable
	nulls  []uint64
}

// anyID is an X row's id in a rollup link it holds NULL in.
const anyID = noID - 1

// maxRollupLinks bounds the rollup links of one condition, as the scalar
// path's 2^n-probe scan does.
const maxRollupLinks = 16

// compileLink resolves one link, into buffers and tables from sc. The probe
// stands in for evaluating the equality, so it must agree with expr's: same
// declared kinds on both sides (cross-kind numerics compare equal in expr,
// which a typed lookup would miss), and a detail NULL matches no value. A
// STRING X column that indexes the detail column's own dictionary
// (sharesDict) needs no probe: its code is the detail code.
func compileLink(x *relation.Relation, bIdx int, vec *relation.Vector, rollup bool, sc *scratch) (linkStage, string) {
	if x.Schema[bIdx].Kind != vec.Kind || vec.Kind != relation.KindString && vec.Kind != relation.KindInt {
		return linkStage{}, reasonKind
	}
	bv := &x.Columns().Vecs[bIdx]
	st := linkStage{rollup: rollup, nulls: vec.Nulls}
	null := noID
	if rollup {
		null = anyID
	}
	switch vec.Kind {
	case relation.KindString:
		// code → id+1, 0 for codes no X row holds. One entry more than the
		// dictionary, for the code 0 a NULL holds when the dictionary is empty.
		st.codes, st.xids, st.byCode = vec.Codes, sc.linkXIDs(x.Len()), sc.denseTable(len(vec.Dict)+1)
		same := sharesDict(bv, vec)
		for bi := range st.xids {
			if bv.Null(bi) {
				st.xids[bi] = null
				continue
			}
			st.xids[bi] = noID
			code, ok := bv.Codes[bi], true
			if !same {
				code, ok = vec.Code(bv.Dict[code])
			}
			if !ok {
				continue
			}
			if st.byCode[code] == 0 {
				st.n++
				st.byCode[code] = st.n
			}
			st.xids[bi] = st.byCode[code] - 1
		}
	default:
		st.ints, st.xids = vec.Ints, sc.linkXIDs(x.Len())
		lo, hi, found := int64(0), int64(0), false
		for bi, k := range bv.Ints {
			if !bv.Null(bi) {
				if !found {
					lo, hi, found = k, k, true
				}
				lo, hi = min(lo, k), max(hi, k)
			}
		}
		// hi-lo as a uint64 is exact even where int64 overflows; adding one
		// is not, when the keys run from MinInt64 to MaxInt64.
		if found && uint64(hi-lo) < denseLimit(len(st.xids))-1 {
			st.lo, st.dense = lo, sc.denseTable(int(hi-lo)+2)
			for bi, k := range bv.Ints {
				if bv.Null(bi) {
					st.xids[bi] = null
					continue
				}
				d := &st.dense[k-lo]
				if *d == 0 {
					st.n++
					*d = st.n
				}
				st.xids[bi] = *d - 1
			}
			break
		}
		st.tbl = sc.hashTable(len(st.xids))
		for bi, k := range bv.Ints {
			if bv.Null(bi) {
				st.xids[bi] = null
				continue
			}
			st.xids[bi], _ = st.tbl.insert(k)
		}
		st.n = st.tbl.len()
	}
	return st, reasonOK
}

// sharesDict reports whether X's STRING vector bv indexes the detail vector
// vec's dictionary itself — the same entries, not equal ones — as the base
// kernel's output over vec's image does: a code of bv's is then vec's code
// for the same string.
func sharesDict(bv, vec *relation.Vector) bool {
	return len(bv.Dict) > 0 && len(bv.Dict) == len(vec.Dict) && &bv.Dict[0] == &vec.Dict[0]
}

// resolve writes the ids of detail rows lo, lo+1, … into ids: noID for a
// NULL or a value no X row holds.
func (st *linkStage) resolve(ids []uint32, lo int) {
	hi := lo + len(ids)
	switch {
	case st.byCode != nil:
		for m, c := range st.codes[lo:hi] {
			ids[m] = st.byCode[c] - 1 // 0-1 wraps to noID
		}
	case st.dense != nil:
		out := uint64(len(st.dense) - 1)
		for m, k := range st.ints[lo:hi] {
			ids[m] = st.dense[min(uint64(k-st.lo), out)] - 1
		}
	default:
		for m, k := range st.ints[lo:hi] {
			ids[m] = st.tbl.find(k)
		}
	}
	if st.nulls == nil {
		return
	}
	// Visit only the NULL rows: lo is a multiple of blockRows, so the block
	// covers whole bitmap words but perhaps the last.
	for w := lo >> 6; w<<6 < hi; w++ {
		for word := st.nulls[w]; word != 0; word &= word - 1 {
			if i := w<<6 + bits.TrailingZeros64(word); i < hi {
				ids[i-lo] = noID
			}
		}
	}
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
// floats as the slab holds them, and the rows never seen as its NULLs. With
// rows nil it images every base row, and the vector takes the slab's ints or
// floats as they are: a slab nothing folds into again is handed over, not
// copied.
func (s *physSlab) gather(rows []int32) relation.Vector {
	v := relation.Vector{Kind: relation.KindInt, Ints: s.ints}
	if s.ints == nil {
		v = relation.Vector{Kind: relation.KindFloat, Floats: s.floats}
	}
	if rows == nil {
		for bi, seen := range s.seen {
			if !seen {
				v.SetNull(bi, len(s.seen))
			}
		}
		return v
	}
	n := len(rows)
	if s.ints != nil {
		v.Ints = make([]int64, n)
		for i, bi := range rows {
			v.Ints[i] = s.ints[bi]
		}
	} else {
		v.Floats = make([]float64, n)
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

// foldFn folds a list of surviving pairs — detail row rows[m] into X row
// bis[m]'s cell — into one slab. The pairs of one X row come in ascending
// detail-row order.
type foldFn func(rows, bis []int32)

func countFold(nulls []uint64, acc []int64) foldFn {
	if nulls == nil {
		return func(_, bis []int32) {
			for _, bi := range bis {
				acc[bi]++
			}
		}
	}
	return func(rows, bis []int32) {
		for m, i := range rows {
			acc[bis[m]] += int64(nulls[i>>6]>>(uint(i)&63)&1 ^ 1)
		}
	}
}

// sumFold is addValues over one native type: the first input is taken as is
// (so -0.0 survives), later ones are added. Only a cell's first input takes
// the other branch.
func sumFold[T int64 | float64](col []T, nulls []uint64, acc []T, seen []bool) foldFn {
	return func(rows, bis []int32) {
		for m, i := range rows {
			if nulls != nil && nulls[i>>6]>>(uint(i)&63)&1 != 0 {
				continue
			}
			if bi := bis[m]; seen[bi] {
				acc[bi] += col[i]
			} else {
				acc[bi], seen[bi] = col[i], true
			}
		}
	}
}

func sumSqFold[T int64 | float64](col []T, nulls []uint64, acc []float64, seen []bool) foldFn {
	return func(rows, bis []int32) {
		for m, i := range rows {
			if nulls != nil && nulls[i>>6]>>(uint(i)&63)&1 != 0 {
				continue
			}
			f := float64(col[i])
			if bi := bis[m]; seen[bi] {
				acc[bi] += f * f
			} else {
				acc[bi], seen[bi] = f*f, true
			}
		}
	}
}

// minMaxFold mirrors minValue/maxValue: the cell changes only when the input
// is strictly beyond it.
func minMaxFold[T int64 | float64](col []T, nulls []uint64, acc []T, seen []bool, max bool) foldFn {
	return func(rows, bis []int32) {
		for m, i := range rows {
			if nulls != nil && nulls[i>>6]>>(uint(i)&63)&1 != 0 {
				continue
			}
			bi, v := bis[m], col[i]
			switch {
			case !seen[bi]:
				acc[bi], seen[bi] = v, true
			case max && acc[bi] < v, !max && acc[bi] > v:
				acc[bi] = v
			}
		}
	}
}

// varKernel is one grouping variable compiled for one request.
type varKernel struct {
	layout *agg.Layout
	args   []*relation.Vector // per physical column; nil for COUNT(*)
	stages []linkStage
	// patterns are the X rows by the rollup links they hold NULL in; a θ
	// without rollup links has one, of every X row that can match at all.
	patterns []linkPattern
	keeps    []keepFn
}

// compileOperator compiles every grouping variable of an operator against
// one image, or returns the reason the operator stays on the scalar path.
// states carry the layouts and the bound conditions.
func compileOperator(x *relation.Relation, states []*varState, cols *relation.Columns, sc *scratch) ([]*varKernel, string) {
	// The previous image's link stages, patterns and tables are done.
	sc.links, sc.patterns = 0, 0
	sc.resetTables()
	vars := make([]*varKernel, len(states))
	for vi, st := range states {
		vk, reason := compileVar(x, st, cols, sc)
		if vk == nil {
			return nil, reason
		}
		vars[vi] = vk
	}
	return vars, reasonOK
}

func compileVar(x *relation.Relation, st *varState, cols *relation.Columns, sc *scratch) (*varKernel, string) {
	vk := newVarKernel(st, cols)
	if vk == nil {
		return nil, reasonKind
	}
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
			stage, reason := compileLink(x, bIdx, &cols.Vecs[dIdx], rollup, sc)
			if reason != reasonOK {
				return nil, reason
			}
			vk.stages = append(vk.stages, stage)
			continue
		}
		keeps, reason := compilePred(c, x, cols)
		if reason != reasonOK {
			return nil, reason
		}
		vk.keeps = append(vk.keeps, keeps...)
	}
	if len(vk.stages) == 0 {
		// No link: every base row is a candidate for every detail row, which
		// is the nested loop's job.
		return nil, reasonShape
	}

	vk.patterns = linkPatterns(vk.stages, x.Len(), sc)
	return vk, reasonOK
}

// newVarKernel starts the kernel of the variable st over the image cols with
// its aggregate arguments, or returns nil when one is of a kind the folds do
// not cover.
func newVarKernel(st *varState, cols *relation.Columns) *varKernel {
	vk := &varKernel{layout: st.layout, args: make([]*relation.Vector, len(st.layout.Phys))}
	for p, pc := range st.layout.Phys {
		if pc.ArgIdx < 0 {
			continue
		}
		vec := &cols.Vecs[pc.ArgIdx]
		// COUNT(col) only reads the NULL bitmap; the others fold payloads.
		if pc.Op != agg.PhysCount && vec.Kind != relation.KindInt && vec.Kind != relation.KindFloat {
			return nil
		}
		vk.args[p] = vec
	}
	return vk
}

// linkPattern is the X rows that hold NULL in the same rollup links, grouped
// by their values in the other links: a detail row matches them on those
// alone.
type linkPattern struct {
	// on lists the stages the pattern is matched on; pairs[s-1] folds the id
	// of stage on[s] into the group the stages before it give.
	on    []int
	pairs []pairTable
	// The groups' X rows: when every group holds one, only[g+1] is group g's
	// and only[0] is -1, where noID+1 wraps to; otherwise starts/rows are the
	// groups in CSR form, group g being rows[starts[g]:starts[g+1]],
	// ascending. X rows that share link values share a group, so one detail
	// row still reaches all of them.
	only         []int32
	starts, rows []int32
}

// pairTable maps a (group, id) pair to a group of the next column or link,
// numbered from 0 in the order the pairs are added. When the pairs can be
// few it is a flat array of group+1 indexed (g+1)·width + id+1, whose row
// and column 0 — where noID+1 wraps to — are empty, so a lookup is one load
// per row; a hash table otherwise. Both come from the scratch.
type pairTable struct {
	dense []uint32
	width uint64
	n     uint32 // the groups the flat array has given
	tbl   *intTable
}

// newPairTable returns an empty table for pairs of groups below groups and
// ids below ids, over a side of n rows: the flat array when its entries stay
// within denseLimit(n), a hash table sized for hint pairs otherwise. The
// operator's links and the base pass's columns pair by this one rule.
func newPairTable(groups, ids uint64, n, hint int, sc *scratch) pairTable {
	width, limit := ids+1, denseLimit(n)
	if width <= limit && groups+1 <= limit/width {
		return pairTable{dense: sc.denseTable(int((groups + 1) * width)), width: width}
	}
	return pairTable{tbl: sc.hashTable(hint)}
}

// insert returns the group of the pair (g, id) and whether this call added
// it.
func (t *pairTable) insert(g, id uint32) (uint32, bool) {
	if t.dense == nil {
		return t.tbl.insert(int64(g)<<32 | int64(id))
	}
	return t.claim(&t.dense[uint64(g+1)*t.width+uint64(id+1)])
}

// claim returns the group in the flat array's entry e and whether this call
// gave it, as the next group, because e held none.
func (t *pairTable) claim(e *uint32) (uint32, bool) {
	if *e == 0 {
		t.n++
		*e = t.n
		return t.n - 1, true
	}
	return *e - 1, false
}

// groups is how many groups the table has given.
func (t *pairTable) groups() uint32 {
	if t.dense == nil {
		return t.tbl.len()
	}
	return t.n
}

// fold replaces each group g[m] by the group of the pair (g[m], ids[m]),
// noID when no X row holds it — as for every pair with a noID in it: the flat
// array leaves their entries empty, and the hash table holds only pairs of
// groups and ids below noID.
func (t *pairTable) fold(g, ids []uint32) {
	if t.dense != nil {
		for m, id := range ids {
			g[m] = t.dense[uint64(g[m]+1)*t.width+uint64(id+1)] - 1
		}
		return
	}
	for m, id := range ids {
		g[m] = t.tbl.find(int64(g[m])<<32 | int64(id))
	}
}

// linkPatterns sorts the nx X rows into patterns — only the ones X holds
// exist — leaving out the rows that can match nothing, and groups each
// pattern's rows on the links it is matched on. Without a rollup link every
// row is matched on every link, so the rows that can match form one pattern.
// Each pattern's buffers come from sc.
func linkPatterns(stages []linkStage, nx int, sc *scratch) []linkPattern {
	rollup := false
	for s := range stages {
		rollup = rollup || stages[s].rollup
	}
	if !rollup {
		xrows := sc.xrows[:0]
	live:
		for bi := 0; bi < nx; bi++ {
			for s := range stages {
				if stages[s].xids[bi] == noID {
					continue live
				}
			}
			xrows = append(xrows, int32(bi))
		}
		if sc.xrows = xrows; len(xrows) == 0 {
			return nil
		}
		return []linkPattern{linkGroups(stages, xrows, sc)}
	}
	return maskPatterns(stages, nx, sc)
}

// maskPatterns is linkPatterns under rollup links: each row's pattern is the
// set of rollup links it holds NULL in, its mask.
func maskPatterns(stages []linkStage, nx int, sc *scratch) []linkPattern {
	// Bit r of a row's mask is its NULL in the r-th rollup link; per
	// pattern, sc.members lists its X rows.
	masks := sc.hashTable(8)
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
			rows := slot(&sc.members, int(pi), 0)
			sc.members[pi] = rows
		}
		sc.members[pi] = append(sc.members[pi], int32(bi))
	}
	patterns := make([]linkPattern, masks.len())
	for pi := range patterns {
		patterns[pi] = linkGroups(stages, sc.members[pi], sc)
	}
	return patterns
}

// linkGroups makes the pattern of xrows, which hold NULL in the same rollup
// links: it is matched on the others, and it folds their ids into one group
// id per X row. A second and later link pairs the running group with its own
// id through a table built from the X rows, so only combinations one of
// them holds get a group. Without a link — xrows hold NULL in every rollup
// link — there is one group, which every detail row is in. The pattern's
// links, tables and groups are laid out in the next pattern buffers of sc.
func linkGroups(stages []linkStage, xrows []int32, sc *scratch) linkPattern {
	i := sc.patterns
	sc.patterns++
	p := linkPattern{on: slot(&sc.pons, i, 0)}
	for s := range stages {
		if stages[s].xids[xrows[0]] != anyID {
			p.on = append(p.on, s)
		}
	}
	sc.pons[i] = p.on
	groups, n := grow(&sc.groups, len(xrows)), uint32(1)
	if clear(groups); len(p.on) > 0 {
		for m, bi := range xrows {
			groups[m] = stages[p.on[0]].xids[bi]
		}
		n = stages[p.on[0]].n
	}
	p.pairs = slot(&sc.ppairs, i, max(len(p.on)-1, 0))
	for k, s := range p.on[min(1, len(p.on)):] {
		st := &stages[s]
		t := newPairTable(uint64(n), uint64(st.n), len(xrows), len(xrows), sc)
		for m, bi := range xrows {
			groups[m], _ = t.insert(groups[m], st.xids[bi])
		}
		p.pairs[k], n = t, t.groups()
	}

	count := slot(&sc.pstarts, i, int(n)+1)
	clear(count)
	shared := false
	for _, g := range groups {
		count[g+1]++
		shared = shared || count[g+1] > 1
	}
	if !shared {
		p.only = count // reused: every entry is 0 or 1 now
		for g := range p.only {
			p.only[g] = -1
		}
		for m, g := range groups {
			p.only[g+1] = xrows[m]
		}
		return p
	}
	p.starts = count
	for g := uint32(0); g < n; g++ {
		p.starts[g+1] += p.starts[g]
	}
	p.rows = slot(&sc.prows, i, len(xrows))
	next := append(sc.next[:0], p.starts[:n]...)
	sc.next = next
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

// newSlabs returns the zeroed accumulators of a variable of layout l over nx
// base rows: lent from sc's slab buffers when lend is set, allocated
// otherwise.
func newSlabs(l *agg.Layout, nx int, sc *scratch, lend bool) []physSlab {
	slabs := make([]physSlab, len(l.Phys))
	sizeSlabs(l, slabs, 0, nx, sc, lend)
	return slabs
}

// sizeSlabs sets slabs, the accumulators of a variable of layout l, to n
// cells each: lent from sc's slab buffers, their first have cells kept, when
// lend is set (take), and allocated zeroed otherwise.
func sizeSlabs(l *agg.Layout, slabs []physSlab, have, n int, sc *scratch, lend bool) {
	for p, pc := range l.Phys {
		s := &slabs[p]
		if pc.Kind == relation.KindFloat {
			s.floats = take(lend, &sc.floats, &sc.nfloats, have, n)
		} else {
			s.ints = take(lend, &sc.ints, &sc.nints, have, n)
		}
		if pc.Op != agg.PhysCount {
			s.seen = take(lend, &sc.flags, &sc.nflags, have, n)
		}
	}
}

// folds binds the variable's aggregate steps to its slabs.
func (vk *varKernel) folds(slabs []physSlab) []foldFn {
	out := make([]foldFn, len(slabs))
	for p, pc := range vk.layout.Phys {
		s, vec := &slabs[p], vk.args[p]
		switch {
		case pc.Op == agg.PhysCount && vec == nil:
			out[p] = countFold(nil, s.ints)
		case pc.Op == agg.PhysCount:
			out[p] = countFold(vec.Nulls, s.ints)
		case pc.Op == agg.PhysSumSq && vec.Kind == relation.KindInt:
			out[p] = sumSqFold(vec.Ints, vec.Nulls, s.floats, s.seen)
		case pc.Op == agg.PhysSumSq:
			out[p] = sumSqFold(vec.Floats, vec.Nulls, s.floats, s.seen)
		case pc.Op == agg.PhysSum && vec.Kind == relation.KindInt:
			out[p] = sumFold(vec.Ints, vec.Nulls, s.ints, s.seen)
		case pc.Op == agg.PhysSum:
			out[p] = sumFold(vec.Floats, vec.Nulls, s.floats, s.seen)
		case vec.Kind == relation.KindInt:
			out[p] = minMaxFold(vec.Ints, vec.Nulls, s.ints, s.seen, pc.Op == agg.PhysMax)
		default:
			out[p] = minMaxFold(vec.Floats, vec.Nulls, s.floats, s.seen, pc.Op == agg.PhysMax)
		}
	}
	return out
}

// scan accumulates the first rows detail rows into the slabs folds writes,
// block by block and, within a block, pattern by pattern. An X row is in one
// group of one pattern, and a block's pairs are listed detail rows
// ascending, so every cell gets its inputs in detail-row order — the order
// the scalar path folds them in.
func (vk *varKernel) scan(rows int, folds []foldFn, touched []bool, sc *scratch) {
	if len(vk.patterns) == 0 {
		return
	}
	ids := sc.stageIDs(len(vk.stages))
	for lo := 0; lo < rows; lo += blockRows {
		n := min(blockRows, rows-lo)
		for s := range vk.stages {
			vk.stages[s].resolve(ids[s][:n], lo)
		}
		for p := range vk.patterns {
			vk.pairs(&vk.patterns[p], ids, lo, n, folds, touched, sc)
		}
	}
}

// pairs lists one pattern's candidate pairs for the block of n detail rows
// from lo and hands them to consume: straight from the only map, or through
// the CSR groups, flushing whenever the pair buffer fills.
func (vk *varKernel) pairs(p *linkPattern, ids [][]uint32, lo, n int, folds []foldFn, touched []bool, sc *scratch) {
	var groups []uint32
	switch len(p.on) {
	case 0:
		groups = grow(&sc.groups, n)
		clear(groups)
	case 1:
		groups = ids[p.on[0]][:n]
	default:
		groups = grow(&sc.groups, n)
		copy(groups, ids[p.on[0]])
		for s, t := range p.pairs {
			t.fold(groups, ids[p.on[s+1]][:n])
		}
	}
	rows, bis := sc.rows, sc.bis
	k := 0
	if p.only != nil {
		for m, g := range groups {
			bi := p.only[g+1]
			rows[k], bis[k] = int32(lo+m), bi
			if bi >= 0 {
				k++
			}
		}
		vk.consume(rows[:k], bis[:k], folds, touched)
		return
	}
	for m, g := range groups {
		if g == noID {
			continue
		}
		for _, bi := range p.rows[p.starts[g]:p.starts[g+1]] {
			if k == len(rows) {
				vk.consume(rows, bis, folds, touched)
				k = 0
			}
			rows[k], bis[k] = int32(lo+m), bi
			k++
		}
	}
	vk.consume(rows[:k], bis[:k], folds, touched)
}

// consume runs a pair list through the residuals, folds the survivors into
// the slabs and marks their X rows touched.
func (vk *varKernel) consume(rows, bis []int32, folds []foldFn, touched []bool) {
	n := len(rows)
	for _, keep := range vk.keeps {
		if n == 0 {
			return
		}
		n = keep(rows[:n], bis[:n])
	}
	rows, bis = rows[:n], bis[:n]
	for _, fold := range folds {
		fold(rows, bis)
	}
	for _, bi := range bis {
		touched[bi] = true
	}
}

// eachImage hands run every image of src under ctx in turn, stopping at the
// first it reports does not compile, and returns why (reasonOK when none) — a
// decline returns no error. A canceled ctx stops the walk before the next
// image.
func eachImage(ctx context.Context, src ColumnSource, run func(*relation.Columns) string) (string, error) {
	reason := reasonOK
	err := src.Images(ctx, func(cols *relation.Columns) error {
		if reason = run(cols); reason != reasonOK {
			return errDeclined
		}
		return ctx.Err()
	})
	switch {
	case reason != reasonOK:
		return reason, nil
	case err != nil:
		return "", err
	}
	return reasonOK, nil
}

// runOperatorKernel compiles the operator against each image of src in turn
// and folds the image into one set of slabs, a variable at a time, handing
// them to the OperatorAccum as they are. Images in scan order, and rows in
// order within each, keep every cell's inputs in detail-row order. An image
// that does not compile stops the walk: the accumulator is nil and the
// reason says why. Its buffers come from sc, and so do the slabs and Touched
// when lend is set: the accumulator is then valid until sc is used again.
func runOperatorKernel(ctx context.Context, x *relation.Relation, states []*varState, src ColumnSource, sc *scratch, lend bool) (*OperatorAccum, string, error) {
	sc.nints, sc.nfloats, sc.nflags = 0, 0, 0
	out := &OperatorAccum{
		Layouts: make([]*agg.Layout, len(states)),
		Touched: take(lend, &sc.flags, &sc.nflags, 0, x.Len()),
		slabs:   make([][]physSlab, len(states)),
	}
	for vi, st := range states {
		out.Layouts[vi], out.slabs[vi] = st.layout, newSlabs(st.layout, x.Len(), sc, lend)
	}
	reason, err := eachImage(ctx, src, func(cols *relation.Columns) string {
		vars, why := compileOperator(x, states, cols, sc)
		if vars == nil {
			return why
		}
		for vi, vk := range vars {
			vk.scan(cols.Rows, vk.folds(out.slabs[vi]), out.Touched, sc)
		}
		return reasonOK
	})
	if reason != reasonOK || err != nil {
		return nil, reason, err
	}
	return out, reasonOK, nil
}

// baseKernel is a base query compiled against one image: the
// filter as block filters, the projection as typed columns whose cells are
// deduplicated on ids instead of hashed Values.
type baseKernel struct {
	rows int
	cols []baseCol
	// masks holds, per grouping set, the projected columns it keeps; nil for
	// a set that keeps them all.
	masks  [][]bool
	schema relation.Schema
	where  []keepFn
	// witness counts the rows where admits instead of dropping the others.
	witness bool
}

// baseCol is one projected column of a baseKernel. Its cells are ids below
// width: 0 for NULL, else a STRING's dictionary code, an INT's value minus
// lo when the column's values span narrowly, or its id in a table of values
// when they do not (hashed), each plus one.
type baseCol struct {
	vec    *relation.Vector
	lo     int64
	hashed bool
	width  uint64
}

// compileBaseKernel covers the distinct projection, plain or per grouping
// set, over INT and STRING columns, filtered by a conjunction of
// column-vs-literal comparisons; under a witness, the plain projection only.
func compileBaseKernel(p *baseProg, cols *relation.Columns) (*baseKernel, string) {
	if len(p.idx) == 0 {
		return nil, reasonShape
	}
	k := &baseKernel{rows: cols.Rows, cols: make([]baseCol, len(p.idx)), masks: make([][]bool, len(p.masks)), schema: p.schema, witness: p.witness}
	for set, mask := range p.masks {
		for _, keep := range mask {
			if !keep {
				k.masks[set] = mask
				break
			}
		}
	}
	if p.witness && (len(k.masks) > 1 || k.masks[0] != nil) {
		return nil, reasonShape
	}
	for c, j := range p.idx {
		vec := &cols.Vecs[j]
		if vec.Kind != relation.KindInt && vec.Kind != relation.KindString {
			return nil, reasonKind
		}
		k.cols[c] = baseColOf(vec, cols.Rows)
	}
	if p.where != nil {
		for _, c := range expr.Conjuncts(p.where) {
			if isTrueLit(c) {
				continue
			}
			keeps, reason := compilePred(c, nil, cols)
			if reason != reasonOK {
				return nil, reason
			}
			k.where = append(k.where, keeps...)
		}
	}
	return k, reasonOK
}

// baseColOf lays out the cells of a projected column of an image of rows
// rows: an INT column is indexed by value when its span is narrow, as
// compileLink's dense maps are, and hashed otherwise.
func baseColOf(vec *relation.Vector, rows int) baseCol {
	if vec.Kind == relation.KindString {
		return baseCol{vec: vec, width: uint64(len(vec.Dict)) + 1}
	}
	if len(vec.Ints) > 0 {
		lo, hi := vec.Ints[0], vec.Ints[0]
		for _, v := range vec.Ints {
			lo, hi = min(lo, v), max(hi, v)
		}
		// As in compileLink: hi-lo is exact, hi-lo+1 may wrap.
		if span := uint64(hi - lo); span < denseLimit(rows)-1 {
			return baseCol{vec: vec, lo: lo, width: span + 2}
		}
	}
	return baseCol{vec: vec, hashed: true, width: uint64(rows) + 1}
}

// baseCell names one base row: detail row row projected under grouping set
// set.
type baseCell struct{ row, set int32 }

// baseDedup is one scan's distinct-projection state. The columns' cells
// (baseCol) are folded into a group id a column at a time: pairs[c] pairs
// the running group — 0 before the first column — with column c's cell, so a
// projection is a first occurrence exactly when the last table had to add
// its pair. A table is a flat array when the groups its column can meet
// times the column's cells are few, which the widths bound, and a hash
// table otherwise (newPairTable). A column its grouping set leaves out is
// offered as NULL, the cell a NULL in the data has, so every set goes
// through the same tables and the two NULLs collapse into one base row, as
// they do in the scalar path's one relation.KeyTable.
type baseDedup struct {
	k      *baseKernel
	cells  []*intTable // per hashed column, value → cell-1; nil for the others
	pairs  []pairTable // pairs[c] pairs group and column c's cell
	fresh  []baseCell  // the new projections, in scan order
	counts []int64     // under a witness, per projection the rows where admits
	// admitted lists, under a witness, the projections where admits a row
	// of, in the order of the first row it admits.
	admitted []int32
	// op, when set, folds every block's rows into the projections the pass
	// gives them (fuseLocal).
	op *fusedOp
}

// newDedup starts dedup t of sc, its tables from sc, empty.
func (k *baseKernel) newDedup(sc *scratch, t int) *baseDedup {
	d := &sc.dedups[t]
	d.k, d.cells, d.pairs = k, grow(&d.cells, len(k.cols)), grow(&d.pairs, len(k.cols))
	groups, limit := uint64(1), denseLimit(k.rows)
	for c, col := range k.cols {
		// The pairs may grow large; start their tables small.
		d.pairs[c] = newPairTable(groups, col.width, k.rows, 32, sc)
		d.cells[c] = nil
		if col.hashed {
			d.cells[c] = sc.hashTable(32)
		}
		// The groups the next column meets: at most one per pair.
		if col.width > limit/groups {
			groups = limit
		} else {
			groups *= col.width
		}
	}
	return d
}

// offer offers the projections of detail rows rows[m] under grouping sets
// sets[m] (all columns kept when sets is nil), in order, a column at a time,
// and appends to fresh the positions m of the ones that are new. It leaves
// row m's projection, its position in d.fresh, in sc.projs[m].
func (d *baseDedup) offer(rows, sets []int32, sc *scratch, fresh []int32) []int32 {
	n := len(rows)
	g, cell := grow(&sc.projs, n), grow(&sc.cells, n)
	clear(g)
	last := len(d.k.cols) - 1
	for c := range d.k.cols {
		d.cellsOf(c, rows, sets, cell)
		t := &d.pairs[c]
		switch {
		case t.dense == nil:
			for m, x := range cell {
				id, isNew := t.tbl.insert(int64(g[m])<<32 | int64(x))
				g[m] = int32(id)
				if isNew && c == last {
					fresh = append(fresh, int32(m))
				}
			}
		case c == 0:
			// Every group is 0 before the first column, so its cells index
			// group 0's row of the array alone.
			row := t.dense[t.width+1:]
			for m, x := range cell {
				id, isNew := t.claim(&row[x])
				g[m] = int32(id)
				if isNew && c == last {
					fresh = append(fresh, int32(m))
				}
			}
		default:
			for m, x := range cell {
				id, isNew := t.claim(&t.dense[uint64(g[m]+1)*t.width+uint64(x+1)])
				g[m] = int32(id)
				if isNew && c == last {
					fresh = append(fresh, int32(m))
				}
			}
		}
	}
	return fresh
}

// cellsOf writes column c's cells of rows into cell: typed loops, then a
// pass zeroing the NULLs if the column has any, then one zeroing the cells
// the grouping sets leave out.
func (d *baseDedup) cellsOf(c int, rows, sets []int32, cell []uint32) {
	col := &d.k.cols[c]
	vec := col.vec
	switch {
	case vec.Kind == relation.KindString:
		for m, i := range rows {
			cell[m] = vec.Codes[i] + 1
		}
	case !col.hashed:
		for m, i := range rows {
			cell[m] = uint32(vec.Ints[i]-col.lo) + 1
		}
	default:
		for m, i := range rows {
			id, _ := d.cells[c].insert(vec.Ints[i])
			cell[m] = id + 1
		}
	}
	if nulls := vec.Nulls; nulls != nil {
		for m, i := range rows {
			cell[m] &= uint32(nulls[i>>6]>>(uint(i)&63)&1) - 1
		}
	}
	if sets != nil {
		for m, set := range sets {
			if mask := d.k.masks[set]; mask != nil && !mask[c] {
				cell[m] = 0
			}
		}
	}
}

// grow returns (*buf)[:n], reallocating it when it is too short.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// scan filters the rows a block at a time and offers the survivors, each
// under every grouping set in turn — the scalar order — listing the new
// projections. Under several sets the rows go through a dedup of their own
// first: a row that repeats an earlier one repeats its projection under every
// set, so only new rows are offered set by set. Under a witness every row is
// offered and the ones the filter admits are counted against their
// projection: a projection's group id is its position in fresh. A fused
// operator folds each block's offered rows, all of them, before the filter
// counts them.
func (d *baseDedup) scan(sc *scratch) {
	masks := d.k.masks
	var whole *baseDedup
	if len(masks) > 1 {
		whole = d.k.newDedup(sc, 1)
	}
	d.fresh, d.counts, d.admitted = sc.fresh[:0], sc.counts[:0], sc.admitted[:0]
	total := d.k.rows
	for lo := 0; lo < total; lo += blockRows {
		// The filters hold literals only, which never read the X rows.
		rows, unused := sc.rows[:min(blockRows, total-lo)], sc.bis
		for m := range rows {
			rows[m] = int32(lo + m)
		}
		if !d.k.witness {
			rows = rows[:d.filter(rows, unused)]
		}
		if whole != nil {
			sc.pos = whole.offer(rows, nil, sc, sc.pos[:0])
			for k, m := range sc.pos {
				rows[k] = rows[m]
			}
			rows = rows[:len(sc.pos)]
		}
		var sets []int32
		if len(masks) > 1 || masks[0] != nil {
			rs, ss := sc.setRows[:0], sc.sets[:0]
			for _, i := range rows {
				for set := range masks {
					rs, ss = append(rs, i), append(ss, int32(set))
				}
			}
			sc.setRows, sc.sets = rs, ss
			rows, sets = rs, ss
		}
		sc.pos = d.offer(rows, sets, sc, sc.pos[:0])
		for _, m := range sc.pos {
			cell := baseCell{row: rows[m]}
			if sets != nil {
				cell.set = sets[m]
			}
			d.fresh = append(d.fresh, cell)
			if d.k.witness {
				d.counts = append(d.counts, 0)
			}
		}
		if d.op != nil {
			d.op.fold(rows, sc.projs[:len(rows)], len(d.fresh), sc)
		}
		if d.k.witness {
			// Every row of the block was offered, in place, so sc.projs
			// holds row lo+m's projection at m. The filters carry each row's
			// projection beside it, as they carry an X row beside a detail
			// row, so the projections of the rows they admit come out in
			// front, in order, to be counted.
			projs := sc.projs[:len(rows)]
			for _, g := range projs[:d.filter(rows, projs)] {
				if d.counts[g] == 0 {
					d.admitted = append(d.admitted, g)
				}
				d.counts[g]++
			}
		}
	}
	sc.fresh, sc.counts, sc.admitted = d.fresh, d.counts, d.admitted
}

// filter moves the rows of a block the filters admit to its front, in order,
// with the entry of beside at the same position, and returns how many it
// kept. The filters read literals only, never beside.
func (d *baseDedup) filter(rows, beside []int32) int {
	n := len(rows)
	for _, keep := range d.k.where {
		if n == 0 {
			break
		}
		n = keep(rows[:n], beside[:n])
	}
	return n
}

// runKernel evaluates the base query over each image of src in turn, or
// reports why it stays on the scalar path as runOperatorKernel does. Under
// several images their results are merged keeping each base row's first
// occurrence, so the rows come in the scalar path's order, and summing a
// witness's counts.
func (p *baseProg) runKernel(ctx context.Context, src ColumnSource) (*relation.Relation, []int64, string, error) {
	sc := scratches.Get()
	defer scratches.Put(sc)
	var out *relation.Relation
	var counts []int64
	var merged *distinctRows // once a second image needs merging
	reason, err := eachImage(ctx, src, func(cols *relation.Columns) string {
		k, why := compileBaseKernel(p, cols)
		if k == nil {
			return why
		}
		part, partCounts := k.run(sc)
		switch {
		case out == nil:
			out, counts = part, partCounts
			return reasonOK
		case merged == nil:
			merged = newDistinctRows(p.schema, p.witness)
			merged.addAll(out, counts)
		}
		merged.addAll(part, partCounts)
		out, counts = merged.out, merged.counts
		return reasonOK
	})
	switch {
	case reason != reasonOK || err != nil:
		return nil, nil, reason, err
	case out == nil: // no image at all
		out = relation.New(p.schema)
	}
	return out, counts, reasonOK, nil
}

// run evaluates the base query over the image in one pass, keeping the first
// occurrences in scan order — the order the scalar path produces — as a
// columnar relation gathered from the image's vectors, and under a witness
// each row's count. A STRING column indexes the image's own dictionary
// (clipped, so a later append copies it), which lets an operator over the
// same image link it without a probe (compileLink). The scan's buffers, its
// dedups and their tables come from sc, grown into what an earlier pass left
// there; only the result is allocated.
func (k *baseKernel) run(sc *scratch) (*relation.Relation, []int64) {
	d := k.dedup(sc, nil)
	out := k.rowsOf(d.fresh, nil, len(d.fresh))
	var counts []int64
	if k.witness {
		counts = slices.Clone(d.counts)
	}
	k.release(sc)
	return out, counts
}

// dedup runs the pass over the image with op, when set, folded in, and
// returns its dedup.
func (k *baseKernel) dedup(sc *scratch, op *fusedOp) *baseDedup {
	sc.resetTables()
	d := k.newDedup(sc, 0)
	d.op = op
	d.scan(sc)
	return d
}

// release drops what the dedups hold of the image: the free list keeps
// their tables, not the image they read.
func (k *baseKernel) release(sc *scratch) {
	for t := range sc.dedups {
		sc.dedups[t].k, sc.dedups[t].op = nil, nil
	}
}

// rowsOf gathers the base rows of the projections kept lists, as positions
// in fresh (the first n of fresh when kept is nil), from the image's
// vectors.
func (k *baseKernel) rowsOf(fresh []baseCell, kept []int32, n int) *relation.Relation {
	out := &relation.Columns{Rows: n, Vecs: make([]relation.Vector, len(k.cols))}
	for c := range k.cols {
		in, v := k.cols[c].vec, &out.Vecs[c]
		v.Kind = in.Kind
		if v.Kind == relation.KindInt {
			v.Ints = make([]int64, n)
		} else {
			v.Codes, v.Dict = make([]uint32, n), slices.Clip(in.Dict)
		}
		for i := 0; i < n; i++ {
			bc := fresh[i]
			if kept != nil {
				bc = fresh[kept[i]]
			}
			row := int(bc.row)
			switch mask := k.masks[bc.set]; {
			case mask != nil && !mask[c], in.Null(row):
				v.SetNull(i, n)
			case v.Kind == relation.KindInt:
				v.Ints[i] = in.Ints[row]
			default:
				v.Codes[i] = in.Codes[row]
			}
		}
	}
	return relation.FromColumns(k.schema, out)
}
