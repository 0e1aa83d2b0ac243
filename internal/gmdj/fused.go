package gmdj

import (
	"context"
	"slices"

	"skalla/internal/agg"
	"skalla/internal/expr"
	"skalla/internal/relation"
)

// One scan per local round. A local round's base pass gives every row of the
// partition its projection — its base row — and the round's first operator,
// over the same rows, then links every row back to the base row it
// projects to. When the operator's every condition is exactly those links
// (B.k = R.k for each key column k, beside conjuncts comparing a detail
// column with a literal), the link adds nothing the pass does not know: a row
// folds into its own projection's cells, unless a key column of it is NULL,
// which a link never matches. fuseLocal then runs the two as one kernel pass.

// fusedCells bounds the projections a fused operator's slabs start with room
// for; they double as the pass finds more.
const fusedCells = 4096

// fuseLocal evaluates q's base query and accumulates its first operator in
// one kernel pass over the one image of their detail relation, when the
// operator reads the base's own detail relation, the base has no grouping
// sets, and every variable's condition is covered (compileFused). Every row
// is offered and folded. The base rows are every projection's, in the order
// of its first row, with a witness's counts, unless the base is filtered and
// not witnessed: then they are the projections the filter admits a row of,
// in the order of the first row it admits, as the filtered pass lists them.
// The accumulator's cells are gathered for exactly those rows.
//
// It returns no X when the round does not fuse, and the caller runs the two
// passes; so does an error resolving the query, which is theirs to report.
func fuseLocal(ctx context.Context, q Query, src DataSource, witness bool) (*relation.Relation, []int64, *OperatorAccum, error) {
	op := q.Ops[0]
	if op.Detail != q.Base.Detail || len(q.Base.GroupingSets) > 0 {
		return nil, nil, nil, nil
	}
	rs, err := src.DetailSource(op.Detail)
	if err != nil {
		return nil, nil, nil, nil
	}
	cs, ok := rs.(ColumnSource)
	if !ok {
		return nil, nil, nil, nil
	}
	filtered := q.Base.Where != nil && !witness
	p, err := compileBase(q.Base, cs, witness || filtered)
	if err != nil {
		return nil, nil, nil, nil
	}
	states, err := bindVarStates(p.schema, op, cs.Schema())
	if err != nil {
		return nil, nil, nil, nil
	}
	sc := scratches.Get()
	defer scratches.Put(sc)
	var x *relation.Relation
	var counts []int64
	var acc *OperatorAccum
	images := 0
	reason, err := eachImage(ctx, cs, func(cols *relation.Columns) string {
		if images++; images > 1 || cols.Rows != cs.Len() {
			return reasonShape
		}
		k, _ := compileBaseKernel(p, cols)
		if k == nil {
			return reasonShape
		}
		f := compileFused(k, p.idx, states, cols)
		if f == nil {
			return reasonShape
		}
		x, counts, acc = k.runFused(f, filtered, sc)
		return reasonOK
	})
	if err != nil || reason != reasonOK || x == nil {
		return nil, nil, nil, err
	}
	chargeScan(ctx, cs, reasonOK, 1)
	return x, counts, acc, nil
}

// fusedOp is an operator compiled to fold inside a base pass over the image
// it reads (fuseLocal): per variable, its filters — a NULL in a key column,
// then its literal conjuncts — and its aggregate steps over slabs indexed by
// the projection the pass gives each row.
type fusedOp struct {
	vars    []*varKernel
	slabs   [][]physSlab
	folds   [][]foldFn
	touched []bool
	cells   int // the projections every slab has a cell for
}

// compileFused compiles the variables states of an operator over the image
// cols to fold inside the base kernel k's pass, whose projected columns are
// the image's columns idx, or returns nil when it cannot: every condition
// must be the links B.c = R.idx[c] of every key column c, each once, beside
// conjuncts comparing a detail column with a literal.
func compileFused(k *baseKernel, idx []int, states []*varState, cols *relation.Columns) *fusedOp {
	f := &fusedOp{vars: make([]*varKernel, len(states)), slabs: make([][]physSlab, len(states)), folds: make([][]foldFn, len(states))}
	linked := make([]bool, len(idx))
	for vi, st := range states {
		vk := newVarKernel(st, cols)
		if vk == nil {
			return nil
		}
		for c := range k.cols {
			if nulls := k.cols[c].vec.Nulls; nulls != nil {
				vk.keeps = append(vk.keeps, nullKeep(nulls, false))
			}
		}
		clear(linked)
		for _, c := range expr.Conjuncts(st.cond) {
			if isTrueLit(c) {
				continue
			}
			if bIdx, dIdx, rollup, ok := boundLink(c); ok {
				if rollup || dIdx != idx[bIdx] || linked[bIdx] {
					return nil
				}
				linked[bIdx] = true
				continue
			}
			keeps, reason := compilePred(c, nil, cols)
			if reason != reasonOK {
				return nil
			}
			vk.keeps = append(vk.keeps, keeps...)
		}
		if slices.Contains(linked, false) {
			return nil
		}
		f.vars[vi], f.slabs[vi] = vk, make([]physSlab, len(st.layout.Phys))
	}
	return f
}

// grow gives every slab, and the touched flags, n cells: the ones they have
// keep what they hold, and the rest start empty. They are lent from sc, each
// in the same buffer at every growth, and the folds are bound to them anew.
func (f *fusedOp) grow(n int, sc *scratch) {
	sc.nints, sc.nfloats, sc.nflags = 0, 0, 0
	f.touched = take(true, &sc.flags, &sc.nflags, f.cells, n)
	for vi, vk := range f.vars {
		sizeSlabs(vk.layout, f.slabs[vi], f.cells, n, sc, true)
		f.folds[vi] = vk.folds(f.slabs[vi])
	}
	f.cells = n
}

// fold folds a block's rows, rows[m] into projection projs[m], ascending,
// once the pass has given groups projections.
func (f *fusedOp) fold(rows, projs []int32, groups int, sc *scratch) {
	if groups > f.cells {
		f.grow(max(groups, 2*f.cells), sc)
	}
	for vi, vk := range f.vars {
		r, g := grow(&sc.pairRows, len(rows)), grow(&sc.pairProjs, len(rows))
		copy(r, rows)
		copy(g, projs)
		vk.consume(r, g, f.folds[vi], f.touched)
	}
}

// accum returns the accumulator of the projections kept lists (the first n
// when kept is nil), in cells of its own, exactly sized.
func (f *fusedOp) accum(kept []int32, n int) *OperatorAccum {
	out := &OperatorAccum{
		Layouts: make([]*agg.Layout, len(f.vars)),
		Touched: pick(f.touched, kept, n),
		slabs:   make([][]physSlab, len(f.vars)),
	}
	for vi, vk := range f.vars {
		out.Layouts[vi], out.slabs[vi] = vk.layout, make([]physSlab, len(f.slabs[vi]))
		for p, s := range f.slabs[vi] {
			out.slabs[vi][p] = physSlab{ints: pick(s.ints, kept, n), floats: pick(s.floats, kept, n), seen: pick(s.seen, kept, n)}
		}
	}
	return out
}

// pick copies the elements of in that kept lists, the first n when kept is
// nil, into a slice of its own; nil stays nil.
func pick[T any](in []T, kept []int32, n int) []T {
	if in == nil {
		return nil
	}
	out := make([]T, n)
	if kept == nil {
		copy(out, in)
		return out
	}
	for k, i := range kept {
		out[k] = in[i]
	}
	return out
}

// runFused is run with the operator f folded in: it returns the base rows,
// under a witness their counts, and f's accumulator over them. filtered
// keeps the projections the filter admits a row of, in the order of the
// first row it admits (baseDedup.admitted).
func (k *baseKernel) runFused(f *fusedOp, filtered bool, sc *scratch) (*relation.Relation, []int64, *OperatorAccum) {
	f.grow(k.maxGroups(fusedCells), sc)
	d := k.dedup(sc, f)
	var kept []int32
	n := len(d.fresh)
	if filtered {
		kept, n = d.admitted, len(d.admitted)
	}
	x, acc := k.rowsOf(d.fresh, kept, n), f.accum(kept, n)
	var counts []int64
	if k.witness && !filtered {
		counts = slices.Clone(d.counts)
	}
	k.release(sc)
	return x, counts, acc
}

// maxGroups bounds the projections the pass can give, by limit too: no more
// than the rows, nor than the product of the columns' cell counts. It is at
// least 1, so that every slab is allocated.
func (k *baseKernel) maxGroups(limit int) int {
	n := uint64(min(max(k.rows, 1), limit))
	prod := uint64(1)
	for _, c := range k.cols {
		if c.width >= n/prod+1 {
			return int(n)
		}
		prod *= c.width
	}
	return int(prod)
}
