package gmdj

import (
	"fmt"
	"strconv"

	"skalla/internal/agg"
	"skalla/internal/expr"
	"skalla/internal/obs"
	"skalla/internal/relation"
)

// RowSource is a scannable detail relation: evaluation never needs random
// access to detail rows, only sequential scans, so sites can serve
// partitions from memory (relation.Relation via SourceOf) or from disk
// (internal/store.Table) behind the same interface with bounded memory.
type RowSource interface {
	// Schema describes the rows.
	Schema() relation.Schema
	// Scan streams every row through fn; an fn error aborts the scan.
	Scan(fn func(relation.Tuple) error) error
	// Len returns the row count.
	Len() int
}

// scanCounted streams src through fn like src.Scan, charging the rows visited
// to the engine rows-scanned counter — one counter add per scan, never per
// row, so the accounting stays off the hot path.
func scanCounted(src RowSource, fn func(relation.Tuple) error) error {
	rows := 0
	err := src.Scan(func(t relation.Tuple) error {
		rows++
		return fn(t)
	})
	obs.EngineRowsScanned.Add(int64(rows))
	return err
}

// scanCountedWorker is scanCounted for one shard of a parallel evaluation: the
// visited rows are additionally charged to the per-worker counter, so skewed
// shard assignments show up in /metrics.
func scanCountedWorker(src RowSource, worker int, fn func(relation.Tuple) error) error {
	rows := 0
	err := src.Scan(func(t relation.Tuple) error {
		rows++
		return fn(t)
	})
	obs.EngineRowsScanned.Add(int64(rows))
	obs.EngineWorkerRows.With(strconv.Itoa(worker)).Add(int64(rows))
	return err
}

// scanShardCounted dispatches between the sequential (worker < 0) and
// per-worker-labeled counted scans.
func scanShardCounted(src RowSource, worker int, fn func(relation.Tuple) error) error {
	if worker < 0 {
		return scanCounted(src, fn)
	}
	return scanCountedWorker(src, worker, fn)
}

// SourceOf adapts a materialized relation to a RowSource.
func SourceOf(r *relation.Relation) RowSource { return relSource{r} }

type relSource struct{ r *relation.Relation }

func (s relSource) Schema() relation.Schema { return s.r.Schema }
func (s relSource) Len() int                { return s.r.Len() }
func (s relSource) Scan(fn func(relation.Tuple) error) error {
	for _, t := range s.r.Tuples {
		if err := fn(t); err != nil {
			return err
		}
	}
	return nil
}

// Split implements SplittableSource: contiguous row ranges of near-equal
// size, so the concatenation of the shard scans is exactly the full scan.
func (s relSource) Split(n int) []RowSource {
	rows := s.r.Len()
	if n > rows {
		n = rows
	}
	if n <= 1 {
		return nil
	}
	out := make([]RowSource, n)
	for w := 0; w < n; w++ {
		lo, hi := rows*w/n, rows*(w+1)/n
		out[w] = relSource{&relation.Relation{Schema: s.r.Schema, Tuples: s.r.Tuples[lo:hi]}}
	}
	return out
}

// DataSource resolves detail relation names to scannable sources.
type DataSource interface {
	SchemaSource
	DetailSource(name string) (RowSource, error)
}

// Data is a map-based DataSource over materialized relations.
//
//skallavet:allow stringkey -- catalog keyed by relation name: resolved once per query, not per tuple
type Data map[string]*relation.Relation

// DetailSchema implements SchemaSource.
func (d Data) DetailSchema(name string) (relation.Schema, error) {
	r, err := d.DetailRelation(name)
	if err != nil {
		return nil, err
	}
	return r.Schema, nil
}

// DetailRelation returns the named materialized relation.
func (d Data) DetailRelation(name string) (*relation.Relation, error) {
	r, ok := d[name]
	if !ok {
		return nil, fmt.Errorf("gmdj: unknown detail relation %q", name)
	}
	return r, nil
}

// DetailSource implements DataSource.
func (d Data) DetailSource(name string) (RowSource, error) {
	r, err := d.DetailRelation(name)
	if err != nil {
		return nil, err
	}
	return SourceOf(r), nil
}

// EvalCentral evaluates a complex GMDJ expression against fully materialized
// data, exactly per Definition 1: each base tuple's aggregates are computed
// over RNG(b, R, θ). It is the centralized reference implementation — the
// role Daytona plays in the paper — and the correctness oracle for the
// distributed evaluator. Equality-linked conditions are evaluated with a
// hash-grouping fast path; set useHash=false to force the literal
// nested-loop semantics (used to cross-check the fast path).
func EvalCentral(q Query, src DataSource, useHash bool) (*relation.Relation, error) {
	x, err := EvalCentralX(q, src, useHash)
	if err != nil {
		return nil, err
	}
	return x.Project(FinalColumns(q))
}

// EvalCentralX is EvalCentral without the final projection: it returns the
// full base-result structure X (base columns, physical sub-aggregate columns
// and derived AVG columns). The distributed engine's local evaluation rounds
// (Prop. 2 / Cor. 1) ship this form so the coordinator can still merge
// physical columns by key.
func EvalCentralX(q Query, src DataSource, useHash bool) (*relation.Relation, error) {
	if err := q.Validate(src); err != nil {
		return nil, err
	}
	return evalPrefixX(q, src, len(q.Ops), useHash, 1)
}

// EvalPrefixX evaluates the base query and the first upTo operators,
// returning the intermediate base-result structure X_upTo. The query must
// already be validated.
func EvalPrefixX(q Query, src DataSource, upTo int, useHash bool) (*relation.Relation, error) {
	return EvalPrefixXWorkers(q, src, upTo, useHash, 1)
}

// EvalPrefixXWorkers is EvalPrefixX with worker-parallel scans (see
// EvalBaseWorkers / AccumulateOperatorWorkers for the workers contract).
func EvalPrefixXWorkers(q Query, src DataSource, upTo int, useHash bool, workers int) (*relation.Relation, error) {
	if upTo < 0 || upTo > len(q.Ops) {
		return nil, fmt.Errorf("gmdj: prefix %d out of range (query has %d operators)", upTo, len(q.Ops))
	}
	return evalPrefixX(q, src, upTo, useHash, workers)
}

func evalPrefixX(q Query, src DataSource, upTo int, useHash bool, workers int) (*relation.Relation, error) {
	baseRel, err := src.DetailSource(q.Base.Detail)
	if err != nil {
		return nil, err
	}
	x, err := EvalBaseWorkers(q.Base, baseRel, workers)
	if err != nil {
		return nil, err
	}
	for i := 0; i < upTo; i++ {
		op := q.Ops[i]
		detail, err := src.DetailSource(op.Detail)
		if err != nil {
			return nil, err
		}
		x, err = ApplyOperatorWorkers(x, op, detail, useHash, workers)
		if err != nil {
			return nil, fmt.Errorf("gmdj: MD%d: %w", i+1, err)
		}
	}
	return x, nil
}

// EvalBase computes the base-values relation B_0 from a detail source: an
// optional filter followed by a distinct projection, generalized to grouping
// sets when bq.GroupingSets is non-empty (the union over sets of NULL-padded
// distinct projections; see BaseQuery). The detail rows are streamed once;
// memory is bounded by the number of distinct base values.
func EvalBase(bq BaseQuery, detail RowSource) (*relation.Relation, error) {
	return EvalBaseWorkers(bq, detail, 1)
}

// EvalBaseWorkers is EvalBase with the detail scan sharded across workers
// (0 = auto, 1 = sequential; parallelism needs a SplittableSource). The
// result is identical to the sequential evaluation including row order:
// shards are contiguous, each worker records its shard's first occurrences in
// order, and the merge dedupes in shard order — so global first-occurrence
// order is preserved exactly. Over a ColumnSource, a base query the kernel
// compiler covers (kernel.go) runs compiled instead, with identical results.
func EvalBaseWorkers(bq BaseQuery, detail RowSource, workers int) (*relation.Relation, error) {
	p, err := compileBase(bq, detail)
	if err != nil {
		return nil, err
	}
	shards := splitSource(detail, resolveWorkers(workers, detail.Len()))
	reason := reasonSource
	if cols, colShards := columnShards(detail, shards); cols != nil {
		var k *baseKernel
		if k, reason = compileBaseKernel(p, cols); k != nil {
			noteScanPath(detail, reasonOK, 1)
			return k.run(colShards), nil
		}
	}
	noteScanPath(detail, reason, 1)
	if shards != nil {
		return evalBaseParallel(p, shards)
	}
	out := relation.New(p.schema)
	seen := relation.NewKeySet(64)
	if err := p.scanShard(detail, -1, seen, &out.Tuples); err != nil {
		return nil, err
	}
	return out, nil
}

// baseProg is a compiled base query: the bound filter, projection indexes and
// grouping-set masks. All fields are read-only after compileBase, so shards
// can share one program.
type baseProg struct {
	where   expr.Expr
	idx     []int
	allCols []int
	masks   [][]bool
	schema  relation.Schema
}

func compileBase(bq BaseQuery, detail RowSource) (*baseProg, error) {
	schema := detail.Schema()
	p := &baseProg{}
	if bq.Where != nil {
		var err error
		p.where, err = expr.Bind(bq.Where, nil, schema)
		if err != nil {
			return nil, err
		}
	}
	idx, err := schema.Indexes(bq.Cols)
	if err != nil {
		return nil, err
	}
	p.idx = idx
	p.schema = schema.Project(idx)
	p.allCols = make([]int, len(bq.Cols))
	for i := range p.allCols {
		p.allCols[i] = i
	}

	// Precompute the grouping-set masks; the plain distinct projection is
	// the single full set.
	sets := bq.GroupingSets
	if len(sets) == 0 {
		sets = [][]string{bq.Cols}
	}
	p.masks = make([][]bool, len(sets))
	for si, set := range sets {
		mask := make([]bool, len(bq.Cols))
		for _, col := range set {
			for i, c := range bq.Cols {
				if c == col {
					mask[i] = true
				}
			}
		}
		p.masks[si] = mask
	}
	return p, nil
}

// scanShard streams one shard of the detail source, interning each surviving
// projection into seen and appending fresh ones to out in first-occurrence
// order. worker < 0 is the sequential (unlabeled) scan.
func (p *baseProg) scanShard(src RowSource, worker int, seen *relation.KeySet, out *[]relation.Tuple) error {
	scratch := make(relation.Tuple, len(p.idx))
	return scanShardCounted(src, worker, func(t relation.Tuple) error {
		if p.where != nil {
			ok, err := expr.EvalCond(p.where, nil, t)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		for _, mask := range p.masks {
			for i, j := range p.idx {
				if mask[i] {
					scratch[i] = t[j]
				} else {
					scratch[i] = relation.Null
				}
			}
			// Add interns the projection only for fresh keys; duplicates cost
			// one hash probe and no allocation.
			interned, fresh := seen.Add(scratch, p.allCols)
			if fresh {
				*out = append(*out, interned)
			}
		}
		return nil
	})
}

// OperatorAccum holds the per-base-row physical accumulators of one MD
// operator evaluation over one detail relation (or one partition of it), plus
// the Touched flags: Touched[i] is the |RNG(b_i, R, θ_1 ∨ … ∨ θ_m)| > 0 test
// of Proposition 1, used for distribution-independent group reduction. The
// accumulators are read through AppendPhysRow and ExtendRow, which box a row's
// values on demand: a caller that emits only the touched rows never pays for
// the others.
type OperatorAccum struct {
	Layouts []*agg.Layout
	Touched []bool
	// Exactly one of the two holds the partials, [variable] first: boxed
	// tuples per base row from the scalar paths, typed slabs per physical
	// column from a compiled kernel.
	accs  [][]relation.Tuple
	slabs [][]physSlab
}

// AccumulateOperator evaluates one MD operator's grouping variables over the
// detail rows, per Definition 1, producing physical sub-aggregate slices for
// every base row. The detail source is scanned once per grouping variable;
// conditions with equality links use a hash-grouping fast path over the base
// relation, grouping-set conditions use the 2^n-probe cube path, and
// everything else falls back to the literal nested loop (detail-outer, so
// disk-backed sources are still scanned sequentially). Over a ColumnSource,
// an operator the kernel compiler covers (kernel.go) runs compiled instead,
// with identical results.
func AccumulateOperator(x *relation.Relation, op Operator, detail RowSource, useHash bool) (*OperatorAccum, error) {
	return AccumulateOperatorWorkers(x, op, detail, useHash, 1)
}

// AccumulateOperatorWorkers is AccumulateOperator with the detail scans
// sharded across workers (0 = auto, 1 = sequential; parallelism needs a
// SplittableSource). Each worker accumulates private per-base-row partials
// over its shard; the partials are merged with the same super-aggregate
// decomposition that merges per-site sub-aggregates — Theorem 1 applies
// unchanged, a worker shard is just a finer horizontal partition — in worker
// order, so results match the sequential evaluation (byte-identically for
// integer-valued aggregates; see DESIGN.md §11 for the float caveat).
func AccumulateOperatorWorkers(x *relation.Relation, op Operator, detail RowSource, useHash bool, workers int) (*OperatorAccum, error) {
	states, err := bindVarStates(x, op, detail.Schema())
	if err != nil {
		return nil, err
	}
	shards := splitSource(detail, resolveWorkers(workers, detail.Len()))
	// useHash=false asks for the literal nested loop of Definition 1, which a
	// kernel — a hash path in all but name — is not.
	reason := reasonShape
	if useHash {
		reason = reasonSource
		if cols, colShards := columnShards(detail, shards); cols != nil {
			var k *opKernel
			if k, reason = compileOperator(x, states, cols); k != nil {
				noteScanPath(detail, reasonOK, len(states))
				return k.run(colShards), nil
			}
		}
		indexVarStates(x, states, detail.Schema())
	}
	noteScanPath(detail, reason, len(states))
	out := newOperatorAccum(x.Len(), states)
	if shards != nil {
		if err := accumulateParallel(x, states, out, shards); err != nil {
			return nil, err
		}
		return out, nil
	}
	hits := make([]uint32, x.Len())
	for vi, st := range states {
		if err := st.scan(x, detail, out.accs[vi], hits, -1); err != nil {
			return nil, err
		}
	}
	for i, h := range hits {
		out.Touched[i] = h > 0
	}
	return out, nil
}

// newOperatorAccum allocates an accum with identity partials for every
// (variable, base row) cell.
func newOperatorAccum(baseRows int, states []*varState) *OperatorAccum {
	out := &OperatorAccum{
		Layouts: make([]*agg.Layout, len(states)),
		accs:    make([][]relation.Tuple, len(states)),
		Touched: make([]bool, baseRows),
	}
	for vi, st := range states {
		out.Layouts[vi] = st.layout
		out.accs[vi] = identityRows(st.layout, baseRows)
	}
	return out
}

// identityRows returns n identity tuples of the layout carved from one Value
// slab: one allocation for the values instead of one per base row.
func identityRows(l *agg.Layout, n int) []relation.Tuple {
	id := l.Identity()
	w := len(id)
	slab := make([]relation.Value, n*w)
	rows := make([]relation.Tuple, n)
	for i := range rows {
		rows[i] = slab[i*w : (i+1)*w : (i+1)*w]
		copy(rows[i], id)
	}
	return rows
}

// varState is one grouping variable compiled against the base and detail
// schemas: the aggregate layout, the bound condition, and (when usable) the
// hash-grouping index over the base relation. All fields are read-only once
// the scans start — expression evaluation is a stateless tree walk and
// KeyIndex.Lookup never mutates — so concurrent shard scans share one state.
type varState struct {
	layout  *agg.Layout
	cond    expr.Expr
	hashIdx *relation.KeyIndex
	probe   []int
	// rollup marks the grouping-set fast path: probe holds the detail
	// column positions of the dimensions, and every detail row is probed
	// with all 2^n NULL paddings (each base row matches at most one —
	// the one mirroring its own NULL pattern).
	rollup bool
}

// bindVarStates compiles an operator's layouts and binds its conditions; the
// hash indexes are added by indexVarStates only when the scalar hash path is
// the one that runs.
func bindVarStates(x *relation.Relation, op Operator, detailSchema relation.Schema) ([]*varState, error) {
	states := make([]*varState, len(op.Vars))
	for vi, v := range op.Vars {
		layout, err := agg.NewLayout(v.Aggs, detailSchema)
		if err != nil {
			return nil, err
		}
		cond, err := expr.Bind(v.Cond, x.Schema, detailSchema)
		if err != nil {
			return nil, err
		}
		states[vi] = &varState{layout: layout, cond: cond}
	}
	return states, nil
}

// indexVarStates gives every variable whose condition has equality links (or
// the rollup shape) a hash index over the base relation. A link whose base and
// detail columns differ in declared kind gets none: the index matches keys by
// identity (INT 1 is not FLOAT 1.0) while the condition's equality compares
// numerics across kinds, so probing would silently drop matches the nested
// loop finds.
func indexVarStates(x *relation.Relation, states []*varState, detailSchema relation.Schema) {
	for _, st := range states {
		links := expr.EqualityLinks(st.cond)
		rollup := false
		if len(links) == 0 {
			// Grouping-set conditions have their equalities under ORs;
			// recognize the rollup shape and use the 2^n-probe cube path.
			if rl, ok := expr.RollupLinks(st.cond); ok && len(rl) <= 16 {
				links, rollup = rl, true
			}
		}
		if len(links) == 0 {
			continue
		}
		baseCols := make([]string, len(links))
		probe := make([]int, len(links))
		usable := true
		for li, l := range links {
			baseCols[li] = l.Base
			bi, di := x.Schema.Index(l.Base), detailSchema.Index(l.Detail)
			if bi < 0 || di < 0 || x.Schema[bi].Kind != detailSchema[di].Kind {
				usable = false
				break
			}
			probe[li] = di
		}
		if !usable {
			continue
		}
		if idx, err := relation.BuildKeyIndex(x, baseCols); err == nil {
			st.hashIdx, st.probe, st.rollup = idx, probe, rollup
		}
	}
}

// scan accumulates this grouping variable over one detail shard: accs[i]
// receives base row i's physical partials, hits[i] counts its accumulations
// (feeding both the Prop. 1 Touched flags and the skew-aware merge planner).
// worker < 0 is the sequential (unlabeled) scan.
func (st *varState) scan(x *relation.Relation, detail RowSource, accs []relation.Tuple, hits []uint32, worker int) error {
	if st.hashIdx != nil && st.rollup {
		n := len(st.probe)
		padded := make(relation.Tuple, n)
		paddedCols := make([]int, n)
		for i := range paddedCols {
			paddedCols[i] = i
		}
		return scanShardCounted(detail, worker, func(dr relation.Tuple) error {
			// A NULL detail value pads identically whether its bit is
			// set or not; restrict masks to non-NULL dimensions so no
			// probe (and hence no base row) repeats for this detail row.
			nullBits := 0
			for i, di := range st.probe {
				if dr[di].IsNull() {
					nullBits |= 1 << i
				}
			}
			for mask := 0; mask < 1<<n; mask++ {
				if mask&nullBits != 0 {
					continue
				}
				for i, di := range st.probe {
					if mask&(1<<i) != 0 {
						padded[i] = dr[di]
					} else {
						padded[i] = relation.Null
					}
				}
				for _, bi := range st.hashIdx.Lookup(padded, paddedCols) {
					ok, err := expr.EvalCond(st.cond, x.Tuples[bi], dr)
					if err != nil {
						return err
					}
					if ok {
						if err := st.layout.Accumulate(accs[bi], dr); err != nil {
							return err
						}
						hits[bi]++
					}
				}
			}
			return nil
		})
	}
	if st.hashIdx != nil {
		return scanShardCounted(detail, worker, func(dr relation.Tuple) error {
			for _, bi := range st.hashIdx.Lookup(dr, st.probe) {
				ok, err := expr.EvalCond(st.cond, x.Tuples[bi], dr)
				if err != nil {
					return err
				}
				if ok {
					if err := st.layout.Accumulate(accs[bi], dr); err != nil {
						return err
					}
					hits[bi]++
				}
			}
			return nil
		})
	}
	return scanShardCounted(detail, worker, func(dr relation.Tuple) error {
		for bi, br := range x.Tuples {
			ok, err := expr.EvalCond(st.cond, br, dr)
			if err != nil {
				return err
			}
			if ok {
				if err := st.layout.Accumulate(accs[bi], dr); err != nil {
					return err
				}
				hits[bi]++
			}
		}
		return nil
	})
}

// ExtendedSchema returns the base schema extended with the operator's
// physical and derived columns, in layout order.
func (a *OperatorAccum) ExtendedSchema(base relation.Schema) (relation.Schema, error) {
	out := base.Clone()
	var err error
	for _, l := range a.Layouts {
		if out, err = out.Concat(l.PhysSchema()); err != nil {
			return nil, err
		}
		if out, err = out.Concat(l.DerivedSchema()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ExtendRow returns base row i's values followed by its physical and derived
// aggregate values.
func (a *OperatorAccum) ExtendRow(baseRow relation.Tuple, i int) relation.Tuple {
	row := make(relation.Tuple, 0, len(baseRow)+a.physWidth())
	row = append(row, baseRow...)
	for vi, l := range a.Layouts {
		phys := len(row)
		row = a.appendVar(row, vi, i)
		row = append(row, l.ComputeDerived(row[phys:])...)
	}
	return row
}

// AppendPhysRow appends only base row i's physical aggregate values across
// all variables (the sub-aggregate payload shipped in H_i rows) to dst.
func (a *OperatorAccum) AppendPhysRow(dst relation.Tuple, i int) relation.Tuple {
	for vi := range a.Layouts {
		dst = a.appendVar(dst, vi, i)
	}
	return dst
}

// appendVar appends variable vi's physical values for base row i.
func (a *OperatorAccum) appendVar(dst relation.Tuple, vi, i int) relation.Tuple {
	if a.slabs == nil {
		return append(dst, a.accs[vi][i]...)
	}
	for p := range a.slabs[vi] {
		dst = append(dst, a.slabs[vi][p].value(i))
	}
	return dst
}

// PhysSchema returns the concatenated physical schema across all variables.
func (a *OperatorAccum) PhysSchema() (relation.Schema, error) {
	var out relation.Schema
	var err error
	for _, l := range a.Layouts {
		if out, err = out.Concat(l.PhysSchema()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (a *OperatorAccum) physWidth() int {
	n := 0
	for _, l := range a.Layouts {
		n += len(l.Phys) + len(l.Derived)
	}
	return n
}

// ApplyOperator evaluates one MD operator: for every tuple of the incoming
// base-values relation x it computes, per grouping variable, the aggregates
// over the detail rows satisfying the variable's condition, and returns x
// extended with the new physical and derived columns. x is not modified.
func ApplyOperator(x *relation.Relation, op Operator, detail RowSource, useHash bool) (*relation.Relation, error) {
	return ApplyOperatorWorkers(x, op, detail, useHash, 1)
}

// ApplyOperatorWorkers is ApplyOperator with worker-parallel detail scans
// (see AccumulateOperatorWorkers for the workers contract).
func ApplyOperatorWorkers(x *relation.Relation, op Operator, detail RowSource, useHash bool, workers int) (*relation.Relation, error) {
	acc, err := AccumulateOperatorWorkers(x, op, detail, useHash, workers)
	if err != nil {
		return nil, err
	}
	outSchema, err := acc.ExtendedSchema(x.Schema)
	if err != nil {
		return nil, err
	}
	out := relation.New(outSchema)
	out.Tuples = make([]relation.Tuple, x.Len())
	for i, br := range x.Tuples {
		out.Tuples[i] = acc.ExtendRow(br, i)
	}
	return out, nil
}
