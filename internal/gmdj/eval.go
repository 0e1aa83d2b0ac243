package gmdj

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"skalla/internal/agg"
	"skalla/internal/expr"
	"skalla/internal/relation"
)

// RowSource is a scannable detail relation: evaluation never needs random
// access to detail rows, only sequential scans, so a partition can live in
// memory or on disk (internal/store.Table) behind the same interface with
// bounded memory. Every site partition is also a ColumnSource (kernel.go).
type RowSource interface {
	// Schema describes the rows.
	Schema() relation.Schema
	// Scan streams every row through fn under ctx; an fn error aborts the
	// scan. A row is valid only during fn: a source may reuse its storage.
	Scan(ctx context.Context, fn func(relation.Tuple) error) error
	// Len returns the row count.
	Len() int
}

// SourceOf adapts a materialized relation to a RowSource. It exposes no
// columnar image, so an evaluation over it always takes the scalar path.
func SourceOf(r *relation.Relation) RowSource { return relSource{r} }

type relSource struct{ r *relation.Relation }

func (s relSource) Schema() relation.Schema { return s.r.Schema }
func (s relSource) Len() int                { return s.r.Len() }

func (s relSource) Scan(ctx context.Context, fn func(relation.Tuple) error) error {
	one := func(_ context.Context, image func(*relation.Columns) error) error { return image(s.r.Columns()) }
	return boxRows(ctx, one, fn)
}

// ScanImages is the Scan of a ColumnSource: the rows of its images under
// ctx, boxed as every RowSource built on images boxes them.
func ScanImages(ctx context.Context, src ColumnSource, fn func(relation.Tuple) error) error {
	return boxRows(ctx, src.Images, fn)
}

// scanBlock is how many rows boxRows boxes at a time.
const scanBlock = 1024

// boxRows streams the rows of the images that images yields under ctx
// through fn, boxing a block of rows at a time into one reused slab, so a
// scan allocates the same whatever the partition's size. A canceled ctx stops
// the walk before the next image.
func boxRows(ctx context.Context, images func(context.Context, func(*relation.Columns) error) error, fn func(relation.Tuple) error) error {
	var slab []relation.Value
	return images(ctx, func(c *relation.Columns) error {
		n, w := c.Rows, len(c.Vecs)
		if k := min(n, scanBlock) * w; cap(slab) < k {
			slab = make([]relation.Value, k)
		}
		for lo := 0; lo < n; lo += scanBlock {
			hi := min(n, lo+scanBlock)
			for j := range c.Vecs {
				for i := lo; i < hi; i++ {
					slab[(i-lo)*w+j] = c.Vecs[j].Value(i)
				}
			}
			for k := 0; k < hi-lo; k++ {
				if err := fn(slab[k*w : (k+1)*w : (k+1)*w]); err != nil {
					return err
				}
			}
		}
		return ctx.Err()
	})
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
// distributed evaluator. It runs outside any site request, so it is charged
// to no recorder and counts in no site metric. Equality-linked conditions
// are evaluated with a hash-grouping fast path; set useHash=false to force
// the literal nested-loop semantics (used to cross-check the fast path).
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
	//skallavet:allow ctxcall -- lifecycle root: the oracle is no site request, so it runs uncancelable and charges no recorder
	return EvalPrefixX(context.Background(), q, src, len(q.Ops), useHash)
}

// EvalPrefixX evaluates the base query and the first upTo operators under
// ctx, returning the intermediate base-result structure X_upTo. The query
// must already be validated.
func EvalPrefixX(ctx context.Context, q Query, src DataSource, upTo int, useHash bool) (*relation.Relation, error) {
	x, _, err := evalPrefix(ctx, q, src, upTo, useHash, false)
	return x, err
}

// WitnessColumn is the trailing INT column of a witnessed local reply
// (EvalLocalReply). It cannot be written as an identifier, so no query column
// collides with it.
const WitnessColumn = "#witness"

// EvalLocalReply evaluates the base query and the first upTo operators under
// ctx, as EvalPrefixX does, and returns what a local round's reply carries:
// X_upTo's columns in LocalReplySchema. The last operator's derived columns
// are never computed. With witness set the base pass is unfiltered, so
// X_upTo holds a row for every group with a detail row in src, whatever
// q.Base.Where says, and the trailing WitnessColumn counts per row the detail
// rows of its group that q.Base.Where admits (all of them when it is nil). A
// group belongs to the base-values relation exactly when its counts summed
// over every site are positive — Prop. 1's |RNG| > 0 test, applied to σ — so
// a coordinator that sums the counts can fold a filtered base into the first
// operator's round (Prop. 2) without any placement assumption. The query
// must already be validated.
func EvalLocalReply(ctx context.Context, q Query, src DataSource, upTo int, useHash, witness bool) (*relation.Relation, error) {
	return localReply(ctx, q, src, upTo, useHash, witness, true)
}

// localReply is EvalLocalReply, running the base pass and MD1 as one where
// fuseLocal covers them only when fuse is set.
func localReply(ctx context.Context, q Query, src DataSource, upTo int, useHash, witness, fuse bool) (*relation.Relation, error) {
	x, counts, acc, err := localRounds(ctx, q, src, upTo, useHash, witness, fuse)
	if err != nil {
		return nil, err
	}
	// have and vecs are X_upTo's columns less the last operator's derived
	// ones; ext is X_upTo's schema.
	have, vecs, ext := x.Schema, x.Columns().Vecs, x.Schema
	if acc != nil {
		phys, err := acc.PhysSchema()
		if err != nil {
			return nil, err
		}
		if ext, err = acc.ExtendedSchema(x.Schema); err != nil {
			return nil, err
		}
		// Nothing reads acc again: its slabs become the reply's vectors.
		have, vecs = append(slices.Clip(have), phys...), acc.AppendPhysVectors(slices.Clip(vecs), nil)
	}
	schema := LocalReplySchema(ext, q.Ops[:upTo], witness)
	out := &relation.Columns{Rows: x.Len(), Vecs: make([]relation.Vector, len(schema))}
	for r, c := range schema {
		switch j := have.Index(c.Name); {
		case j >= 0:
			out.Vecs[r] = vecs[j]
		case witness && r == len(schema)-1:
			out.Vecs[r] = relation.Vector{Kind: relation.KindInt, Ints: counts}
		default:
			return nil, fmt.Errorf("gmdj: local reply column %s was not evaluated", c.Name)
		}
	}
	return relation.FromColumns(schema, out), nil
}

// LocalReplySchema is the schema of a local round's reply (EvalLocalReply),
// given x, X's schema after ops: x's columns in x's order — the keys, then
// each grouping variable's physical sub-aggregate columns — less the derived
// AVG, VARIANCE and STDEV ones (DerivedColumns), which whoever merges the
// reply recomputes from the physical ones, then under a witness a trailing
// INT WitnessColumn. The site builds its reply on it, the coordinator checks
// and folds replies by it, and the cost model prices it. With nothing to drop
// or add it is x itself.
func LocalReplySchema(x relation.Schema, ops []Operator, witness bool) relation.Schema {
	derived := DerivedColumns(ops)
	if len(derived) == 0 && !witness {
		return x
	}
	out := make(relation.Schema, 0, len(x)+1)
	for _, c := range x {
		if !slices.Contains(derived, c.Name) {
			out = append(out, c)
		}
	}
	if witness {
		out = append(out, relation.Column{Name: WitnessColumn, Kind: relation.KindInt})
	}
	return out
}

// DerivedColumns names the derived columns the operators add to X: one per
// AVG, VARIANCE and STDEV aggregate, under its output name.
func DerivedColumns(ops []Operator) []string {
	var names []string
	for _, op := range ops {
		for _, v := range op.Vars {
			for _, s := range v.Aggs {
				switch s.Func {
				case agg.Avg, agg.Variance, agg.StdDev:
					names = append(names, s.As)
				}
			}
		}
	}
	return names
}

func evalPrefix(ctx context.Context, q Query, src DataSource, upTo int, useHash, witness bool) (*relation.Relation, []int64, error) {
	x, counts, acc, err := localRounds(ctx, q, src, upTo, useHash, witness, true)
	if err == nil && acc != nil {
		x, err = acc.apply(x)
	}
	return x, counts, err
}

// localRounds evaluates the base query and the first upTo-1 operators, and
// accumulates operator upTo over their result (none when upTo is 0). With
// fuse set, over a partition fuseLocal covers, the base pass and MD1 are one
// kernel pass.
func localRounds(ctx context.Context, q Query, src DataSource, upTo int, useHash, witness, fuse bool) (*relation.Relation, []int64, *OperatorAccum, error) {
	if upTo < 0 || upTo > len(q.Ops) {
		return nil, nil, nil, fmt.Errorf("gmdj: prefix %d out of range (query has %d operators)", upTo, len(q.Ops))
	}
	var x *relation.Relation
	var counts []int64
	var acc *OperatorAccum
	var err error
	if upTo > 0 && useHash && fuse {
		if x, counts, acc, err = fuseLocal(ctx, q, src, witness); err != nil {
			return nil, nil, nil, err
		}
	}
	if x == nil {
		baseRel, err := src.DetailSource(q.Base.Detail)
		if err != nil {
			return nil, nil, nil, err
		}
		if x, counts, err = evalBase(ctx, q.Base, baseRel, witness); err != nil {
			return nil, nil, nil, err
		}
	}
	for i := 0; i < upTo; i++ {
		if acc == nil {
			detail, err := src.DetailSource(q.Ops[i].Detail)
			if err != nil {
				return nil, nil, nil, err
			}
			if acc, err = AccumulateOperator(ctx, x, q.Ops[i], detail, useHash); err != nil {
				return nil, nil, nil, fmt.Errorf("gmdj: MD%d: %w", i+1, err)
			}
		}
		if i == upTo-1 {
			break
		}
		if x, err = acc.apply(x); err != nil {
			return nil, nil, nil, err
		}
		acc = nil
	}
	return x, counts, acc, nil
}

// EvalBase computes the base-values relation B_0 from a detail source: an
// optional filter followed by a distinct projection, generalized to grouping
// sets when bq.GroupingSets is non-empty (the union over sets of NULL-padded
// distinct projections; see BaseQuery). The detail rows are streamed once, in
// order, and the result lists each base row at its first occurrence; memory
// is bounded by the number of distinct base values. Over a ColumnSource, a
// base query the kernel compiler covers (kernel.go) runs compiled instead,
// with identical results, and the pass is charged to ctx's recorder.
func EvalBase(ctx context.Context, bq BaseQuery, detail RowSource) (*relation.Relation, error) {
	out, _, err := evalBase(ctx, bq, detail, false)
	return out, err
}

// DeriveKeys rebuilds the rows of a local reply's base pass (EvalLocalReply)
// over detail — the keys the site sent up, in the order it sent them — by
// running that pass again with the same evaluator, kernel or scalar: bq is
// the base query less its filter when the pass was witnessed, which filters
// nothing. A single NULL-free STRING key over a source of one image needs no
// pass at all: the image's dictionary lists its values once each in
// first-occurrence order, which is the order the pass keeps. Nor does a
// single INT key over a source that keeps its key lists (KeyListSource):
// the list is that pass's rows, run once.
func DeriveKeys(ctx context.Context, bq BaseQuery, detail RowSource) (*relation.Relation, error) {
	keys, _, err := DeriveKeptKeys(ctx, bq, detail, nil)
	return keys, err
}

// DeriveKeptKeys is DeriveKeys for the rows sel lists, strictly ascending
// (every row when sel is nil): it returns their keys and how many rows the
// pass gave, and no keys when sel lists a row past those.
func DeriveKeptKeys(ctx context.Context, bq BaseQuery, detail RowSource, sel []int32) (*relation.Relation, int, error) {
	if bq.Where == nil && len(bq.Cols) == 1 && len(bq.GroupingSets) == 0 {
		if cs, ok := detail.(ColumnSource); ok {
			j, dict, err := keyDict(ctx, cs, bq.Cols[0])
			switch {
			case err != nil:
				return nil, 0, err
			case dict != nil:
				return dictKeys(cs.Schema().Project([]int{j}), dict, sel), len(dict), nil
			}
		}
		if ks, ok := detail.(KeyListSource); ok {
			list, err := ks.KeyLists().intKeys(ctx, ks, bq.Cols[0])
			if err != nil {
				return nil, 0, err
			}
			if list != nil {
				return selectKeys(list, sel), list.Len(), nil
			}
		}
	}
	keys, err := EvalBase(ctx, bq, detail)
	if err != nil {
		return nil, 0, err
	}
	switch n := keys.Len(); {
	case sel == nil || len(sel) == n:
		return keys, n, nil
	case listsPast(sel, n):
		return nil, n, nil
	default:
		return relation.FromColumns(keys.Schema, keys.Columns().Select(sel, nil)), n, nil
	}
}

// KeyListSource is a ColumnSource of one image that keeps the image's key
// lists with it, so that a new image comes with new ones.
type KeyListSource interface {
	ColumnSource
	KeyLists() *KeyLists
}

// KeyLists holds, per INT column of one image, the rows the base pass over
// that column alone gives — its distinct values, NULL included, in
// first-occurrence order — each list built on first use by that pass, which
// the request that builds it is charged for.
type KeyLists struct {
	mu    sync.Mutex
	lists map[int]*relation.Relation
}

// intKeys returns the list of column col of src, the image l is kept with,
// or nil when col is no INT column.
func (l *KeyLists) intKeys(ctx context.Context, src ColumnSource, col string) (*relation.Relation, error) {
	schema := src.Schema()
	j := schema.Index(col)
	if j < 0 || schema[j].Kind != relation.KindInt {
		return nil, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if list, ok := l.lists[j]; ok {
		return list, nil
	}
	list, err := EvalBase(ctx, BaseQuery{Cols: []string{col}}, src)
	if err != nil {
		return nil, err
	}
	if l.lists == nil {
		l.lists = map[int]*relation.Relation{}
	}
	l.lists[j] = list
	return list, nil
}

// selectKeys returns a copy of the keys at the positions sel lists (every
// one when sel is nil), or nil when sel lists a position past them.
func selectKeys(keys *relation.Relation, sel []int32) *relation.Relation {
	switch {
	case listsPast(sel, keys.Len()):
		return nil
	case sel == nil:
		return keys.Clone()
	}
	return relation.FromColumns(keys.Schema, keys.Columns().Select(sel, nil))
}

// listsPast reports whether the ascending rows sel list one past the first n.
func listsPast(sel []int32, n int) bool { return len(sel) > 0 && int(sel[len(sel)-1]) >= n }

// errOneImage stops keyDict's walk after the first image.
var errOneImage = errors.New("gmdj: first image read")

// keyDict returns column col's position and, when src's first image holds
// every row and col there is an indexed STRING vector
// (relation.Vector.Indexed) with no NULL, that vector's dictionary, which
// lists the column's distinct values once each in first-occurrence order; a
// nil dictionary otherwise.
func keyDict(ctx context.Context, src ColumnSource, col string) (int, []string, error) {
	schema := src.Schema()
	j := schema.Index(col)
	if j < 0 || schema[j].Kind != relation.KindString {
		return j, nil, nil
	}
	var dict []string
	err := src.Images(ctx, func(c *relation.Columns) error {
		if v := &c.Vecs[j]; c.Rows == src.Len() && v.Indexed() && !slices.ContainsFunc(v.Nulls, func(w uint64) bool { return w != 0 }) {
			dict = slices.Clip(v.Dict)
		}
		return errOneImage
	})
	if err != nil && !errors.Is(err, errOneImage) {
		return j, nil, err
	}
	return j, dict, nil
}

// dictKeys returns the keys at the positions sel lists (every one when sel
// is nil) of a single STRING key whose distinct values dict lists in
// first-occurrence order, or nil when sel lists a position past them. A
// position is a code, so the keys index dict itself, as the base kernel's
// output does.
func dictKeys(schema relation.Schema, dict []string, sel []int32) *relation.Relation {
	if listsPast(sel, len(dict)) {
		return nil
	}
	var codes []uint32
	if sel == nil {
		codes = make([]uint32, len(dict))
		for i := range codes {
			codes[i] = uint32(i)
		}
	} else {
		codes = make([]uint32, len(sel))
		for k, i := range sel {
			codes[k] = uint32(i)
		}
	}
	vec := relation.Vector{Kind: relation.KindString, Codes: codes, Dict: dict}
	return relation.FromColumns(schema, &relation.Columns{Rows: len(codes), Vecs: []relation.Vector{vec}})
}

// evalBase is EvalBase, or with witness set the witnessed base pass: the
// filter selects no rows but is counted, and counts[i] is how many detail
// rows of base row i's projection it admits.
func evalBase(ctx context.Context, bq BaseQuery, detail RowSource, witness bool) (*relation.Relation, []int64, error) {
	p, err := compileBase(bq, detail, witness)
	if err != nil {
		return nil, nil, err
	}
	cs, ok := detail.(ColumnSource)
	if !ok {
		return p.scan(ctx, detail)
	}
	out, counts, reason, err := p.runKernel(ctx, cs)
	if err == nil && out == nil {
		out, counts, err = p.scan(ctx, detail)
	}
	if err != nil {
		return nil, nil, err
	}
	chargeScan(ctx, cs, reason, 1)
	return out, counts, nil
}

// baseProg is a compiled base query: the bound filter, projection indexes and
// grouping-set masks. Under witness the filter counts rows instead of
// selecting them.
type baseProg struct {
	where   expr.Expr
	idx     []int
	masks   [][]bool
	schema  relation.Schema
	witness bool
}

func compileBase(bq BaseQuery, detail RowSource, witness bool) (*baseProg, error) {
	schema := detail.Schema()
	p := &baseProg{witness: witness}
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

// scan streams the detail source, keeping each surviving projection at its
// first occurrence; under witness every projection survives, and the rows the
// filter admits are counted.
func (p *baseProg) scan(ctx context.Context, src RowSource) (*relation.Relation, []int64, error) {
	d := newDistinctRows(p.schema, p.witness)
	err := src.Scan(ctx, func(t relation.Tuple) error {
		admitted := int64(1)
		if p.where != nil {
			ok, err := expr.EvalCond(p.where, nil, t)
			if err != nil {
				return err
			}
			if !ok && !p.witness {
				return nil
			}
			if !ok {
				admitted = 0
			}
		}
		for _, mask := range p.masks {
			for i, j := range p.idx {
				if mask[i] {
					d.row[i] = t[j]
				} else {
					d.row[i] = relation.Null
				}
			}
			d.add(admitted)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return d.out, d.counts, nil
}

// distinctRows collects rows in the order they are first offered, each once,
// and, when counted, sums per row the weights it was offered with.
type distinctRows struct {
	out    *relation.Relation
	seen   *relation.KeyTable
	row    relation.Tuple // the row add offers
	all    []int
	counts []int64 // per out row; nil unless counted
}

func newDistinctRows(schema relation.Schema, counted bool) *distinctRows {
	d := &distinctRows{out: relation.New(schema), seen: relation.NewKeyTable(64), row: make(relation.Tuple, len(schema)), all: make([]int, len(schema))}
	for i := range d.all {
		d.all[i] = i
	}
	if counted {
		d.counts = []int64{}
	}
	return d
}

// same reports whether out's row i holds row's cells.
func (d *distinctRows) same(i int) bool {
	for j, v := range d.row {
		if !d.out.Value(i, j).Identical(v) {
			return false
		}
	}
	return true
}

// add appends row to out unless out holds it already, and adds w to its
// count. A duplicate costs one hash probe and no allocation.
func (d *distinctRows) add(w int64) {
	h := d.row.KeyHash(d.all)
	i := d.seen.Find(h, d.same)
	if i < 0 {
		i = d.out.Len()
		d.seen.Insert(h, i)
		d.out.MustAppend(d.row)
		if d.counts != nil {
			d.counts = append(d.counts, 0)
		}
	}
	if d.counts != nil {
		d.counts[i] += w
	}
}

// addAll offers every row of r in order, row i with weight counts[i] (nil
// when r is not counted).
func (d *distinctRows) addAll(r *relation.Relation, counts []int64) {
	for i := 0; i < r.Len(); i++ {
		d.row = r.AppendRow(d.row[:0], i)
		var w int64
		if counts != nil {
			w = counts[i]
		}
		d.add(w)
	}
}

// OperatorAccum holds the per-base-row physical accumulators of one MD
// operator evaluation over one detail relation (or one partition of it), plus
// the Touched flags: Touched[i] is the |RNG(b_i, R, θ_1 ∨ … ∨ θ_m)| > 0 test
// of Proposition 1, used for distribution-independent group reduction. The
// accumulators are read through AppendPhysVectors and AppendExtendedVectors,
// for the rows asked for: a caller that emits only the touched rows never
// pays for the others.
type OperatorAccum struct {
	Layouts []*agg.Layout
	Touched []bool
	// Exactly one of the two holds the partials, [variable] first: boxed
	// tuples per base row from the scalar paths, typed slabs per physical
	// column from a compiled kernel.
	accs  [][]relation.Tuple
	slabs [][]physSlab
	// lent is the scratch the accumulator is lent from (WithOperatorAccum),
	// nil when it owns its memory.
	lent *scratch
}

// AccumulateOperator evaluates one MD operator's grouping variables over the
// detail rows, per Definition 1, producing physical sub-aggregate slices for
// every base row. The detail source is scanned once per grouping variable;
// conditions with equality links use a hash-grouping fast path over the base
// relation, grouping-set conditions use the 2^n-probe cube path, and
// everything else falls back to the literal nested loop (detail-outer, so
// disk-backed sources are still scanned sequentially). Every detail row is
// folded in scan order, so a FLOAT sum depends only on the rows and their
// order. Over a ColumnSource, an operator the kernel compiler covers
// (kernel.go) runs compiled instead, with identical results, and the passes
// are charged to ctx's recorder.
func AccumulateOperator(ctx context.Context, x *relation.Relation, op Operator, detail RowSource, useHash bool) (*OperatorAccum, error) {
	sc := scratches.Get()
	defer scratches.Put(sc)
	return accumulate(ctx, x, op, detail, useHash, sc, false)
}

// WithOperatorAccum evaluates op as AccumulateOperator does, on the hash
// paths, and hands fn the accumulator, which is valid only until fn returns:
// a compiled kernel's slabs and Touched flags, and its RowList, are lent
// from a kept scratch, and the next evaluation overwrites them. It is for a
// caller that copies out what it keeps, as a site's H blocks gather the rows
// they ship.
func WithOperatorAccum(ctx context.Context, x *relation.Relation, op Operator, detail RowSource, fn func(*OperatorAccum) error) error {
	sc := scratches.Get()
	defer scratches.Put(sc)
	acc, err := accumulate(ctx, x, op, detail, true, sc, true)
	if err != nil {
		return err
	}
	acc.lent = sc
	return fn(acc)
}

// RowList returns an empty list of base rows with room for n, for the
// caller to gather by: lent with the accumulator when it is lent
// (WithOperatorAccum), else fresh.
func (a *OperatorAccum) RowList(n int) []int32 {
	if a.lent == nil {
		return make([]int32, 0, n)
	}
	return grow(&a.lent.sel, n)[:0]
}

// accumulate is AccumulateOperator with the kernel's buffers from sc, and its
// slabs too when lend is set.
func accumulate(ctx context.Context, x *relation.Relation, op Operator, detail RowSource, useHash bool, sc *scratch, lend bool) (*OperatorAccum, error) {
	states, err := bindVarStates(x.Schema, op, detail.Schema())
	if err != nil {
		return nil, err
	}
	cs, ok := detail.(ColumnSource)
	if !ok {
		return accumulateScalar(ctx, x, states, detail, useHash)
	}
	// useHash=false asks for the literal nested loop of Definition 1, which a
	// kernel — a hash path in all but name — is not.
	reason := reasonShape
	var acc *OperatorAccum
	if useHash {
		acc, reason, err = runOperatorKernel(ctx, x, states, cs, sc, lend)
	}
	if err == nil && acc == nil {
		acc, err = accumulateScalar(ctx, x, states, detail, useHash)
	}
	if err != nil {
		return nil, err
	}
	chargeScan(ctx, cs, reason, len(states))
	return acc, nil
}

// accumulateScalar runs the operator's variables on the scalar paths, one
// pass over detail each.
func accumulateScalar(ctx context.Context, x *relation.Relation, states []*varState, detail RowSource, useHash bool) (*OperatorAccum, error) {
	xrows := x.Rows() // the scalar paths index and read X's boxed rows
	if useHash {
		indexVarStates(x.Schema, xrows, states, detail.Schema())
	}
	out := newOperatorAccum(x.Len(), states)
	for vi, st := range states {
		if err := st.scan(ctx, xrows, detail, out.accs[vi], out.Touched); err != nil {
			return nil, err
		}
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
// hash-grouping index over the base relation.
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
func bindVarStates(xschema relation.Schema, op Operator, detailSchema relation.Schema) ([]*varState, error) {
	states := make([]*varState, len(op.Vars))
	for vi, v := range op.Vars {
		layout, err := agg.NewLayout(v.Aggs, detailSchema)
		if err != nil {
			return nil, err
		}
		cond, err := expr.Bind(v.Cond, xschema, detailSchema)
		if err != nil {
			return nil, err
		}
		states[vi] = &varState{layout: layout, cond: cond}
	}
	return states, nil
}

// indexVarStates gives every variable whose condition has equality links (or
// the rollup shape) a hash index over the base relation. A link whose base and
// detail columns differ in declared kind gets none, and neither does a FLOAT
// link: the index matches keys by identity (INT 1 is not FLOAT 1.0, −0.0 is
// not +0.0, NaN is NaN) while the condition's equality compares numerics
// across kinds and floats by value, so probing would drop matches the nested
// loop finds, or find ones it does not.
func indexVarStates(xschema relation.Schema, xrows []relation.Tuple, states []*varState, detailSchema relation.Schema) {
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
		baseCols := make([]int, len(links))
		probe := make([]int, len(links))
		usable := true
		for li, l := range links {
			bi, di := xschema.Index(l.Base), detailSchema.Index(l.Detail)
			if bi < 0 || di < 0 || xschema[bi].Kind != detailSchema[di].Kind || xschema[bi].Kind == relation.KindFloat {
				usable = false
				break
			}
			baseCols[li], probe[li] = bi, di
		}
		if usable {
			st.hashIdx, st.probe, st.rollup = relation.BuildKeyIndex(xrows, baseCols), probe, rollup
		}
	}
}

// scan accumulates this grouping variable over the detail source: accs[i]
// receives base row i's physical partials, and touched[i] is set once it
// receives any (the Prop. 1 Touched flag).
func (st *varState) scan(ctx context.Context, xrows []relation.Tuple, detail RowSource, accs []relation.Tuple, touched []bool) error {
	if st.hashIdx != nil && st.rollup {
		n := len(st.probe)
		padded := make(relation.Tuple, n)
		paddedCols := make([]int, n)
		for i := range paddedCols {
			paddedCols[i] = i
		}
		return detail.Scan(ctx, func(dr relation.Tuple) error {
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
					ok, err := expr.EvalCond(st.cond, xrows[bi], dr)
					if err != nil {
						return err
					}
					if ok {
						if err := st.layout.Accumulate(accs[bi], dr); err != nil {
							return err
						}
						touched[bi] = true
					}
				}
			}
			return nil
		})
	}
	if st.hashIdx != nil {
		return detail.Scan(ctx, func(dr relation.Tuple) error {
			for _, bi := range st.hashIdx.Lookup(dr, st.probe) {
				ok, err := expr.EvalCond(st.cond, xrows[bi], dr)
				if err != nil {
					return err
				}
				if ok {
					if err := st.layout.Accumulate(accs[bi], dr); err != nil {
						return err
					}
					touched[bi] = true
				}
			}
			return nil
		})
	}
	return detail.Scan(ctx, func(dr relation.Tuple) error {
		for bi, br := range xrows {
			ok, err := expr.EvalCond(st.cond, br, dr)
			if err != nil {
				return err
			}
			if ok {
				if err := st.layout.Accumulate(accs[bi], dr); err != nil {
					return err
				}
				touched[bi] = true
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

// AppendPhysVectors appends to dst the physical aggregate cells of the base
// rows listed, variable by variable in layout order, one vector per column:
// the H_i payload. Rows nil lists every base row and hands a compiled
// kernel's slabs over as the vectors (physSlab.gather), so it is for an
// accumulator read this once.
func (a *OperatorAccum) AppendPhysVectors(dst []relation.Vector, rows []int32) []relation.Vector {
	for vi := range a.Layouts {
		dst = a.appendVarPhys(dst, vi, rows)
	}
	return dst
}

// AppendExtendedVectors appends to dst the aggregate cells ApplyOperator
// adds to X for the base rows listed (every one, handed over, when rows is
// nil, as AppendPhysVectors does), in ExtendedSchema order: per variable,
// its physical vectors, then its derived ones, computed row by row.
func (a *OperatorAccum) AppendExtendedVectors(dst []relation.Vector, rows []int32) []relation.Vector {
	n := len(rows)
	if rows == nil {
		n = len(a.Touched)
	}
	var phys, der relation.Tuple
	for vi, l := range a.Layouts {
		start := len(dst)
		dst = a.appendVarPhys(dst, vi, rows)
		for _, col := range l.DerivedSchema() {
			dst = append(dst, relation.NewVector(col.Kind, n))
		}
		for k := 0; k < n; k++ {
			phys = phys[:0]
			for p := range l.Phys {
				phys = append(phys, dst[start+p].Value(k))
			}
			der = l.AppendDerived(der[:0], phys)
			for d, val := range der {
				dst[start+len(l.Phys)+d].Set(k, n, val)
			}
		}
	}
	return dst
}

// appendVarPhys appends variable vi's physical vectors for the base rows
// listed, every one when rows is nil: gathered from — or, for every row,
// taken as — a compiled kernel's slabs, or set from the scalar paths'
// partials.
func (a *OperatorAccum) appendVarPhys(dst []relation.Vector, vi int, rows []int32) []relation.Vector {
	n := len(rows)
	if rows == nil {
		n = len(a.Touched)
	}
	for p, pc := range a.Layouts[vi].Phys {
		if a.slabs != nil {
			dst = append(dst, a.slabs[vi][p].gather(rows))
			continue
		}
		v := relation.NewVector(pc.Kind, n)
		for k := 0; k < n; k++ {
			i := k
			if rows != nil {
				i = int(rows[k])
			}
			v.Set(k, n, a.accs[vi][i][p])
		}
		dst = append(dst, v)
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

// ApplyOperator evaluates one MD operator: for every tuple of the incoming
// base-values relation x it computes, per grouping variable, the aggregates
// over the detail rows satisfying the variable's condition, and returns x
// extended with the new physical and derived columns. x is not modified; the
// result shares x's vectors.
func ApplyOperator(ctx context.Context, x *relation.Relation, op Operator, detail RowSource, useHash bool) (*relation.Relation, error) {
	acc, err := AccumulateOperator(ctx, x, op, detail, useHash)
	if err != nil {
		return nil, err
	}
	return acc.apply(x)
}

// apply returns x extended with the accumulator's cells for every row, its
// slabs handed over (AppendExtendedVectors).
func (a *OperatorAccum) apply(x *relation.Relation) (*relation.Relation, error) {
	outSchema, err := a.ExtendedSchema(x.Schema)
	if err != nil {
		return nil, err
	}
	vecs := a.AppendExtendedVectors(slices.Clone(x.Columns().Vecs), nil)
	return relation.FromColumns(outSchema, &relation.Columns{Rows: x.Len(), Vecs: vecs}), nil
}
