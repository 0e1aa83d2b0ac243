package core

import (
	"errors"
	"fmt"

	"skalla/internal/agg"
	"skalla/internal/engine"
	"skalla/internal/gmdj"
	"skalla/internal/relation"
)

// varSegment locates one grouping variable's aggregate columns inside the
// base-result structure X.
type varSegment struct {
	layout    *agg.Layout
	physStart int // absolute column index of the first physical column
	derStart  int // absolute column index of the first derived column
}

// buildSegments compiles the per-operator column segments of the final X
// layout for a query: base columns first, then per operator, per variable,
// physical columns followed by derived columns.
func buildSegments(q gmdj.Query, src gmdj.SchemaSource, numBaseCols int) ([][]varSegment, error) {
	segs := make([][]varSegment, len(q.Ops))
	cursor := numBaseCols
	for k, op := range q.Ops {
		detail, err := src.DetailSchema(op.Detail)
		if err != nil {
			return nil, err
		}
		for _, v := range op.Vars {
			layout, err := agg.NewLayout(v.Aggs, detail)
			if err != nil {
				return nil, err
			}
			seg := varSegment{layout: layout, physStart: cursor}
			cursor += len(layout.Phys)
			seg.derStart = cursor
			cursor += len(layout.Derived)
			segs[k] = append(segs[k], seg)
		}
	}
	return segs, nil
}

// merger maintains the coordinator's base-result structure X and implements
// the synchronization of Theorem 1: merging an incoming sub-aggregate relation
// H runs in O(|H|), applying the super-aggregate of each physical column. An
// operator round's H rows name their X row by ordinal in the fragment that
// was shipped (see Fragment), so that merge is an array index; only the local
// rounds (MergeLocal), whose fragments carry keys the coordinator has not seen
// yet, keep a key index.
type merger struct {
	keys     []string
	xschemas []relation.Schema
	segs     [][]varSegment
	hschemas []relation.Schema // per operator, the schema of its H_i

	x        *relation.Relation
	keyIdx   []int              // key column positions within x (local rounds)
	index    *relation.KeyIndex // X by key; nil unless InitLocal built it
	extended int                // number of operators whose columns exist in x

	// budget is the query's coordinator-side memory budget (nil = unbounded).
	// X growth is charged here; staged H blocks are charged by their stages.
	budget *memBudget
}

func newMerger(keys []string, xschemas []relation.Schema, segs [][]varSegment, budget *memBudget) (*merger, error) {
	hschemas := make([]relation.Schema, len(segs))
	for k, opSegs := range segs {
		var phys relation.Schema
		for _, seg := range opSegs {
			phys = append(phys, seg.layout.PhysSchema()...)
		}
		h, err := engine.HSchema(phys)
		if err != nil {
			return nil, err
		}
		hschemas[k] = h
	}
	return &merger{keys: keys, xschemas: xschemas, segs: segs, hschemas: hschemas, budget: budget}, nil
}

// finalWidth is the arity X reaches after the plan's last operator. Rows are
// allocated with that capacity once, so Extend never re-backs them.
func (m *merger) finalWidth() int { return len(m.xschemas[len(m.xschemas)-1]) }

// InitBase installs the synchronized base-values relation: the multiset
// union of the sites' B_i fragments, de-duplicated on the key attributes —
// the first occurrence of a key, in site then row order, is kept. The kept
// rows are boxed straight from each fragment, whatever its body, into one
// slab at the plan's final width.
func (m *merger) InitBase(parts ...*relation.Relation) error {
	schema := m.xschemas[0]
	keyIdx, err := schema.Indexes(m.keys)
	if err != nil {
		return err
	}
	total := 0
	for _, b := range parts {
		if !b.Schema.Equal(schema) {
			return fmt.Errorf("core: base schema %s, want %s", b.Schema, schema)
		}
		total += b.Len()
	}
	type rowAt struct{ part, row int32 }
	var kept []rowAt
	seen := relation.NewKeySet(total)
	var scratch relation.Tuple
	for p, b := range parts {
		for i := 0; i < b.Len(); i++ {
			scratch = b.AppendRow(scratch[:0], i)
			if _, fresh := seen.Add(scratch, keyIdx); fresh {
				kept = append(kept, rowAt{int32(p), int32(i)})
			}
		}
	}
	w := m.finalWidth()
	slab := make([]relation.Value, len(kept)*w)
	x := &relation.Relation{Schema: schema, Tuples: make([]relation.Tuple, len(kept))}
	for n, at := range kept {
		x.Tuples[n] = parts[at.part].AppendRow(slab[n*w:n*w:(n+1)*w], int(at.row))
	}
	if err := m.budget.charge(x.MemBytes()); err != nil {
		return err
	}
	m.x, m.index, m.extended = x, nil, 0
	return nil
}

// InitLocal prepares an empty X at the schema reached after upTo operators,
// indexed on the key attributes; local evaluation results are then merged
// with MergeLocal.
func (m *merger) InitLocal(upTo int) error {
	m.x = relation.New(m.xschemas[upTo])
	m.extended = upTo
	idx, err := m.x.Schema.Indexes(m.keys)
	if err != nil {
		return err
	}
	m.keyIdx = idx
	m.index = relation.BuildKeyIndexCols(m.x, idx)
	return nil
}

// X returns the current base-result structure (read-only between rounds;
// callers must not mutate it while site calls are in flight).
func (m *merger) X() *relation.Relation { return m.x }

// Extend appends operator k's identity aggregate columns (COUNT 0, others
// NULL, derived NULL) to every row, growing X's schema by one operator.
// Groups no site reports on — e.g. under group reduction — thereby keep the
// correct empty-range aggregates.
func (m *merger) Extend() error {
	k := m.extended
	if k >= len(m.segs) {
		return fmt.Errorf("core: extend past last operator (%d)", k)
	}
	ident := m.identityFor(k)
	// Charge the growth before claiming it, so an over-budget query fails with
	// a typed error here, at the merge boundary, instead of OOMing the daemon.
	grow := int64(len(m.x.Tuples)) * (int64(len(ident))*relation.ValueMemBytes + relation.TupleMemBytes)
	if err := m.budget.charge(grow); err != nil {
		return err
	}
	// The rows were allocated at the final width (InitBase, MergeLocal), so
	// this re-slices each one and writes the identity cells in place. Nothing
	// else can be looking at those cells: what the sites are sent is a
	// projected copy (Fragment), a reducer reads only columns that existed
	// before this round, and a merge writes only the cells appended here.
	for i, row := range m.x.Tuples {
		m.x.Tuples[i] = append(row, ident...)
	}
	m.x.Schema = m.xschemas[k+1]
	m.extended++
	return nil
}

// Fragment builds what an operator round ships: the cols cells of X's rows —
// of the rows listed, in that order, or of every row when rows is nil —
// gathered into typed vectors, or copied into one Value slab when some cell
// only a row body carries (relation.GatherColumns). A row's position in the
// fragment is the ordinal the sites address it by; NewStage takes the same
// rows to map it back. The fragment is marked finished (relation.ShareFrame),
// so however many envelopes carry it — one per site, one per retry — it is
// encoded once, and the in-process sites that read it directly only read.
func (m *merger) Fragment(cols []int, rows []int32) *relation.Relation {
	schema := m.x.Schema.Project(cols)
	if c := relation.GatherColumns(m.x.Schema, m.x.Tuples, rows, cols); c != nil {
		f := relation.FromColumns(schema, c)
		f.ShareFrame()
		return f
	}
	n := len(m.x.Tuples)
	if rows != nil {
		n = len(rows)
	}
	w := len(cols)
	slab := make([]relation.Value, n*w)
	f := &relation.Relation{Schema: schema, Tuples: make([]relation.Tuple, n)}
	for i := range f.Tuples {
		xrow := m.x.Tuples[i]
		if rows != nil {
			xrow = m.x.Tuples[rows[i]]
		}
		frow := slab[i*w : (i+1)*w : (i+1)*w]
		for j, c := range cols {
			frow[j] = xrow[c]
		}
		f.Tuples[i] = frow
	}
	f.ShareFrame()
	return f
}

// identityFor builds the identity slice (phys + derived) for operator k.
func (m *merger) identityFor(k int) relation.Tuple {
	var ident relation.Tuple
	for _, seg := range m.segs[k] {
		ident = append(ident, seg.layout.Identity()...)
		ident = seg.layout.AppendDerived(ident, seg.layout.Identity())
	}
	return ident
}

// ErrMalformedH marks a sub-aggregate relation that is not the answer to the
// request this node sent: wrong columns, a row of the wrong arity, a cell the
// merge cannot fold, an ordinal outside the shipped fragment or reported twice
// in one stream. It is what a site bug, a corrupted block or a peer speaking
// the key-addressed H of earlier versions produces; such an H is rejected
// whole, never merged.
var ErrMalformedH = errors.New("core: sync: malformed H")

// validateH checks one incoming H block of an operator against want, the
// schema of its H_i (the row ordinal, then the physical columns of segs, each
// by name and kind). Every row must be at full arity, with an INT ordinal and
// aggregate cells the merge can fold (agg.Layout.CheckPhys): the codec carries
// cells whose kind differs from their column's, and a block that failed the
// merge halfway through would leave X half-merged.
func validateH(h *relation.Relation, want relation.Schema, segs []varSegment) error {
	if !h.Schema.Equal(want) {
		return fmt.Errorf("%w: schema %s, want %s", ErrMalformedH, h.Schema, want)
	}
	for i, t := range h.Tuples {
		if len(t) != len(want) {
			return fmt.Errorf("%w: row %d has arity %d, want %d", ErrMalformedH, i, len(t), len(want))
		}
		if t[0].Kind != relation.KindInt {
			return fmt.Errorf("%w: row %d has a %s ordinal", ErrMalformedH, i, t[0].Kind)
		}
		cursor := 1
		for _, seg := range segs {
			n := len(seg.layout.Phys)
			if err := seg.layout.CheckPhys(t[cursor : cursor+n]); err != nil {
				return fmt.Errorf("%w: row %d: %v", ErrMalformedH, i, err)
			}
			cursor += n
		}
	}
	return nil
}

// ordinalSet is the set of fragment ordinals one H stream has reported.
type ordinalSet struct {
	bits []uint64
	n    int
}

func newOrdinalSet(n int) ordinalSet {
	return ordinalSet{bits: make([]uint64, (n+63)/64), n: n}
}

// claim adds a validated H row's ordinal to the set. An ordinal outside the
// fragment, or one the stream already reported — a group that would be
// counted twice, which no key lookup could notice — is malformed.
func (s *ordinalSet) claim(hrow relation.Tuple) (int, error) {
	ord := hrow[0].Int
	if ord < 0 || ord >= int64(s.n) {
		return 0, fmt.Errorf("%w: ordinal %d outside the %d-row fragment", ErrMalformedH, ord, s.n)
	}
	word, bit := &s.bits[ord>>6], uint64(1)<<(uint(ord)&63)
	if *word&bit != 0 {
		return 0, fmt.Errorf("%w: ordinal %d reported twice in one stream", ErrMalformedH, ord)
	}
	*word |= bit
	return int(ord), nil
}

// hStage buffers one site's streamed H_i blocks for a single operator-round
// attempt without touching X. This is what makes per-site retry sound: a
// commit folds aggregates into X in place, so a stream that dies after some
// blocks were merged could not be re-run without double-counting. Instead
// every block is validated and staged here, and only a stream that completed
// cleanly is committed to X — a failed attempt is discarded whole (returning
// any pooled block storage) and retried from scratch.
//
// Stages are created and filled in the per-site goroutines (they touch no
// merger state) and committed, in site order, on the coordinator's merge loop.
type hStage struct {
	schema relation.Schema // the operator's H_i schema every block must carry
	segs   []varSegment    // the operator's variables, whose cells validateH checks
	// rows maps a fragment ordinal to its X row; nil when the fragment was
	// all of X in order. seen holds the ordinals this stream has reported.
	rows   []int32
	seen   ordinalSet
	rel    *relation.Relation   // accumulated H rows; schema from the first block
	pool   []*relation.Relation // staged blocks whose storage is recycled on release
	budget *memBudget           // query memory budget the staged bytes are charged to
	bytes  int64                // bytes currently charged to budget for this stage
}

// NewStage opens a staging buffer for one site's operator-k stream over a
// fragment of fragRows rows; rows is the list the fragment was built from
// (see Fragment), the same on every attempt.
func (m *merger) NewStage(k, fragRows int, rows []int32) *hStage {
	return &hStage{schema: m.hschemas[k], segs: m.segs[k], rows: rows, seen: newOrdinalSet(fragRows), budget: m.budget}
}

// Add validates and stages one H block. The block's tuples are referenced,
// not copied, so the block must stay untouched until Commit or Discard (both
// recycle it back to its pool). The block's estimated bytes are charged to
// the query's memory budget; an over-budget charge fails the stage (and with
// it the query — budget errors are permanent, not retried).
func (st *hStage) Add(h *relation.Relation) error {
	// An in-process transport hands over the block a kernel emitted as it
	// is, vectors and all; the stage validates and merges rows.
	h = h.RowBody()
	if err := validateH(h, st.schema, st.segs); err != nil {
		return err
	}
	if st.rel == nil {
		st.rel = &relation.Relation{Schema: h.Schema}
	}
	// Account the block (bytes and pool membership) before the checks that can
	// still reject it: an over-budget charge stays counted until the failed
	// query's Discard releases it, and the rejected block gets recycled there.
	n := h.MemBytes()
	st.bytes += n
	st.pool = append(st.pool, h)
	if err := st.budget.charge(n); err != nil {
		return err
	}
	for _, hrow := range h.Tuples {
		if _, err := st.seen.claim(hrow); err != nil {
			return err
		}
	}
	st.rel.Tuples = append(st.rel.Tuples, h.Tuples...)
	return nil
}

// Discard drops the staged rows, releases their budget charge and returns
// block storage to the decode pool; the stage must not be used afterwards.
// Commit paths also land here (via their defers), which is correct: committed
// aggregates fold into X's existing rows in place, so the staged copies are
// no longer held either way.
func (st *hStage) Discard() {
	for _, b := range st.pool {
		relation.Recycle(b)
	}
	st.budget.release(st.bytes)
	st.bytes = 0
	st.pool, st.rel = nil, nil
}

// CommitStage folds one completed stream's staged H rows into X and releases
// the stage: each row's ordinal is an X row — itself, or through the stage's
// row list — and its physical columns merge into that row's operator-k
// segments. Every block was validated as it was staged, so this is the
// O(|H|) merge of Theorem 1 and nothing else.
func (m *merger) CommitStage(st *hStage, k int) error {
	defer st.Discard()
	if st.rel == nil {
		return nil // empty stream: the site had no matching groups
	}
	if k != m.extended-1 {
		return fmt.Errorf("core: merging operator %d into X extended to %d", k+1, m.extended)
	}
	for _, hrow := range st.rel.Tuples {
		xi := int(hrow[0].Int)
		if st.rows != nil {
			xi = int(st.rows[xi])
		}
		xrow, cursor := m.x.Tuples[xi], 1
		for _, seg := range m.segs[k] {
			n := len(seg.layout.Phys)
			if err := seg.layout.MergePhys(xrow[seg.physStart:seg.physStart+n], hrow[cursor:cursor+n]); err != nil {
				return err
			}
			cursor += n
		}
	}
	return nil
}

// MergeLocal synchronizes one site's locally evaluated X fragment (schema =
// current X schema), of either body: new keys are boxed into new X rows at
// the final width, existing keys have every operator segment's physical
// columns merged. Used by the synchronization-reduced plans (Prop. 2 /
// Cor. 1).
func (m *merger) MergeLocal(xl *relation.Relation) error {
	if !xl.Schema.Equal(m.x.Schema) {
		return fmt.Errorf("core: local X schema %s, want %s", xl.Schema, m.x.Schema)
	}
	for i, t := range xl.Tuples {
		if len(t) != len(xl.Schema) {
			return fmt.Errorf("core: sync: local X row %d has arity %d, want %d", i, len(t), len(xl.Schema))
		}
	}
	if m.index == nil {
		return fmt.Errorf("core: sync: local merge into an X that InitLocal did not prepare")
	}
	var lrow relation.Tuple
	for i := 0; i < xl.Len(); i++ {
		lrow = xl.AppendRow(lrow[:0], i)
		rows := m.index.Lookup(lrow, m.keyIdx)
		switch len(rows) {
		case 0:
			// Room for every later operator's columns, as in InitBase.
			nrow := append(make(relation.Tuple, 0, m.finalWidth()), lrow...)
			if err := m.budget.charge(nrow.MemBytes()); err != nil {
				return err
			}
			m.x.Tuples = append(m.x.Tuples, nrow)
			m.index.Add(nrow, len(m.x.Tuples)-1)
		case 1:
			xrow := m.x.Tuples[rows[0]]
			for k := 0; k < m.extended; k++ {
				for _, seg := range m.segs[k] {
					n := len(seg.layout.Phys)
					if err := seg.layout.MergePhys(xrow[seg.physStart:seg.physStart+n], lrow[seg.physStart:seg.physStart+n]); err != nil {
						return err
					}
				}
			}
		default:
			return fmt.Errorf("core: sync: duplicate key in X")
		}
	}
	return nil
}

// RecomputeDerived refreshes the derived (AVG) columns of operators
// [0, upTo) for every row; called after each synchronization so subsequent
// conditions and the final output see correct averages.
func (m *merger) RecomputeDerived(upTo int) {
	for _, row := range m.x.Tuples {
		for k := 0; k < upTo; k++ {
			for _, seg := range m.segs[k] {
				n := len(seg.layout.Phys)
				seg.layout.AppendDerived(row[seg.derStart:seg.derStart], row[seg.physStart:seg.physStart+n])
			}
		}
	}
}

// Finalize projects X onto the logical output columns.
func (m *merger) Finalize(cols []string) (*relation.Relation, error) {
	return m.x.Project(cols)
}
