package core

import (
	"fmt"
	"sync"

	"skalla/internal/agg"
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

// merger maintains the coordinator's base-result structure X, indexed on the
// base key attributes K, and implements the synchronization of Theorem 1:
// merging an incoming sub-aggregate relation H runs in O(|H|) via the key
// index, applying the super-aggregate of each physical column.
type merger struct {
	keys     []string
	xschemas []relation.Schema
	segs     [][]varSegment

	x        *relation.Relation
	keyIdx   []int // key column positions within x
	index    *relation.KeyIndex
	extended int // number of operators whose columns exist in x

	// stripes shard X's rows for concurrent stage commits: row i is guarded
	// by stripes[i % mergeStripes], so two sites' stages merging into the
	// same group serialize on one stripe instead of one global lock.
	stripes [mergeStripes]sync.Mutex

	// budget is the query's coordinator-side memory budget (nil = unbounded).
	// X growth is charged here; staged H blocks are charged by their stages.
	budget *memBudget
}

// mergeStripes is the lock-stripe count for concurrent stage commits (power
// of two; key-index row positions hash uniformly across stripes).
const mergeStripes = 64

func newMerger(keys []string, xschemas []relation.Schema, segs [][]varSegment, budget *memBudget) *merger {
	return &merger{keys: keys, xschemas: xschemas, segs: segs, budget: budget}
}

// InitBase installs the synchronized base-values relation: the multiset
// union of the sites' B_i fragments, de-duplicated on the key attributes.
func (m *merger) InitBase(b *relation.Relation) error {
	if !b.Schema.Equal(m.xschemas[0]) {
		return fmt.Errorf("core: base schema %s, want %s", b.Schema, m.xschemas[0])
	}
	if err := b.DedupBy(m.keys); err != nil {
		return err
	}
	if err := m.budget.charge(b.MemBytes()); err != nil {
		return err
	}
	m.x = b
	m.extended = 0
	return m.reindex()
}

// InitLocal prepares an empty X at the schema reached after upTo operators;
// local evaluation results are then merged with MergeLocal.
func (m *merger) InitLocal(upTo int) error {
	m.x = relation.New(m.xschemas[upTo])
	m.extended = upTo
	return m.reindex()
}

func (m *merger) reindex() error {
	idx, err := m.x.Schema.Indexes(m.keys)
	if err != nil {
		return err
	}
	m.keyIdx = idx
	ki, err := relation.BuildKeyIndex(m.x, m.keys)
	if err != nil {
		return err
	}
	m.index = ki
	return nil
}

// X returns the current base-result structure (read-only between rounds;
// callers must not mutate it while site calls are in flight).
func (m *merger) X() *relation.Relation { return m.x }

// Extended returns how many operators' columns X currently carries.
func (m *merger) Extended() int { return m.extended }

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
	// Extending X re-backs every row one operator wider; charge the growth
	// before allocating it so an over-budget query fails with a typed error
	// here, at the merge boundary, instead of OOMing the daemon.
	grow := int64(len(m.x.Tuples)) * (int64(len(ident))*relation.ValueMemBytes + relation.TupleMemBytes)
	if err := m.budget.charge(grow); err != nil {
		return err
	}
	// Build the extended rows in a fresh backing array, one slab carved into
	// rows: in-flight serialization of pre-extension fragments may still be
	// reading the old arrays while streamed synchronization writes the new
	// ones.
	w := len(m.x.Schema) + len(ident)
	slab := make([]relation.Value, len(m.x.Tuples)*w)
	for i, row := range m.x.Tuples {
		nrow := append(slab[i*w:i*w:(i+1)*w], row...)
		m.x.Tuples[i] = append(nrow, ident...)
	}
	m.x.Schema = m.xschemas[k+1]
	m.extended++
	return nil
}

// Snapshot returns a read-only view of the current X (independent header
// and row-pointer slice) that stays stable across a subsequent Extend; the
// operator rounds ship fragments of it while the live X grows.
func (m *merger) Snapshot() *relation.Relation {
	tuples := make([]relation.Tuple, len(m.x.Tuples))
	copy(tuples, m.x.Tuples)
	return &relation.Relation{Schema: m.x.Schema, Tuples: tuples}
}

// identityFor builds the identity slice (phys + derived) for operator k.
func (m *merger) identityFor(k int) relation.Tuple {
	var ident relation.Tuple
	for _, seg := range m.segs[k] {
		ident = append(ident, seg.layout.Identity()...)
		ident = append(ident, seg.layout.ComputeDerived(seg.layout.Identity())...)
	}
	return ident
}

// validateH checks one incoming H relation against the expected shape for an
// operator's segments: key attributes in key order, followed by the
// operator's physical columns, every row at full arity. A site returning
// anything else (bug or corruption) must be rejected, not merged.
func validateH(h *relation.Relation, keys []string, segs []varSegment) error {
	want := len(keys)
	for _, seg := range segs {
		want += len(seg.layout.Phys)
	}
	if len(h.Schema) != want {
		return fmt.Errorf("core: sync: H has %d columns, want %d", len(h.Schema), want)
	}
	for i, key := range keys {
		if h.Schema[i].Name != key {
			return fmt.Errorf("core: sync: H column %d is %q, want key %q", i, h.Schema[i].Name, key)
		}
	}
	for i, t := range h.Tuples {
		if len(t) != want {
			return fmt.Errorf("core: sync: H row %d has arity %d, want %d", i, len(t), want)
		}
	}
	return nil
}

// MergeH synchronizes one site's sub-aggregate relation H_i for operator k
// into X. H rows carry the key attributes followed by the operator's
// physical columns; rows for unknown keys are an internal error (fragments
// are derived from X, so every returned key must exist).
func (m *merger) MergeH(h *relation.Relation, k int) error {
	if k != m.extended-1 {
		return fmt.Errorf("core: merging operator %d into X extended to %d", k+1, m.extended)
	}
	if err := validateH(h, m.keys, m.segs[k]); err != nil {
		return err
	}
	hKeyIdx := make([]int, len(m.keys))
	for i := range m.keys {
		hKeyIdx[i] = i // H rows lead with the key attributes in key order
	}
	for _, hrow := range h.Tuples {
		xi, err := m.index.Unique(hrow, hKeyIdx)
		if err != nil {
			return fmt.Errorf("core: sync: H row key not in X: %w", err)
		}
		xrow := m.x.Tuples[xi]
		cursor := len(m.keys)
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

// hStage buffers one site's streamed H_i blocks for a single operator-round
// attempt without touching X. This is what makes per-site retry sound: MergeH
// folds aggregates into X in place, so a stream that dies after some blocks
// were merged could not be re-run without double-counting. Instead every
// block is validated and staged here, and only a stream that completed
// cleanly is committed to X — a failed attempt is discarded whole (returning
// any pooled block storage) and retried from scratch.
//
// Stages are created and filled in the per-site goroutines (they touch no
// merger state beyond the immutable keys/segments) and committed one at a
// time on the coordinator's merge loop.
type hStage struct {
	keys   []string
	segs   []varSegment
	rel    *relation.Relation   // accumulated H rows; schema from the first block
	pool   []*relation.Relation // staged blocks whose storage is recycled on release
	budget *memBudget           // query memory budget the staged bytes are charged to
	bytes  int64                // bytes currently charged to budget for this stage
}

// NewStage opens a staging buffer for one site's operator-k stream.
func (m *merger) NewStage(k int) *hStage {
	return &hStage{keys: m.keys, segs: m.segs[k], budget: m.budget}
}

// Add validates and stages one H block. The block's tuples are referenced,
// not copied, so the block must stay untouched until Commit or Discard (both
// recycle it back to its pool). The block's estimated bytes are charged to
// the query's memory budget; an over-budget charge fails the stage (and with
// it the query — budget errors are permanent, not retried).
func (st *hStage) Add(h *relation.Relation) error {
	if err := validateH(h, st.keys, st.segs); err != nil {
		return err
	}
	if st.rel == nil {
		st.rel = &relation.Relation{Schema: h.Schema}
	} else if !h.Schema.Equal(st.rel.Schema) {
		return fmt.Errorf("core: sync: H block schema %s differs from stream schema %s", h.Schema, st.rel.Schema)
	}
	// Account the block (bytes and pool membership) before the budget check:
	// an over-budget charge stays counted until the failed query's Discard
	// releases it, and the rejected block still gets recycled there.
	n := h.MemBytes()
	st.bytes += n
	st.pool = append(st.pool, h)
	if err := st.budget.charge(n); err != nil {
		return err
	}
	st.rel.Tuples = append(st.rel.Tuples, h.Tuples...)
	return nil
}

// Rows returns the number of staged H rows.
func (st *hStage) Rows() int {
	if st.rel == nil {
		return 0
	}
	return st.rel.Len()
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
// the stage. Validation already ran per block, so this is the same O(|H|)
// key-indexed merge as MergeH.
func (m *merger) CommitStage(st *hStage, k int) error {
	defer st.Discard()
	if st.rel == nil {
		return nil // empty stream: the site had no matching groups
	}
	return m.MergeH(st.rel, k)
}

// CommitStageSharded is CommitStage for concurrent use: independent sites'
// completed stages may commit in parallel during one operator round. Every
// X row merge is guarded by its lock stripe, so two stages folding into the
// same group serialize per row rather than per round. Key lookups need no
// lock: operator rounds never add X rows (every H key is derived from X), so
// the key index is read-only while stages are landing. Merge order across
// stages is whatever the commits race to — exactly the completion-order
// nondeterminism the serial streaming merge already has — and physical
// super-aggregate merges are order-insensitive (exact for integer inputs).
func (m *merger) CommitStageSharded(st *hStage, k int) error {
	defer st.Discard()
	if st.rel == nil {
		return nil
	}
	if k != m.extended-1 {
		return fmt.Errorf("core: merging operator %d into X extended to %d", k+1, m.extended)
	}
	if err := validateH(st.rel, m.keys, m.segs[k]); err != nil {
		return err
	}
	hKeyIdx := make([]int, len(m.keys))
	for i := range m.keys {
		hKeyIdx[i] = i
	}
	for _, hrow := range st.rel.Tuples {
		xi, err := m.index.Unique(hrow, hKeyIdx)
		if err != nil {
			return fmt.Errorf("core: sync: H row key not in X: %w", err)
		}
		xrow := m.x.Tuples[xi]
		lk := &m.stripes[xi%mergeStripes]
		lk.Lock()
		cursor := len(m.keys)
		for _, seg := range m.segs[k] {
			n := len(seg.layout.Phys)
			if err := seg.layout.MergePhys(xrow[seg.physStart:seg.physStart+n], hrow[cursor:cursor+n]); err != nil {
				lk.Unlock()
				return err
			}
			cursor += n
		}
		lk.Unlock()
	}
	return nil
}

// MergeLocal synchronizes one site's locally evaluated X fragment (schema =
// current X schema): new keys are appended, existing keys have every
// operator segment's physical columns merged. Used by the synchronization-
// reduced plans (Prop. 2 / Cor. 1).
func (m *merger) MergeLocal(xl *relation.Relation) error {
	if !xl.Schema.Equal(m.x.Schema) {
		return fmt.Errorf("core: local X schema %s, want %s", xl.Schema, m.x.Schema)
	}
	for i, t := range xl.Tuples {
		if len(t) != len(xl.Schema) {
			return fmt.Errorf("core: sync: local X row %d has arity %d, want %d", i, len(t), len(xl.Schema))
		}
	}
	for _, lrow := range xl.Tuples {
		rows := m.index.Lookup(lrow, m.keyIdx)
		switch len(rows) {
		case 0:
			nrow := lrow.Clone()
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
				der := seg.layout.ComputeDerived(row[seg.physStart : seg.physStart+n])
				copy(row[seg.derStart:seg.derStart+len(der)], der)
			}
		}
	}
}

// Finalize projects X onto the logical output columns.
func (m *merger) Finalize(cols []string) (*relation.Relation, error) {
	return m.x.Project(cols)
}
