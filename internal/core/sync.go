package core

import (
	"errors"
	"fmt"
	"slices"

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
// was shipped (see Fragment), so that merge is an array index; the base and
// local rounds, whose fragments carry keys the coordinator has not seen yet,
// find X's rows by key in a keyTable.
//
// X is columnar: the merger writes its vectors in place, and each operator
// round widens it by appending vectors. A cell only a row body can carry — a
// BOOL column, an off-kind cell such as a FLOAT sum in an INT column — switches
// X to rows for the rest of the query (toRows), and the row merge finishes it.
type merger struct {
	keys     []string
	xschemas []relation.Schema
	segs     [][]varSegment
	hschemas []relation.Schema // per operator, the schema of its H_i

	x        *relation.Relation
	keyIdx   []int          // key column positions within x
	keyPos   []int          // 0..len(keys)-1: key's positions within itself
	key      relation.Tuple // scratch: the key cells keyOf boxed last
	table    *keyTable      // X's rows by key; nil unless InitLocal built it
	extended int            // number of operators whose columns exist in x

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
	keyIdx, err := xschemas[0].Indexes(keys)
	if err != nil {
		return nil, err
	}
	keyPos := make([]int, len(keys))
	for i := range keyPos {
		keyPos[i] = i
	}
	return &merger{keys: keys, xschemas: xschemas, segs: segs, hschemas: hschemas, keyIdx: keyIdx, keyPos: keyPos, budget: budget}, nil
}

// finalWidth is the arity X reaches after the plan's last operator. Row bodies
// are allocated with that capacity once, so Extend never re-backs them.
func (m *merger) finalWidth() int { return len(m.xschemas[len(m.xschemas)-1]) }

// keyOf boxes row i's key cells of r, whose schema starts like X's, into m.key
// and returns their hash.
func (m *merger) keyOf(r *relation.Relation, i int) uint64 {
	m.key = m.key[:0]
	for _, j := range m.keyIdx {
		m.key = append(m.key, r.Value(i, j))
	}
	return m.key.KeyHash(m.keyPos)
}

// sameKey reports whether row i of r holds the key keyOf boxed last. Cells
// compare by identity, so NULL, −0 and NaN keys group as Tuple.Key groups them.
func (m *merger) sameKey(r *relation.Relation, i int) bool {
	for c, j := range m.keyIdx {
		if !r.Value(i, j).Identical(m.key[c]) {
			return false
		}
	}
	return true
}

// InitBase installs the synchronized base-values relation: the multiset
// union of the sites' B_i fragments, de-duplicated on the key attributes —
// the first occurrence of a key, in site then row order, is kept. The kept
// rows are gathered straight into X's vectors, or, when some fragment holds a
// cell only rows carry, boxed into one row slab at the plan's final width.
// X's bytes are charged before any of it is allocated; a charge over budget
// leaves X uninstalled.
func (m *merger) InitBase(parts ...*relation.Relation) error {
	schema := m.xschemas[0]
	// X holds at least as many keys as the largest fragment.
	largest, columnar := 0, true
	parts = slices.Clone(parts)
	for p, b := range parts {
		if !b.Schema.Equal(schema) {
			return fmt.Errorf("core: base schema %s, want %s", b.Schema, schema)
		}
		parts[p] = asColumns(b)
		columnar = columnar && parts[p].Columns() != nil
		largest = max(largest, b.Len())
	}
	type rowAt struct{ part, row int32 }
	kept := make([]rowAt, 0, largest)
	table := newKeyTable(largest)
	same := func(n int) bool { return m.sameKey(parts[kept[n].part], int(kept[n].row)) }
	for p, b := range parts {
		for i := 0; i < b.Len(); i++ {
			if h := m.keyOf(b, i); table.find(h, same) < 0 {
				table.insert(h, len(kept))
				kept = append(kept, rowAt{int32(p), int32(i)})
			}
		}
	}

	n, w := len(kept), len(schema)
	bytes := int64(relation.TupleMemBytes * w)
	nonNull := make([]int, w)
	for j := range schema {
		for _, at := range kept {
			if v := parts[at.part].Value(int(at.row), j); !v.IsNull() {
				nonNull[j]++
				bytes += int64(len(v.Str))
			}
		}
	}
	if columnar {
		for j, col := range schema {
			bytes += vectorBytes(col.Kind, n, nonNull[j])
		}
	} else {
		bytes += int64(n) * (relation.TupleMemBytes + relation.ValueMemBytes*int64(w))
	}
	if err := m.budget.charge(bytes); err != nil {
		return err
	}

	var x *relation.Relation
	if columnar {
		c := &relation.Columns{Rows: n, Vecs: make([]relation.Vector, w)}
		for j, col := range schema {
			v := relation.NewVector(col.Kind, n)
			if col.Kind == relation.KindString {
				v.Dict = make([]string, 0, nonNull[j])
			}
			for r, at := range kept {
				v.Set(r, n, parts[at.part].Value(int(at.row), j))
			}
			c.Vecs[j] = v
		}
		x = relation.FromColumns(schema, c)
	} else {
		fw := m.finalWidth()
		slab := make([]relation.Value, n*fw)
		x = &relation.Relation{Schema: schema, Tuples: make([]relation.Tuple, n)}
		for r, at := range kept {
			x.Tuples[r] = parts[at.part].AppendRow(slab[r*fw:r*fw:(r+1)*fw], int(at.row))
		}
	}
	m.x, m.table, m.extended = x, nil, 0
	return nil
}

// asColumns returns r with a columnar body when its cells allow one: r itself
// when it has one, else its gathered image, or r when some cell only rows
// carry (relation.GatherColumns).
func asColumns(r *relation.Relation) *relation.Relation {
	if r.Columns() != nil {
		return r
	}
	if c := relation.GatherColumns(r.Schema, r.Tuples, nil, nil); c != nil {
		return relation.FromColumns(r.Schema, c)
	}
	return r
}

// vectorBytes is the MemBytes share of an n-row vector of kind with nonNull
// non-NULL rows, their STRING bytes aside.
func vectorBytes(kind relation.Kind, n, nonNull int) int64 {
	var b int64
	switch kind {
	case relation.KindInt, relation.KindFloat:
		b = 8 * int64(n)
	case relation.KindString:
		b = 4*int64(n) + 16*int64(nonNull)
	}
	if nonNull < n {
		b += 8 * int64((n+63)/64)
	}
	return b
}

// toRows switches X to a row body, at the plan's final width, for the rest of
// the query: a cell arrived that only rows can carry.
func (m *merger) toRows() error {
	if m.x.Columns() == nil {
		return nil
	}
	n, w := m.x.Len(), m.finalWidth()
	slab := make([]relation.Value, n*w)
	x := &relation.Relation{Schema: m.x.Schema, Tuples: make([]relation.Tuple, n)}
	for i := range x.Tuples {
		x.Tuples[i] = m.x.AppendRow(slab[i*w:i*w:(i+1)*w], i)
	}
	if err := m.budget.charge(x.MemBytes() - m.x.MemBytes()); err != nil {
		return err
	}
	m.x = x
	return nil
}

// InitLocal prepares an empty X at the schema reached after upTo operators,
// with an empty key table; local evaluation results are then merged with
// MergeLocal.
func (m *merger) InitLocal(upTo int) error {
	schema := m.xschemas[upTo]
	c := &relation.Columns{Vecs: make([]relation.Vector, len(schema))}
	m.x = relation.FromColumns(schema, c)
	for j, col := range schema {
		if col.Kind == relation.KindBool {
			m.x = relation.New(schema)
			break
		}
		c.Vecs[j].Kind = col.Kind
	}
	m.extended = upTo
	m.table = newKeyTable(0)
	return nil
}

// X returns the current base-result structure (read-only between rounds;
// callers must not mutate it while site calls are in flight).
func (m *merger) X() *relation.Relation { return m.x }

// Extend appends operator k's identity aggregate columns (COUNT 0, others
// NULL, derived NULL) to every row, growing X's schema by one operator.
// Groups no site reports on — e.g. under group reduction — thereby keep the
// correct empty-range aggregates.
//
// X gets a new header; one taken before keeps the narrower X, whose cells
// this round's merges do not write, so a Thm. 4 reducer may read it while
// stages commit.
func (m *merger) Extend() error {
	k := m.extended
	if k >= len(m.segs) {
		return fmt.Errorf("core: extend past last operator (%d)", k)
	}
	ident := m.identityFor(k)
	schema := m.xschemas[k+1]
	w, n := len(m.x.Schema), m.x.Len()
	for _, col := range schema[w:] {
		if col.Kind == relation.KindBool {
			if err := m.toRows(); err != nil {
				return err
			}
		}
	}
	// Charge the growth before claiming it, so an over-budget query fails with
	// a typed error here, at the merge boundary, instead of OOMing the daemon.
	grow := int64(relation.TupleMemBytes * len(ident))
	c := m.x.Columns()
	for j, val := range ident {
		switch {
		case c == nil:
			grow += int64(n) * relation.ValueMemBytes
		case val.IsNull():
			grow += vectorBytes(schema[w+j].Kind, n, 0)
		default:
			grow += vectorBytes(schema[w+j].Kind, n, n)
		}
	}
	if err := m.budget.charge(grow); err != nil {
		return err
	}
	if c == nil {
		// The rows were allocated at the final width (InitBase, MergeLocal,
		// toRows), so this re-slices each one and writes the identity cells
		// in place, past the old header's length.
		rows := make([]relation.Tuple, n)
		for i, row := range m.x.Tuples {
			rows[i] = append(row, ident...)
		}
		m.x = &relation.Relation{Schema: schema, Tuples: rows}
	} else {
		vecs := append(c.Vecs[:w:w], make([]relation.Vector, len(ident))...)
		for j, val := range ident {
			v := relation.NewVector(schema[w+j].Kind, n)
			for i := 0; i < n; i++ {
				v.Set(i, n, val)
			}
			vecs[w+j] = v
		}
		m.x = relation.FromColumns(schema, &relation.Columns{Rows: n, Vecs: vecs})
	}
	m.extended++
	return nil
}

// Fragment builds what an operator round ships: the cols cells of X's rows —
// of the rows listed, in that order, or of every row when rows is nil. A
// columnar X shares its vectors with a whole-X fragment and gathers a reduced
// one's; a row X's cells are gathered into vectors, or copied into one Value
// slab when some cell only a row body carries (relation.GatherColumns). A
// row's position in the fragment is the ordinal the sites address it by;
// NewStage takes the same rows to map it back. The fragment is marked
// finished (relation.ShareFrame), so however many envelopes carry it — one
// per site, one per retry — it is encoded once, and the in-process sites that
// read it directly only read.
func (m *merger) Fragment(cols []int, rows []int32) *relation.Relation {
	schema := m.x.Schema.Project(cols)
	var f *relation.Relation
	if c := m.x.Columns(); c != nil {
		f = relation.FromColumns(schema, c.Select(rows, cols))
	} else if c := relation.GatherColumns(m.x.Schema, m.x.Tuples, rows, cols); c != nil {
		f = relation.FromColumns(schema, c)
	} else {
		n := len(m.x.Tuples)
		if rows != nil {
			n = len(rows)
		}
		w := len(cols)
		slab := make([]relation.Value, n*w)
		f = &relation.Relation{Schema: schema, Tuples: make([]relation.Tuple, n)}
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
// by name and kind). A columnar block must hold one typed vector of its
// column's kind per column, and no NULL ordinal or COUNT: a typed vector holds
// nothing else the merge cannot fold. A row block must have every row at full
// arity, with an INT ordinal and aggregate cells the merge can fold
// (agg.Layout.CheckPhys): the codec carries cells whose kind differs from
// their column's, and a block that failed the merge halfway through would
// leave X half-merged.
func validateH(h *relation.Relation, want relation.Schema, segs []varSegment) error {
	if !h.Schema.Equal(want) {
		return fmt.Errorf("%w: schema %s, want %s", ErrMalformedH, h.Schema, want)
	}
	if c := h.Columns(); c != nil {
		if len(c.Vecs) != len(want) {
			return fmt.Errorf("%w: %d vectors, want %d", ErrMalformedH, len(c.Vecs), len(want))
		}
		for j := range c.Vecs {
			if v := &c.Vecs[j]; v.Kind != want[j].Kind || v.Boxed {
				return fmt.Errorf("%w: column %s is not a typed %s vector", ErrMalformedH, want[j].Name, want[j].Kind)
			}
		}
		if hasNull(&c.Vecs[0]) {
			return fmt.Errorf("%w: a NULL ordinal", ErrMalformedH)
		}
		cursor := 1
		for _, seg := range segs {
			for p, pc := range seg.layout.Phys {
				if pc.Op == agg.PhysCount && hasNull(&c.Vecs[cursor+p]) {
					return fmt.Errorf("%w: %s is NULL", ErrMalformedH, pc.Name)
				}
			}
			cursor += len(seg.layout.Phys)
		}
		return nil
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

// hasNull reports whether some row of v is NULL.
func hasNull(v *relation.Vector) bool {
	for _, word := range v.Nulls {
		if word != 0 {
			return true
		}
	}
	return false
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
func (s *ordinalSet) claim(ord int64) error {
	if ord < 0 || ord >= int64(s.n) {
		return fmt.Errorf("%w: ordinal %d outside the %d-row fragment", ErrMalformedH, ord, s.n)
	}
	word, bit := &s.bits[ord>>6], uint64(1)<<(uint(ord)&63)
	if *word&bit != 0 {
		return fmt.Errorf("%w: ordinal %d reported twice in one stream", ErrMalformedH, ord)
	}
	*word |= bit
	return nil
}

// hStage buffers one site's streamed H_i blocks for a single operator-round
// attempt without touching X. This is what makes per-site retry sound: a
// commit folds aggregates into X in place, so a stream that dies after some
// blocks were merged could not be re-run without double-counting. Instead
// every block is validated and staged here, and only a stream that completed
// cleanly is committed to X — a failed attempt is discarded whole and retried
// from scratch.
//
// Stages are created and filled in the per-site goroutines (they touch no
// merger state) and committed, in site order, on the coordinator's merge loop.
type hStage struct {
	schema relation.Schema // the operator's H_i schema every block must carry
	segs   []varSegment    // the operator's variables, whose cells validateH checks
	// rows maps a fragment ordinal to its X row; nil when the fragment was
	// all of X in order. seen holds the ordinals this stream has reported.
	rows []int32
	seen ordinalSet
	// blocks are the staged blocks as they arrived: vectors, or rows where a
	// cell only rows carry.
	blocks []*relation.Relation
	budget *memBudget // query memory budget the staged bytes are charged to
	bytes  int64      // bytes currently charged to budget for this stage
}

// NewStage opens a staging buffer for one site's operator-k stream over a
// fragment of fragRows rows; rows is the list the fragment was built from
// (see Fragment), the same on every attempt.
func (m *merger) NewStage(k, fragRows int, rows []int32) *hStage {
	return &hStage{schema: m.hschemas[k], segs: m.segs[k], rows: rows, seen: newOrdinalSet(fragRows), budget: m.budget}
}

// Add validates and stages one H block, referenced, not copied: it must stay
// untouched until Commit or Discard. A row block whose cells vectors can hold
// (one an in-process scalar evaluation emits) is staged as vectors. The
// block's bytes are charged to the query's memory budget; an over-budget
// charge fails the stage (and with it the query — budget errors are
// permanent, not retried).
func (st *hStage) Add(h *relation.Relation) error {
	if err := validateH(h, st.schema, st.segs); err != nil {
		return err
	}
	h = asColumns(h)
	// Account the block's bytes before the checks that can still reject it:
	// an over-budget charge stays counted until the failed query's Discard
	// releases it.
	n := h.MemBytes()
	st.bytes += n
	if err := st.budget.charge(n); err != nil {
		return err
	}
	if c := h.Columns(); c != nil {
		for _, ord := range c.Vecs[0].Ints {
			if err := st.seen.claim(ord); err != nil {
				return err
			}
		}
	} else {
		for _, t := range h.Tuples {
			if err := st.seen.claim(t[0].Int); err != nil {
				return err
			}
		}
	}
	st.blocks = append(st.blocks, h)
	return nil
}

// Discard drops the staged blocks and releases their budget charge; the
// stage must not be used afterwards. Commit paths also land here (via their
// defers), which is correct: committed aggregates fold into X's existing rows
// in place, so the staged blocks are no longer held either way.
func (st *hStage) Discard() {
	st.budget.release(st.bytes)
	st.bytes = 0
	st.blocks = nil
}

// CommitStage folds one completed stream's staged H blocks into X and
// releases the stage: each row's ordinal is an X row — itself, or through the
// stage's row list — and its physical columns merge into that row's
// operator-k segments, vector by vector (foldCell). A staged row block
// switches X to rows first. Every block was validated as it was staged, so
// this is the O(|H|) merge of Theorem 1 and nothing else.
func (m *merger) CommitStage(st *hStage, k int) error {
	defer st.Discard()
	if len(st.blocks) == 0 {
		return nil // empty stream: the site had no matching groups
	}
	if k != m.extended-1 {
		return fmt.Errorf("core: merging operator %d into X extended to %d", k+1, m.extended)
	}
	for _, b := range st.blocks {
		if b.Columns() == nil {
			if err := m.toRows(); err != nil {
				return err
			}
		}
	}
	var hrow relation.Tuple
	for _, b := range st.blocks {
		if xc := m.x.Columns(); xc != nil {
			hc := b.Columns()
			cursor := 1
			for _, seg := range m.segs[k] {
				for p, pc := range seg.layout.Phys {
					into, from := &xc.Vecs[seg.physStart+p], &hc.Vecs[cursor+p]
					for i, ord := range hc.Vecs[0].Ints {
						xi := int(ord)
						if st.rows != nil {
							xi = int(st.rows[xi])
						}
						foldCell(pc.Op, into, xi, xc.Rows, from, i)
					}
				}
				cursor += len(seg.layout.Phys)
			}
			continue
		}
		for i := 0; i < b.Len(); i++ {
			hrow = b.AppendRow(hrow[:0], i)
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
	}
	return nil
}

// foldCell folds row fi of from into row xi of the n-row vector into, both of
// one kind, as agg.Layout.MergePhys folds the cells they hold: COUNT, SUM and
// SUMSQ add under the NULL bitmaps, MIN and MAX keep the smaller or larger.
func foldCell(op agg.PhysOp, into *relation.Vector, xi, n int, from *relation.Vector, fi int) {
	if from.Null(fi) {
		return
	}
	if into.Null(xi) {
		into.Set(xi, n, from.Value(fi))
		return
	}
	switch op {
	case agg.PhysCount, agg.PhysSum, agg.PhysSumSq:
		switch into.Kind {
		case relation.KindInt:
			into.Ints[xi] += from.Ints[fi]
		case relation.KindFloat:
			into.Floats[xi] += from.Floats[fi]
		}
	case agg.PhysMin, agg.PhysMax:
		c, _ := into.Value(xi).Compare(from.Value(fi))
		if op == agg.PhysMin && c > 0 || op == agg.PhysMax && c < 0 {
			into.Set(xi, n, from.Value(fi))
		}
	}
}

// MergeLocal synchronizes one site's locally evaluated X fragment (schema =
// current X schema), of either body: new keys are appended to X, existing
// keys have every operator segment's physical columns merged. A fragment
// holding a cell only rows carry switches X to rows first. Used by the
// synchronization-reduced plans (Prop. 2 / Cor. 1).
func (m *merger) MergeLocal(xl *relation.Relation) error {
	if !xl.Schema.Equal(m.x.Schema) {
		return fmt.Errorf("core: local X schema %s, want %s", xl.Schema, m.x.Schema)
	}
	for i, t := range xl.Tuples {
		if len(t) != len(xl.Schema) {
			return fmt.Errorf("core: sync: local X row %d has arity %d, want %d", i, len(t), len(xl.Schema))
		}
	}
	if m.table == nil {
		return fmt.Errorf("core: sync: local merge into an X that InitLocal did not prepare")
	}
	if xl = asColumns(xl); xl.Columns() == nil {
		if err := m.toRows(); err != nil {
			return err
		}
	}
	before := m.x.MemBytes()
	same := func(row int) bool { return m.sameKey(m.x, row) }
	var lrow relation.Tuple
	for i := 0; i < xl.Len(); i++ {
		h := m.keyOf(xl, i)
		row := m.table.find(h, same)
		if xc, lc := m.x.Columns(), xl.Columns(); xc != nil {
			if row < 0 {
				for j := range xc.Vecs {
					xc.Vecs[j].Append(xc.Rows, lc.Vecs[j].Value(i))
				}
				m.table.insert(h, xc.Rows)
				xc.Rows++
				continue
			}
			for k := 0; k < m.extended; k++ {
				for _, seg := range m.segs[k] {
					for p, pc := range seg.layout.Phys {
						j := seg.physStart + p
						foldCell(pc.Op, &xc.Vecs[j], row, xc.Rows, &lc.Vecs[j], i)
					}
				}
			}
			continue
		}
		lrow = xl.AppendRow(lrow[:0], i)
		if row < 0 {
			// Room for every later operator's columns, as in InitBase.
			m.x.Tuples = append(m.x.Tuples, append(make(relation.Tuple, 0, m.finalWidth()), lrow...))
			m.table.insert(h, len(m.x.Tuples)-1)
			continue
		}
		xrow := m.x.Tuples[row]
		for k := 0; k < m.extended; k++ {
			for _, seg := range m.segs[k] {
				n := len(seg.layout.Phys)
				if err := seg.layout.MergePhys(xrow[seg.physStart:seg.physStart+n], lrow[seg.physStart:seg.physStart+n]); err != nil {
					return err
				}
			}
		}
	}
	return m.budget.charge(m.x.MemBytes() - before)
}

// RecomputeDerived refreshes the derived (AVG, VARIANCE, STDEV) columns of
// operators [from, upTo) for every row; called after each synchronization,
// for the operators whose physical cells it changed, so subsequent conditions
// and the final output see correct averages.
func (m *merger) RecomputeDerived(from, upTo int) {
	c := m.x.Columns()
	var phys, der relation.Tuple
	for k := from; k < upTo; k++ {
		for _, seg := range m.segs[k] {
			n := len(seg.layout.Phys)
			if len(seg.layout.Derived) == 0 {
				continue
			}
			if c == nil {
				for _, row := range m.x.Tuples {
					seg.layout.AppendDerived(row[seg.derStart:seg.derStart], row[seg.physStart:seg.physStart+n])
				}
				continue
			}
			for i := 0; i < c.Rows; i++ {
				phys = phys[:0]
				for p := 0; p < n; p++ {
					phys = append(phys, c.Vecs[seg.physStart+p].Value(i))
				}
				der = seg.layout.AppendDerived(der[:0], phys)
				for d, val := range der {
					c.Vecs[seg.derStart+d].Set(i, c.Rows, val)
				}
			}
		}
	}
}

// Finalize projects X onto the logical output columns, sharing a columnar
// X's vectors.
func (m *merger) Finalize(cols []string) (*relation.Relation, error) {
	return m.x.Project(cols)
}

// keyTable is an open-addressed hash table of row ids, linear probing, at
// most half full. Callers hash a row's key cells (merger.keyOf) and say how to
// compare a candidate's, so the table holds neither keys nor rows: a slot is
// 32 bits of the hash, which also place it, and the row.
type keyTable struct {
	slots []keySlot
	n     int
}

type keySlot struct {
	tag uint32 // the hash's low 32 bits
	row int32  // row id + 1; 0 marks an empty slot
}

func newKeyTable(hint int) *keyTable {
	size := 16
	for size < 2*hint {
		size <<= 1
	}
	return &keyTable{slots: make([]keySlot, size)}
}

// find returns the row under hash that same accepts, or -1.
func (t *keyTable) find(hash uint64, same func(row int) bool) int {
	tag, mask := uint32(hash), uint32(len(t.slots)-1)
	for i := tag & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s.row == 0 {
			return -1
		}
		if s.tag == tag && same(int(s.row-1)) {
			return int(s.row - 1)
		}
	}
}

// insert adds row under hash; find has found no row with its key.
func (t *keyTable) insert(hash uint64, row int) {
	if 2*(t.n+1) > len(t.slots) {
		old := t.slots
		t.slots = make([]keySlot, 2*len(old))
		for _, s := range old {
			if s.row != 0 {
				t.place(s)
			}
		}
	}
	t.place(keySlot{tag: uint32(hash), row: int32(row + 1)})
	t.n++
}

func (t *keyTable) place(s keySlot) {
	mask := uint32(len(t.slots) - 1)
	i := s.tag & mask
	for t.slots[i].row != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}
