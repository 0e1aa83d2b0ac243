package core

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"

	"skalla/internal/agg"
	"skalla/internal/engine"
	"skalla/internal/gmdj"
	"skalla/internal/plan"
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
// find X's rows by key in a relation.KeyTable (installKeys).
//
// X is columnar: the merger writes its vectors in place, and each operator
// round widens it by appending vectors.
type merger struct {
	keys     []string
	xschemas []relation.Schema
	segs     [][]varSegment
	hschemas []relation.Schema // per operator, the schema of its H_i

	x        *relation.Relation
	keyIdx   []int // key column positions within x
	extended int   // number of operators whose columns exist in x

	// observed[u][i] lists the X rows site i reported in the round with
	// plan.Round.UpTo u, in the order it reported them, when a later round's
	// observed reduction reads them (plan.Round.Observed; see planMerger): a
	// local round's reply rows, -1 for one the merge dropped, or the rows of
	// an operator round's committed stage (observe). nil is all of X.
	observed [][][]int32

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
	return &merger{keys: keys, xschemas: xschemas, segs: segs, hschemas: hschemas, keyIdx: keyIdx,
		observed: make([][][]int32, len(segs)+1), budget: budget}, nil
}

// planMerger is the merger of pl's evaluation on sites sites: it keeps, per
// site, the rows reported in every round a later round's observed reduction
// reads.
func planMerger(pl *plan.Plan, src gmdj.SchemaSource, sites int, budget *memBudget) (*merger, error) {
	segs, err := buildSegments(pl.Query, src, len(pl.Keys()))
	if err != nil {
		return nil, err
	}
	m, err := newMerger(pl.Keys(), pl.XSchemas, segs, budget)
	if err != nil {
		return nil, err
	}
	for _, r := range pl.Steps {
		if r.Observed > 0 {
			m.observed[r.Observed] = make([][]int32, sites)
		}
	}
	return m, nil
}

// keySeed seeds the hash of STRING key cells.
var keySeed = maphash.MakeSeed()

// hashCell mixes one key cell's hash c into a row's running hash h.
func hashCell(h, c uint64) uint64 {
	h = (h ^ c) * 0x9E3779B97F4A7C15
	return h ^ h>>29
}

func intHash(kind relation.Kind, x int64) uint64 {
	return uint64(x)*0xBF58476D1CE4E5B9 + uint64(kind)
}

// keyHashes returns, in h (grown as needed), the hash of each row's key cells
// of c, whose schema starts like X's: a column at a time, each in a loop over
// its slab; a NULL cell's hash is 0.
func (m *merger) keyHashes(c *relation.Columns, h []uint64) []uint64 {
	h = slices.Grow(h[:0], c.Rows)[:c.Rows]
	clear(h)
	for _, j := range m.keyIdx {
		v := &c.Vecs[j]
		for i := range h {
			var cell uint64
			switch {
			case v.Null(i):
			case v.Kind == relation.KindInt, v.Kind == relation.KindBool:
				cell = intHash(v.Kind, v.Ints[i])
			case v.Kind == relation.KindFloat:
				cell = intHash(relation.KindFloat, int64(math.Float64bits(v.Floats[i])))
			case v.Kind == relation.KindString:
				cell = maphash.String(keySeed, v.Dict[v.Codes[i]])
			}
			h[i] = hashCell(h[i], cell)
		}
	}
	return h
}

// sameKey reports whether row i of a and row j of b, both of X's key
// columns, hold identical key cells, compared on the slabs as
// relation.Value.Identical compares them: NULL, −0 and NaN keys group as it
// groups them.
func (m *merger) sameKey(a *relation.Columns, i int, b *relation.Columns, j int) bool {
	for _, k := range m.keyIdx {
		u, v := &a.Vecs[k], &b.Vecs[k]
		switch {
		case u.Null(i) || v.Null(j):
			if u.Null(i) != v.Null(j) {
				return false
			}
		case u.Kind == relation.KindInt, u.Kind == relation.KindBool:
			if u.Ints[i] != v.Ints[j] {
				return false
			}
		case u.Kind == relation.KindFloat:
			if math.Float64bits(u.Floats[i]) != math.Float64bits(v.Floats[j]) {
				return false
			}
		case u.Kind == relation.KindString:
			if u.Dict[u.Codes[i]] != v.Dict[v.Codes[j]] {
				return false
			}
		}
	}
	return true
}

// rowAt is a row of one of the fragments a merge installs keys from.
type rowAt struct{ part, row int32 }

// installKeys installs as X, with no operator's columns, the distinct keys of
// the fragments' leading key columns, each at its first occurrence in
// fragment then row order, and with named set returns, per fragment, the X
// row each of its rows names. Keys are hashed and compared on the fragments'
// vectors (keyHashes, sameKey), and the kept rows are gathered column by
// column straight into X's vectors. Under a witness (the fragments' last
// column; named must be set) a key whose counts sum to 0 is dropped before
// anything is gathered, its rows naming X row -1. The key table, the hashes,
// the kept rows and the witness sums are worked in lend's (nil: fresh ones),
// which X does not keep. X's bytes are charged before any of it is
// allocated; a charge over budget leaves X uninstalled.
func (m *merger) installKeys(cols []*relation.Columns, named, witness bool, lend *roundLend) ([][]int32, error) {
	if lend == nil {
		lend = new(roundLend)
	}
	schema := m.xschemas[0]
	// X holds at least as many keys as the largest fragment, and at most as
	// many as all of them.
	largest, total := 0, 0
	for _, c := range cols {
		largest, total = max(largest, c.Rows), total+c.Rows
	}
	kept, hashes := slices.Grow(lend.kept[:0], total), lend.hashes
	table := &lend.table
	table.Reset(largest)
	var at [][]int32
	if named {
		at = make([][]int32, len(cols))
	}
	var (
		c *relation.Columns
		i int
	)
	same := func(n int) bool { return m.sameKey(cols[kept[n].part], int(kept[n].row), c, i) }
	for p := range cols {
		c = cols[p]
		hashes = m.keyHashes(c, hashes)
		if named {
			at[p] = make([]int32, c.Rows)
		}
		for i = 0; i < c.Rows; i++ {
			row := table.Find(hashes[i], same)
			if row < 0 {
				row = len(kept)
				table.Insert(hashes[i], row)
				kept = append(kept, rowAt{int32(p), int32(i)})
			}
			if named {
				at[p][i] = int32(row)
			}
		}
	}
	if witness {
		sum := slices.Grow(lend.sums[:0], len(kept))[:len(kept)]
		clear(sum)
		lend.sums = sum[:0]
		for p, c := range cols {
			for i, w := range c.Vecs[len(c.Vecs)-1].Ints {
				sum[at[p][i]] += w
			}
		}
		n := 0
		for key, w := range sum { // sum becomes key → X row, -1 for a dropped one
			if sum[key] = -1; w > 0 {
				kept[n], sum[key] = kept[key], int64(n)
				n++
			}
		}
		for _, rows := range at {
			for i, key := range rows {
				rows[i] = int32(sum[key])
			}
		}
		kept = kept[:n]
	}
	// The lend keeps the lists as they grew; kept is read until X is built.
	lend.kept, lend.hashes = kept[:0], hashes[:0]

	n, w := len(kept), len(schema)
	bytes := int64(relation.TupleMemBytes * w)
	nonNull := make([]int, w)
	for j, col := range schema {
		for _, at := range kept {
			src, row := &cols[at.part].Vecs[j], int(at.row)
			switch {
			case src.Null(row):
			case col.Kind == relation.KindString:
				nonNull[j]++
				bytes += int64(len(src.Dict[src.Codes[row]]))
			default:
				nonNull[j]++
			}
		}
		bytes += vectorBytes(col.Kind, n, nonNull[j])
	}
	if err := m.budget.charge(bytes); err != nil {
		return nil, err
	}

	x := &relation.Columns{Rows: n, Vecs: make([]relation.Vector, w)}
	for j, col := range schema {
		v := &x.Vecs[j]
		if *v = relation.NewVector(col.Kind, n); col.Kind == relation.KindString {
			v.Dict = make([]string, 0, nonNull[j])
		}
		for r, at := range kept {
			src, row := &cols[at.part].Vecs[j], int(at.row)
			switch {
			case src.Null(row):
				v.SetNull(r, n)
			case col.Kind == relation.KindInt, col.Kind == relation.KindBool:
				v.Ints[r] = src.Ints[row]
			case col.Kind == relation.KindFloat:
				v.Floats[r] = src.Floats[row]
			case col.Kind == relation.KindString:
				v.Codes[r] = uint32(len(v.Dict))
				v.Dict = append(v.Dict, src.Dict[src.Codes[row]])
			}
		}
	}
	m.x, m.extended = relation.FromColumns(schema, x), 0
	return at, nil
}

// vectorBytes is the MemBytes share of an n-row vector of kind with nonNull
// non-NULL rows, their STRING bytes aside.
func vectorBytes(kind relation.Kind, n, nonNull int) int64 {
	var b int64
	switch {
	case kind == relation.KindInt, kind == relation.KindFloat, kind == relation.KindBool:
		b = 8 * int64(n)
	case kind == relation.KindString:
		b = 4*int64(n) + 16*int64(nonNull)
	}
	if nonNull < n {
		b += 8 * int64((n+63)/64)
	}
	return b
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
	// Charge the growth before claiming it, so an over-budget query fails with
	// a typed error here, at the merge boundary, instead of OOMing the daemon.
	grow := int64(relation.TupleMemBytes * len(ident))
	for j, val := range ident {
		kind, nonNull := schema[w+j].Kind, 0
		if !val.IsNull() {
			nonNull = n
		}
		grow += vectorBytes(kind, n, nonNull)
	}
	if err := m.budget.charge(grow); err != nil {
		return err
	}
	c := m.x.Columns()
	vecs := append(c.Vecs[:w:w], make([]relation.Vector, len(ident))...)
	for j, val := range ident {
		// An identity cell is NULL or COUNT's 0, which the zeroed INT slab
		// already holds; a NULL one sets every bit of the bitmap.
		v := relation.NewVector(schema[w+j].Kind, n)
		if val.IsNull() && n > 0 {
			v.Nulls = make([]uint64, (n+63)/64)
			for i := range v.Nulls {
				v.Nulls[i] = ^uint64(0)
			}
			if n%64 != 0 {
				v.Nulls[len(v.Nulls)-1] = 1<<(n%64) - 1
			}
		}
		vecs[w+j] = v
	}
	m.x = relation.FromColumns(schema, &relation.Columns{Rows: n, Vecs: vecs})
	m.extended++
	return nil
}

// Fragment builds what an operator round ships: the cols cells of X's rows —
// of the rows listed, in that order, or of every row when rows is nil. A
// whole-X fragment shares X's vectors and a reduced one gathers its own, as
// a site decodes them. A row's position in the fragment is the ordinal the
// sites address it by; NewStage takes the same rows to map it back. The fragment is marked finished (relation.ShareFrame),
// so however many envelopes carry it — one per site, one per retry — it is
// encoded once.
func (m *merger) Fragment(cols []int, rows []int32) *relation.Relation {
	f := relation.FromColumns(m.x.Schema.Project(cols), m.x.Columns().Select(rows, cols))
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

// validateH checks one incoming columnar H block of an operator against want,
// the schema of its H_i (the row ordinal, then the physical columns of segs,
// each by name and kind): one vector of its column's kind per column, an
// ordinal with no NULL, and aggregate cells the merge can fold. A vector
// holds only cells of its kind, and the merge folds all of them but a NULL
// COUNT, refused here: a block that failed the merge halfway through would
// leave X half-merged.
func validateH(h *relation.Relation, want relation.Schema, segs []varSegment) error {
	if !h.Schema.Equal(want) {
		return fmt.Errorf("%w: schema %s, want %s", ErrMalformedH, h.Schema, want)
	}
	c := h.Columns()
	if len(c.Vecs) != len(want) {
		return fmt.Errorf("%w: %d vectors, want %d", ErrMalformedH, len(c.Vecs), len(want))
	}
	for j := range c.Vecs {
		if c.Vecs[j].Kind != want[j].Kind {
			return fmt.Errorf("%w: column %s is not a %s vector", ErrMalformedH, want[j].Name, want[j].Kind)
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
	bits    []uint64
	n       int
	claimed int // ordinals in the set
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
	s.claimed++
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
	rows   []int32
	seen   ordinalSet
	blocks []*relation.Relation // the staged blocks as they arrived, columnar
	budget *memBudget           // query memory budget the staged bytes are charged to
	bytes  int64                // bytes currently charged to budget for this stage
}

// NewStage opens a staging buffer for one site's operator-k stream over a
// fragment of fragRows rows; rows is the list the fragment was built from
// (see Fragment), the same on every attempt.
func (m *merger) NewStage(k, fragRows int, rows []int32) *hStage {
	return &hStage{schema: m.hschemas[k], segs: m.segs[k], rows: rows, seen: newOrdinalSet(fragRows), budget: m.budget}
}

// Add validates and stages one H block, referenced, not copied: it must stay
// untouched until Commit or Discard. The block's bytes are charged to
// the query's memory budget; an over-budget charge fails the stage (and with
// it the query — budget errors are permanent, not retried).
func (st *hStage) Add(h *relation.Relation) error {
	if err := validateH(h, st.schema, st.segs); err != nil {
		return err
	}
	// Account the block's bytes before the checks that can still reject it:
	// an over-budget charge stays counted until the failed query's Discard
	// releases it.
	n := h.MemBytes()
	st.bytes += n
	if err := st.budget.charge(n); err != nil {
		return err
	}
	for _, ord := range h.Columns().Vecs[0].Ints {
		if err := st.seen.claim(ord); err != nil {
			return err
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

// observe records, when a later round reads them, the X rows site's
// committed operator-k stage reported: its ordinals in fragment order, each
// through the stage's row list, or nil when they are every row of X. Only a
// committed stage may be recorded: a discarded attempt's ordinals say nothing
// about the site.
func (m *merger) observe(k, site int, st *hStage) error {
	if m.observed[k+1] == nil {
		return nil
	}
	var rows []int32
	if n := st.seen.claimed; n < m.x.Len() {
		if err := m.budget.charge(4 * int64(n)); err != nil {
			return err
		}
		rows = make([]int32, 0, n)
		for w, word := range st.seen.bits {
			for ; word != 0; word &= word - 1 {
				ord := int32(w*64 + bits.TrailingZeros64(word))
				if st.rows != nil {
					ord = st.rows[ord]
				}
				rows = append(rows, ord)
			}
		}
	}
	m.observed[k+1][site] = rows
	return nil
}

// CommitStage folds one completed stream's staged H blocks into X and
// releases the stage: each row's ordinal is an X row — itself, or through the
// stage's row list — and its physical columns merge into that row's
// operator-k segments, vector by vector (fold). Every block was validated as
// it was staged, so this is the O(|H|) merge of Theorem 1 and nothing else.
func (m *merger) CommitStage(st *hStage, k int) error {
	defer st.Discard()
	if len(st.blocks) == 0 {
		return nil // empty stream: the site had no matching groups
	}
	if k != m.extended-1 {
		return fmt.Errorf("core: merging operator %d into X extended to %d", k+1, m.extended)
	}
	xc := m.x.Columns()
	var to []int32
	for _, b := range st.blocks {
		hc := b.Columns()
		to = slices.Grow(to[:0], hc.Rows)
		for _, ord := range hc.Vecs[0].Ints {
			if st.rows != nil {
				ord = int64(st.rows[ord])
			}
			to = append(to, int32(ord))
		}
		cursor := 1
		for _, seg := range m.segs[k] {
			for p, pc := range seg.layout.Phys {
				if err := m.fold(pc.Op, &xc.Vecs[seg.physStart+p], &hc.Vecs[cursor+p], to); err != nil {
					return err
				}
			}
			cursor += len(seg.layout.Phys)
		}
	}
	return nil
}

// fold folds row i of from into row to[i] of X's vector into, for every row
// i with to[i] ≥ 0; both vectors are of one kind. COUNT, SUM and SUMSQ add on
// the slabs under the NULL bitmaps; MIN and MAX fold cell by cell through
// agg.MergeCell, as agg.Layout.MergePhys does.
func (m *merger) fold(op agg.PhysOp, into, from *relation.Vector, to []int32) error {
	n := m.x.Len()
	add := op == agg.PhysCount || op == agg.PhysSum || op == agg.PhysSumSq
	if add && (into.Kind == relation.KindInt || into.Kind == relation.KindFloat) {
		for i, xi := range to {
			switch {
			case xi < 0 || from.Null(i):
			case into.Null(int(xi)):
				into.Set(int(xi), n, from.Value(i))
			case into.Kind == relation.KindInt:
				into.Ints[xi] += from.Ints[i]
			default:
				into.Floats[xi] += from.Floats[i]
			}
		}
		return nil
	}
	for i, xi := range to {
		if xi < 0 || from.Null(i) {
			continue
		}
		cur := into.Value(int(xi))
		v, err := agg.MergeCell(op, cur, from.Value(i))
		if err != nil {
			return fmt.Errorf("core: sync: %w", err)
		}
		if v != cur {
			into.Set(int(xi), n, v)
		}
	}
	return nil
}

// MergeLocal synchronizes a local round's replies, one per site in site
// order, into X after ops, the query's first operators (Prop. 2 / Thm. 5 /
// Cor. 1); over no operator it installs the base round's B_i fragments. A
// reply comes in gmdj.LocalReplySchema: X's key and physical columns, then,
// under a witness, the gmdj.WitnessColumn. X's keys are the replies' distinct
// keys, each at its first occurrence in site then row order (installKeys);
// its operators' columns start at their identities (Extend), and every
// reply's physical columns fold in, site by site: the O(|H|) merge of
// Theorem 1, addressed by key. Under a witness
// each site's counts are summed per key into a side slab, never into X, and
// the keys whose total is 0 are dropped before X is built (installKeys): no
// detail row of theirs passes the base filter at any site, so they are not in
// the base-values relation. A group can count 0 at one site and more at another;
// only the sum decides. When a later round's observed reduction reads them,
// the X row of each reply row is kept, in reply order, as the site's observed
// list. Last, the derived columns are recomputed. The key table and lists
// are worked in lend's (nil: fresh ones), and so may the replies be: X keeps
// nothing of either.
func (m *merger) MergeLocal(ops []gmdj.Operator, witness bool, parts []*relation.Relation, lend *roundLend) error {
	upTo := len(ops)
	want := gmdj.LocalReplySchema(m.xschemas[upTo], ops, witness)
	cols := make([]*relation.Columns, len(parts))
	for p, xl := range parts {
		if !xl.Schema.Equal(want) {
			return fmt.Errorf("core: local X schema %s, want %s", xl.Schema, want)
		}
		cols[p] = xl.Columns()
		if witness && hasNull(&cols[p].Vecs[len(want)-1]) {
			return fmt.Errorf("%w: a NULL witness count", ErrMalformedH)
		}
	}
	at, err := m.installKeys(cols, upTo > 0 || witness, witness, lend)
	if err != nil {
		return err
	}
	for m.extended < upTo {
		if err := m.Extend(); err != nil {
			return err
		}
	}
	// Each physical column of X folds the reply's column of its name.
	xc := m.x.Columns()
	for _, segs := range m.segs[:upTo] {
		for _, seg := range segs {
			for q, pc := range seg.layout.Phys {
				j := seg.physStart + q
				r := want.Index(m.xschemas[upTo][j].Name)
				for p, c := range cols {
					if err := m.fold(pc.Op, &xc.Vecs[j], &c.Vecs[r], at[p]); err != nil {
						return err
					}
				}
			}
		}
	}
	if m.observed[upTo] != nil {
		for _, rows := range at {
			if err := m.budget.charge(4 * int64(len(rows))); err != nil {
				return err
			}
		}
		m.observed[upTo] = at
	}
	m.RecomputeDerived(0, upTo)
	return nil
}

// RecomputeDerived refreshes the derived (AVG, VARIANCE, STDEV) columns of
// operators [from, upTo) for every row; called after each synchronization,
// for the operators whose physical cells it changed, so subsequent conditions
// and the final output see correct averages. A derived column is computed
// from its operands' slabs through agg.Derived.Finish.
func (m *merger) RecomputeDerived(from, upTo int) {
	c := m.x.Columns()
	n := c.Rows
	for k := from; k < upTo; k++ {
		for _, seg := range m.segs[k] {
			for d, der := range seg.layout.Derived {
				sum, cnt, out := &c.Vecs[seg.physStart+der.SumIdx], &c.Vecs[seg.physStart+der.CntIdx], &c.Vecs[seg.derStart+d]
				sumsq := sum // AVG reads no sum of squares
				if der.SumSqIdx >= 0 {
					sumsq = &c.Vecs[seg.physStart+der.SumSqIdx]
				}
				for i := 0; i < n; i++ {
					switch {
					case sum.Null(i) || sumsq.Null(i) || cnt.Null(i) || cnt.Ints[i] == 0:
						out.SetNull(i, n)
					default:
						out.Floats[i] = der.Finish(floatAt(sum, i), floatAt(sumsq, i), cnt.Ints[i])
						if out.Nulls != nil {
							out.Nulls[i>>6] &^= 1 << (uint(i) & 63)
						}
					}
				}
			}
		}
	}
}

// floatAt is row i of a typed, non-NULL INT or FLOAT vector as a float.
func floatAt(v *relation.Vector, i int) float64 {
	if v.Kind == relation.KindInt {
		return float64(v.Ints[i])
	}
	return v.Floats[i]
}
