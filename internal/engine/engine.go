// Package engine implements a Skalla local warehouse site: the per-site
// relational engine that stores one horizontal partition of each detail
// relation and evaluates the site-side pieces of Alg. GMDJDistribEval — base
// query fragments B_i, sub-aggregate relations H_i for one MD operator
// (optionally guard-filtered per Proposition 1), and fully local prefix
// evaluation for the synchronization-reduced plans of Proposition 2 and
// Corollary 1.
//
// The paper uses the Daytona DBMS in this role; any engine capable of
// evaluating GMDJ expressions locally is interchangeable (see DESIGN.md).
package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"skalla/internal/expr"
	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/relation"
)

// Site is one local data warehouse. Partitions are served through the
// gmdj.ColumnSource interface, so a site can hold them in memory (Load) or on
// disk (LoadSource with a store.Table) interchangeably, and scans either
// through the same compiled kernels.
type Site struct {
	id int

	mu sync.RWMutex
	//skallavet:allow stringkey -- table catalog keyed by relation name: one lookup per evaluation, not per tuple
	tables map[string]gmdj.ColumnSource
}

// NewSite creates an empty site.
func NewSite(id int) *Site {
	//skallavet:allow stringkey -- table catalog keyed by relation name: one lookup per evaluation, not per tuple
	return &Site{id: id, tables: make(map[string]gmdj.ColumnSource)}
}

// ID returns the site identifier.
func (s *Site) ID() int { return s.id }

// Load installs (or replaces) the local partition of a detail relation as an
// in-memory source: one columnar image of its rows as they are now
// (relation.BuildColumns), so rows the caller changes or appends afterwards
// are not served. A row whose arity does not match the schema is refused.
func (s *Site) Load(_ context.Context, name string, rel *relation.Relation) error {
	if rel == nil {
		return fmt.Errorf("engine: nil relation %q", name)
	}
	p, err := newMemPartition(rel)
	if err != nil {
		return fmt.Errorf("engine: load %q: %w", name, err)
	}
	return s.LoadSource(name, p)
}

// LoadSource installs (or replaces) the local partition of a detail relation
// behind any source of column images — e.g. a disk-backed store.Table, which
// keeps the site's memory bounded regardless of partition size.
func (s *Site) LoadSource(name string, src gmdj.ColumnSource) error {
	if name == "" {
		return fmt.Errorf("engine: empty relation name")
	}
	if src == nil {
		return fmt.Errorf("engine: nil source %q", name)
	}
	if err := src.Schema().Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tables[name] = src
	return nil
}

// TableNames lists the loaded relations, sorted.
func (s *Site) TableNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TableInfo describes one loaded relation for inventory listings.
type TableInfo struct {
	Name    string
	Rows    int
	Columns int
}

// Tables returns the site's relation inventory, sorted by name. Row counts
// are computed from a catalog snapshot outside the site lock: Len on a
// disk-backed source touches its own state, and doing that while holding the
// site mutex would block every concurrent query behind inventory I/O.
func (s *Site) Tables(_ context.Context) []TableInfo {
	snap := s.snapshot()
	out := make([]TableInfo, 0, len(snap.tables))
	for n, src := range snap.tables {
		out = append(out, TableInfo{Name: n, Rows: src.Len(), Columns: len(src.Schema())})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// snapshot is an immutable view of the site taken under one RLock: the
// catalog (map copied, sources shared). Evaluations resolve every detail
// relation against the snapshot, so a concurrent LoadSource can neither swap
// a source out from under an in-flight scan nor let two resolutions of the
// same name observe different sources mid-query.
type snapshot struct {
	siteID int
	//skallavet:allow stringkey -- catalog snapshot keyed by relation name: one lookup per evaluation, not per tuple
	tables map[string]gmdj.ColumnSource
}

func (s *Site) snapshot() snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	//skallavet:allow stringkey -- catalog snapshot keyed by relation name: one lookup per evaluation, not per tuple
	tables := make(map[string]gmdj.ColumnSource, len(s.tables))
	for n, src := range s.tables {
		tables[n] = src
	}
	return snapshot{siteID: s.id, tables: tables}
}

// source returns the named partition.
func (sn snapshot) source(name string) (gmdj.ColumnSource, error) {
	src, ok := sn.tables[name]
	if !ok {
		return nil, fmt.Errorf("engine: site %d has no relation %q", sn.siteID, name)
	}
	return src, nil
}

// DetailSource implements gmdj.DataSource over the snapshot.
func (sn snapshot) DetailSource(name string) (gmdj.RowSource, error) { return sn.source(name) }

// DetailSchema implements gmdj.SchemaSource over the snapshot.
func (sn snapshot) DetailSchema(name string) (relation.Schema, error) {
	src, err := sn.source(name)
	if err != nil {
		return nil, err
	}
	return src.Schema(), nil
}

// DetailSchema implements transport.Backend. Catalog lookups are local map
// reads; the context is accepted for interface symmetry.
func (s *Site) DetailSchema(_ context.Context, name string) (relation.Schema, error) {
	return s.snapshot().DetailSchema(name)
}

// begin opens one evaluation of the given kind under ctx: it refuses a
// canceled ctx, counts the evaluation, and makes sure ctx carries a request
// recorder, which the evaluation's scans and segment reads charge. The caller
// publishes the recorder to the process-wide families when it returns,
// whether it succeeded or not, so they move exactly as the request's
// breakdown does.
func begin(ctx context.Context, kind string) (context.Context, *obs.SiteRecorder, error) {
	if err := ctx.Err(); err != nil {
		return ctx, nil, err
	}
	obs.EngineEvals.With(kind).Inc()
	rec := obs.RecorderFrom(ctx)
	if rec == nil {
		rec = obs.NewSiteRecorder()
		ctx = obs.WithRecorder(ctx, rec)
	}
	return ctx, rec, nil
}

// EvalBase computes the site's fragment B_i of the base-values relation.
func (s *Site) EvalBase(ctx context.Context, bq gmdj.BaseQuery) (*relation.Relation, error) {
	ctx, rec, err := begin(ctx, "base")
	if err != nil {
		return nil, err
	}
	defer rec.Publish()
	detail, err := s.snapshot().source(bq.Detail)
	if err != nil {
		return nil, err
	}
	return gmdj.EvalBase(ctx, bq, detail)
}

// OperatorRequest asks a site to evaluate one MD operator over its local
// partition against the shipped base-result fragment.
type OperatorRequest struct {
	// Base is the fragment of the base-result structure X shipped to the
	// site: the key attributes plus exactly the previously computed columns
	// the operator's conditions reference, for the rows the site can
	// contribute to (all of X unless a Thm. 4 reducer cut it down). A row's
	// position in Base is how H_i names it.
	Base *relation.Relation
	// Op is the operator (one or more grouping variables).
	Op gmdj.Operator
	// Guard enables distribution-independent group reduction (Prop. 1):
	// only base rows with |RNG(b, R, θ_1 ∨ … ∨ θ_m)| > 0 are returned.
	Guard bool
	// BlockRows enables row blocking (Sect. 3.2 / classical distributed
	// optimization): H_i is returned in blocks of at most this many rows, so
	// the coordinator can synchronize early blocks while later ones are
	// still in flight. Zero or negative returns H_i as a single block.
	BlockRows int
	// Derive, when set, says Base carries no keys: the site rebuilds them
	// from its local reply, which Derive describes, and Base holds the other
	// shipped columns of the reply rows Derive keeps, in reply order.
	Derive *Derive
}

// Derive describes the keys an operator round ships no more: those of the
// site's reply to the query's local round (Prop. 2 or Thm. 5), whose groups
// bound the round (plan.Round.Observed). The site keeps nothing between the
// rounds; it runs the local round's base pass again
// (gmdj.DeriveKeptKeys), which yields the same rows in the same order as
// long as its partition has not changed, and refuses with ErrStalePartition
// when their count says it has.
type Derive struct {
	// Keys are the base key columns, over the operator's detail relation.
	Keys []string
	// Where is the base filter the local round's pass applied: nil when it
	// was witnessed, which filters nothing.
	Where expr.Expr
	// Rows is the row count of the site's local reply.
	Rows int
	// Kept marks, bit i of byte i/8, the reply rows the fragment keeps; the
	// bits past Rows are 0.
	Kept []byte
}

// ErrStalePartition marks an operator request whose keys the site cannot
// rebuild: its partition is not the one its local reply came from. Retrying
// cannot help, and nothing of the site's answer is merged.
var ErrStalePartition = errors.New("engine: partition changed since the local round")

// derivedBase rebuilds the X fragment of a request with a Derive over
// detail: the derived keys of the reply rows d keeps, followed by the
// columns values ships for them.
func derivedBase(ctx context.Context, d *Derive, values *relation.Relation, detail gmdj.RowSource) (*relation.Relation, error) {
	if len(d.Keys) == 0 || d.Rows < 0 || len(d.Kept) != (d.Rows+7)/8 {
		return nil, fmt.Errorf("engine: malformed derive spec (%d keys, %d rows, %d bitmap bytes)", len(d.Keys), d.Rows, len(d.Kept))
	}
	sel := make([]int32, 0, values.Len())
	for i := 0; i < d.Rows; i++ {
		if d.Kept[i>>3]>>(i&7)&1 != 0 {
			sel = append(sel, int32(i))
		}
	}
	if len(sel) != values.Len() {
		return nil, fmt.Errorf("engine: derive spec keeps %d rows, the fragment holds %d", len(sel), values.Len())
	}
	keys, groups, err := gmdj.DeriveKeptKeys(ctx, gmdj.BaseQuery{Cols: d.Keys, Where: d.Where}, detail, sel)
	if err != nil {
		return nil, err
	}
	if groups != d.Rows {
		return nil, fmt.Errorf("%w: %d groups now, %d in the local reply", ErrStalePartition, groups, d.Rows)
	}
	schema, err := keys.Schema.Concat(values.Schema)
	if err != nil {
		return nil, err
	}
	vecs := append(append(make([]relation.Vector, 0, len(schema)), keys.Columns().Vecs...), values.Columns().Vecs...)
	return relation.FromColumns(schema, &relation.Columns{Rows: len(sel), Vecs: vecs}), nil
}

// OrdinalColumn is the leading column of every H_i: the INT position, in the
// request's Base, of the row the sub-aggregates belong to. Whoever shipped
// the fragment knows which X row each position is, so synchronization is an
// array index instead of a key lookup and the keys are not shipped back. The
// name cannot be written as an identifier, so no query column collides with
// it.
const OrdinalColumn = "#row"

// HSchema is the schema of an H_i over the given physical sub-aggregate
// columns.
func HSchema(phys relation.Schema) (relation.Schema, error) {
	return relation.Schema{{Name: OrdinalColumn, Kind: relation.KindInt}}.Concat(phys)
}

// EvalOperator computes the site's sub-aggregate relation H_i for one MD
// operator: one row per (retained) base tuple, carrying the tuple's ordinal
// followed by the physical sub-aggregate columns of every grouping variable.
func (s *Site) EvalOperator(ctx context.Context, req OperatorRequest) (*relation.Relation, error) {
	var h *relation.Relation
	err := s.EvalOperatorBlocks(ctx, req, func(block *relation.Relation) error {
		if h == nil {
			h = block
			return nil
		}
		return h.Union(block)
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}

// EvalOperatorBlocks is EvalOperator with row blocking: it emits H_i in
// blocks of at most req.BlockRows rows (a single block when BlockRows ≤ 0).
// Emit errors abort the evaluation. At least one (possibly empty) block is
// always emitted.
func (s *Site) EvalOperatorBlocks(ctx context.Context, req OperatorRequest, emit func(*relation.Relation) error) error {
	ctx, rec, err := begin(ctx, "operator")
	if err != nil {
		return err
	}
	defer rec.Publish()
	if req.Base == nil {
		return fmt.Errorf("engine: operator request without base relation")
	}
	snap := s.snapshot()
	detail, err := snap.source(req.Op.Detail)
	if err != nil {
		return err
	}
	base := req.Base
	if req.Derive != nil {
		if base, err = derivedBase(ctx, req.Derive, base, detail); err != nil {
			return err
		}
	}

	// The accumulator lives only inside the callback: H blocks gather what
	// they ship from it, so its slabs go back to the kernel's pool.
	return gmdj.WithOperatorAccum(ctx, base, req.Op, detail, func(acc *gmdj.OperatorAccum) error {
		return emitBlocks(req, acc, func(block *relation.Relation) error {
			// Block boundaries are the cancellation points of a streamed
			// evaluation: a canceled coordinator stops the stream here instead
			// of computing every remaining block.
			if err := ctx.Err(); err != nil {
				return err
			}
			rec.AddBlocks(1)
			return emit(block)
		})
	})
}

// emitBlocks streams the accumulated evaluation as H_i blocks to flush:
// guard filtering and row blocking per the request. The rows to emit are
// counted first, so every block is sized exactly, and only the rows the
// guard lets through are ever imaged.
func emitBlocks(req OperatorRequest, acc *gmdj.OperatorAccum, flush func(*relation.Relation) error) error {
	physSchema, err := acc.PhysSchema()
	if err != nil {
		return err
	}
	hSchema, err := HSchema(physSchema)
	if err != nil {
		return err
	}
	n := len(acc.Touched)
	remaining := n
	if req.Guard {
		remaining = 0
		for _, t := range acc.Touched {
			if t {
				remaining++
			}
		}
	}
	if remaining == 0 {
		return flush(relation.New(hSchema))
	}
	blockRows := remaining
	if req.BlockRows > 0 && blockRows > req.BlockRows {
		blockRows = req.BlockRows
	}
	sel := acc.RowList(blockRows)
	for i := 0; i < n && remaining > 0; i++ {
		if req.Guard && !acc.Touched[i] {
			continue
		}
		sel = append(sel, int32(i))
		remaining--
		if len(sel) < blockRows && remaining > 0 {
			continue
		}
		if err := flush(hBlock(hSchema, acc, sel)); err != nil {
			return err
		}
		sel = sel[:0]
	}
	return nil
}

// hBlock builds the H_i block of the base rows in sel, each under its
// ordinal: the aggregate vectors gathered from the accumulators.
func hBlock(schema relation.Schema, acc *gmdj.OperatorAccum, sel []int32) *relation.Relation {
	vecs := acc.AppendPhysVectors(make([]relation.Vector, 1, len(schema)), sel)
	vecs[0] = relation.Vector{Kind: relation.KindInt, Ints: make([]int64, len(sel))}
	for k, i := range sel {
		vecs[0].Ints[k] = int64(i)
	}
	return relation.FromColumns(schema, &relation.Columns{Rows: len(sel), Vecs: vecs})
}

// LocalRequest asks a site to evaluate the base query and the first UpTo
// operators of a query entirely over its local partition, returning the
// intermediate base-result structure X_UpTo (base columns + physical +
// derived aggregate columns). This is the site-side of the synchronization
// reductions: UpTo = 1 folds the base sync into the first operator's round
// (Prop. 2); UpTo = len(Ops) evaluates the whole chain with one final
// synchronization (Cor. 1).
type LocalRequest struct {
	Query gmdj.Query
	UpTo  int
	// Witness evaluates the base unfiltered and counts, per group, the
	// detail rows Query.Base.Where admits, in the reply's trailing
	// gmdj.WitnessColumn: the coordinator keeps the groups whose counts sum
	// to a positive total over the sites.
	Witness bool
}

// EvalLocal evaluates a query prefix over the local partition and replies
// with the key and physical sub-aggregate columns of X_UpTo, then the
// gmdj.WitnessColumn when asked for (gmdj.EvalLocalReply); the coordinator
// recomputes the derived columns. No guard filtering is applied:
// under synchronization reduction the returned rows are the sole carriers of
// group membership, so dropping untouched groups would lose them.
func (s *Site) EvalLocal(ctx context.Context, req LocalRequest) (*relation.Relation, error) {
	ctx, rec, err := begin(ctx, "local")
	if err != nil {
		return nil, err
	}
	defer rec.Publish()
	// One snapshot covers validation and every evaluation stage: a concurrent
	// LoadSource cannot make the base query and a later operator see
	// different generations of the same detail relation.
	snap := s.snapshot()
	if err := req.Query.Validate(snap); err != nil {
		return nil, err
	}
	return gmdj.EvalLocalReply(ctx, req.Query, snap, req.UpTo, true, req.Witness)
}
