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
	"fmt"
	"sort"
	"sync"

	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/relation"
)

// Site is one local data warehouse. Partitions are served through the
// gmdj.RowSource interface, so a site can hold them in memory (Load) or on
// disk (LoadSource with a store.Table) interchangeably.
type Site struct {
	id int

	mu sync.RWMutex
	//skallavet:allow stringkey -- table catalog keyed by relation name: one lookup per evaluation, not per tuple
	tables  map[string]gmdj.RowSource
	useHash bool
	workers int
}

// NewSite creates an empty site.
func NewSite(id int) *Site {
	//skallavet:allow stringkey -- table catalog keyed by relation name: one lookup per evaluation, not per tuple
	return &Site{id: id, tables: make(map[string]gmdj.RowSource), useHash: true}
}

// ID returns the site identifier.
func (s *Site) ID() int { return s.id }

// SetUseHash toggles the hash-grouping fast path for local GMDJ evaluation
// (on by default); the nested-loop fallback is kept for cross-checking.
func (s *Site) SetUseHash(v bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.useHash = v
}

// SetWorkers sets the evaluation worker count: 0 (the default) picks
// automatically from GOMAXPROCS and partition size, 1 forces sequential
// evaluation, n > 1 requests exactly n scan shards (capped by what the
// sources can split into).
func (s *Site) SetWorkers(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.workers = n
}

// Load installs (or replaces) the local partition of a detail relation as an
// in-memory source. The relation is snapshotted as it is now — its rows, and
// a columnar image of them for the compiled scan kernels: rows the caller
// appends to rel afterwards are not served.
func (s *Site) Load(_ context.Context, name string, rel *relation.Relation) error {
	if rel == nil {
		return fmt.Errorf("engine: nil relation %q", name)
	}
	return s.LoadSource(name, newMemPartition(rel))
}

// LoadSource installs (or replaces) the local partition of a detail relation
// behind any scannable source — e.g. a disk-backed store.Table, which keeps
// the site's memory bounded regardless of partition size.
func (s *Site) LoadSource(name string, src gmdj.RowSource) error {
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
// catalog (map copied, sources shared) plus the evaluation knobs. Evaluations
// resolve every detail relation against the snapshot, so a concurrent
// LoadSource can neither swap a RowSource out from under an in-flight scan
// nor let two resolutions of the same name observe different sources
// mid-query.
type snapshot struct {
	siteID int
	//skallavet:allow stringkey -- catalog snapshot keyed by relation name: one lookup per evaluation, not per tuple
	tables  map[string]gmdj.RowSource
	useHash bool
	workers int
}

func (s *Site) snapshot() snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	//skallavet:allow stringkey -- catalog snapshot keyed by relation name: one lookup per evaluation, not per tuple
	tables := make(map[string]gmdj.RowSource, len(s.tables))
	for n, src := range s.tables {
		tables[n] = src
	}
	return snapshot{siteID: s.id, tables: tables, useHash: s.useHash, workers: s.workers}
}

// DetailSource implements gmdj.DataSource over the snapshot.
func (sn snapshot) DetailSource(name string) (gmdj.RowSource, error) {
	src, ok := sn.tables[name]
	if !ok {
		return nil, fmt.Errorf("engine: site %d has no relation %q", sn.siteID, name)
	}
	return src, nil
}

// DetailSchema implements gmdj.SchemaSource over the snapshot.
func (sn snapshot) DetailSchema(name string) (relation.Schema, error) {
	src, err := sn.DetailSource(name)
	if err != nil {
		return nil, err
	}
	return src.Schema(), nil
}

// DetailSource returns the local partition of a detail relation.
func (s *Site) DetailSource(name string) (gmdj.RowSource, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	src, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("engine: site %d has no relation %q", s.id, name)
	}
	return src, nil
}

// DetailSchema implements transport.Backend. Catalog lookups are local map
// reads; the context is accepted for interface symmetry.
func (s *Site) DetailSchema(_ context.Context, name string) (relation.Schema, error) {
	src, err := s.DetailSource(name)
	if err != nil {
		return nil, err
	}
	return src.Schema(), nil
}

// source adapts the site to gmdj.DataSource: the gmdj evaluator's interfaces
// stay context-free (they are pure catalog/scan surfaces), so conformance
// goes through this adapter rather than the Backend-facing methods.
type source struct{ site *Site }

func (ss source) DetailSchema(name string) (relation.Schema, error) {
	src, err := ss.site.DetailSource(name)
	if err != nil {
		return nil, err
	}
	return src.Schema(), nil
}

func (ss source) DetailSource(name string) (gmdj.RowSource, error) {
	return ss.site.DetailSource(name)
}

// Source exposes the site's partitions as a gmdj.DataSource (planning and
// validation helpers program against that interface).
func (s *Site) Source() gmdj.DataSource { return source{site: s} }

// EvalBase computes the site's fragment B_i of the base-values relation.
func (s *Site) EvalBase(ctx context.Context, bq gmdj.BaseQuery) (*relation.Relation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	obs.EngineEvals.With("base").Inc()
	rec := obs.RecorderFrom(ctx)
	rec.SetWorkers(1)
	snap := s.snapshot()
	detail, err := snap.DetailSource(bq.Detail)
	if err != nil {
		return nil, err
	}
	return gmdj.EvalBaseWorkers(bq, instrument(detail, rec), snap.workers)
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
	if err := ctx.Err(); err != nil {
		return err
	}
	obs.EngineEvals.With("operator").Inc()
	rec := obs.RecorderFrom(ctx)
	rec.SetWorkers(1)
	if req.Base == nil {
		return fmt.Errorf("engine: operator request without base relation")
	}
	snap := s.snapshot()
	detail, err := snap.DetailSource(req.Op.Detail)
	if err != nil {
		return err
	}

	acc, err := gmdj.AccumulateOperatorWorkers(req.Base, req.Op, instrument(detail, rec), snap.useHash, snap.workers)
	if err != nil {
		return err
	}

	// Stream the accumulated evaluation as H_i blocks: guard filtering and row
	// blocking per the request. The rows to emit are counted first, so every
	// block is sized exactly and its rows are carved from one Value slab —
	// only the rows the guard lets through are ever boxed.
	physSchema, err := acc.PhysSchema()
	if err != nil {
		return err
	}
	hSchema, err := HSchema(physSchema)
	if err != nil {
		return err
	}
	remaining := len(req.Base.Tuples)
	if req.Guard {
		remaining = 0
		for _, t := range acc.Touched {
			if t {
				remaining++
			}
		}
	}
	flush := func(block *relation.Relation) error {
		// Block boundaries are the cancellation points of a streamed
		// evaluation: a canceled coordinator stops the stream here instead of
		// computing every remaining block.
		if err := ctx.Err(); err != nil {
			return err
		}
		obs.EngineBlocks.Inc()
		rec.AddBlocks(1)
		return emit(block)
	}
	if remaining == 0 {
		return flush(relation.New(hSchema))
	}
	w := len(hSchema)
	var block *relation.Relation
	var slab []relation.Value
	for i := range req.Base.Tuples {
		if req.Guard && !acc.Touched[i] {
			continue
		}
		if block == nil {
			rows := remaining
			if req.BlockRows > 0 && rows > req.BlockRows {
				rows = req.BlockRows
			}
			block = &relation.Relation{Schema: hSchema, Tuples: make([]relation.Tuple, 0, rows)}
			slab = make([]relation.Value, rows*w)
		}
		off := len(block.Tuples) * w
		row := slab[off : off+1 : off+w]
		row[0] = relation.NewInt(int64(i))
		block.Tuples = append(block.Tuples, acc.AppendPhysRow(row, i))
		remaining--
		if len(block.Tuples) < cap(block.Tuples) {
			continue
		}
		if err := flush(block); err != nil {
			return err
		}
		block = nil
	}
	return nil
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
}

// EvalLocal evaluates a query prefix over the local partition. No guard
// filtering is applied: under synchronization reduction the returned rows
// are the sole carriers of group membership, so dropping untouched groups
// would lose them.
func (s *Site) EvalLocal(ctx context.Context, req LocalRequest) (*relation.Relation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	obs.EngineEvals.With("local").Inc()
	rec := obs.RecorderFrom(ctx)
	rec.SetWorkers(1)
	// One snapshot covers validation and every evaluation stage: a concurrent
	// LoadSource cannot make the base query and a later operator see
	// different generations of the same detail relation.
	snap := s.snapshot()
	if err := req.Query.Validate(snap); err != nil {
		return nil, err
	}
	ds := recordedSnapshot{snapshot: snap, rec: rec}
	return gmdj.EvalPrefixXWorkers(req.Query, ds, req.UpTo, snap.useHash, snap.workers)
}
