package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"skalla/internal/agg"
	"skalla/internal/engine"
	"skalla/internal/gmdj"
	"skalla/internal/relation"
	"skalla/internal/transport"
)

// Relay is an intermediate aggregation node realizing the multi-tiered
// coordinator architecture the paper lists as future work (Sect. 6): it
// appears to its parent (the root coordinator or another relay) as a single
// site, fans every request out to its children, and pre-merges their
// sub-aggregate results before answering. A two-tier deployment of n sites
// behind k relays cuts the root's fan-in from n to k and moves (n/k - 1)/n
// of the synchronization work down the tree.
//
// Relay implements transport.Backend, so it slots in anywhere a site engine
// does: wrap it in transport.NewLocalSite for an in-process tier, or serve
// it with transport.Serve to run a mid-tier aggregation process whose
// children are TCP connections to the leaf sites.
type Relay struct {
	id       int
	children []transport.Site

	mu sync.Mutex
	//skallavet:allow stringkey -- catalog cache keyed by relation name: one lookup per operator round
	schema map[string]relation.Schema
}

// NewRelay creates a relay over child sites.
func NewRelay(id int, children []transport.Site) (*Relay, error) {
	if len(children) == 0 {
		return nil, fmt.Errorf("core: relay needs at least one child")
	}
	//skallavet:allow stringkey -- catalog cache keyed by relation name: one lookup per operator round
	return &Relay{id: id, children: children, schema: make(map[string]relation.Schema)}, nil
}

// ID implements transport.Backend.
func (r *Relay) ID() int { return r.id }

// Load implements transport.Backend: relays hold no data.
func (r *Relay) Load(context.Context, string, *relation.Relation) error {
	return fmt.Errorf("core: relay %d holds no data; load the leaf sites", r.id)
}

// DetailSchema implements transport.Backend with caching.
func (r *Relay) DetailSchema(ctx context.Context, name string) (relation.Schema, error) {
	r.mu.Lock()
	if s, ok := r.schema[name]; ok {
		r.mu.Unlock()
		return s, nil
	}
	r.mu.Unlock()
	s, err := r.children[0].DetailSchema(ctx, name)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.schema[name] = s
	r.mu.Unlock()
	return s, nil
}

// Tables implements transport.Backend: the union of the children's
// inventories with row counts summed per relation.
func (r *Relay) Tables(ctx context.Context) []engine.TableInfo {
	//skallavet:allow stringkey -- inventory merge keyed by relation name: metadata call, sites x relations entries
	totals := make(map[string]engine.TableInfo)
	for _, c := range r.children {
		infos, err := c.Tables(ctx)
		if err != nil {
			continue
		}
		for _, ti := range infos {
			cur := totals[ti.Name]
			cur.Name = ti.Name
			cur.Columns = ti.Columns
			cur.Rows += ti.Rows
			totals[ti.Name] = cur
		}
	}
	out := make([]engine.TableInfo, 0, len(totals))
	for _, ti := range totals {
		out = append(out, ti)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// fanOut runs f against every child in parallel and gathers results. The
// first child error cancels the context handed to the rest of the fan-out,
// so one failed leaf does not leave its siblings computing for a dead round.
func (r *Relay) fanOut(ctx context.Context, f func(context.Context, transport.Site) (*relation.Relation, error)) ([]*relation.Relation, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	rels := make([]*relation.Relation, len(r.children))
	errs := make([]error, len(r.children))
	var wg sync.WaitGroup
	for i, c := range r.children {
		wg.Add(1)
		go func(i int, c transport.Site) {
			defer wg.Done()
			rels[i], errs[i] = f(ctx, c)
			if errs[i] != nil {
				cancel()
			}
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rels, nil
}

// EvalBase implements transport.Backend: the union of the children's
// base-values fragments, de-duplicated (the projection columns form the
// key, so set union is exact and shrinks the upward traffic).
func (r *Relay) EvalBase(ctx context.Context, bq gmdj.BaseQuery) (*relation.Relation, error) {
	parts, err := r.fanOut(ctx, func(ctx context.Context, c transport.Site) (*relation.Relation, error) {
		rel, _, err := c.EvalBase(ctx, bq)
		return rel, err
	})
	if err != nil {
		return nil, err
	}
	out := parts[0]
	for _, p := range parts[1:] {
		if err := out.Union(p); err != nil {
			return nil, err
		}
	}
	if err := out.DedupBy(out.Schema.Names()); err != nil {
		return nil, err
	}
	return out, nil
}

// EvalOperatorBlocks implements transport.Backend: the request goes to every
// child unchanged — so a row ordinal means the same fragment row in all of
// their H_i — and the H_i are merged by ordinal with the super-aggregates
// (Theorem 1 applied at the tier), then emitted in blocks. The merged relation
// is a valid sub-aggregate of the relay's whole subtree.
func (r *Relay) EvalOperatorBlocks(ctx context.Context, req engine.OperatorRequest, emit func(*relation.Relation) error) error {
	if req.Base == nil {
		return fmt.Errorf("core: relay: operator request without base relation")
	}
	detail, err := r.DetailSchema(ctx, req.Op.Detail)
	if err != nil {
		return err
	}
	layouts := make([]*agg.Layout, len(req.Op.Vars))
	for i, v := range req.Op.Vars {
		if layouts[i], err = agg.NewLayout(v.Aggs, detail); err != nil {
			return err
		}
	}
	parts, err := r.fanOut(ctx, func(ctx context.Context, c transport.Site) (*relation.Relation, error) {
		rel, _, err := transport.CollectOperator(ctx, c, req)
		return rel, err
	})
	if err != nil {
		return err
	}
	merged, err := mergeSubAggregates(req.Base.Len(), layouts, parts)
	if err != nil {
		return err
	}
	return emitBlocks(merged, req.BlockRows, emit)
}

// EvalLocal implements transport.Backend: the children's locally evaluated X
// prefixes are merged exactly as the root coordinator would merge them.
func (r *Relay) EvalLocal(ctx context.Context, req engine.LocalRequest) (*relation.Relation, error) {
	schemas := gmdj.SchemaSourceFunc(func(name string) (relation.Schema, error) {
		return r.DetailSchema(ctx, name)
	})
	xs, err := gmdj.XSchemas(req.Query, schemas)
	if err != nil {
		return nil, err
	}
	segs, err := buildSegments(req.Query, schemas, len(req.Query.Keys()))
	if err != nil {
		return nil, err
	}
	if req.UpTo < 0 || req.UpTo >= len(xs) {
		return nil, fmt.Errorf("core: relay: prefix %d out of range", req.UpTo)
	}
	parts, err := r.fanOut(ctx, func(ctx context.Context, c transport.Site) (*relation.Relation, error) {
		rel, _, err := c.EvalLocal(ctx, req)
		return rel, err
	})
	if err != nil {
		return nil, err
	}
	// The relay merges child fragments unbudgeted: the per-query memory
	// budget is the root coordinator's concern, not the interior tier's.
	m := newMerger(req.Query.Keys(), xs, segs, nil)
	if err := m.InitLocal(req.UpTo); err != nil {
		return nil, err
	}
	for _, p := range parts {
		if err := m.MergeLocal(p); err != nil {
			return nil, err
		}
	}
	m.RecomputeDerived(req.UpTo)
	return m.X(), nil
}

// mergeSubAggregates merges per-child H relations (the row ordinal in a
// fragment of fragRows rows, followed by the operator's physical columns) into
// one H by ordinal, applying the super-aggregate of each physical column. Rows
// come out in the order their ordinals were first seen.
func mergeSubAggregates(fragRows int, layouts []*agg.Layout, parts []*relation.Relation) (*relation.Relation, error) {
	width := 0
	for _, l := range layouts {
		width += len(l.Phys)
	}
	out := relation.New(parts[0].Schema)
	at := make([]int32, fragRows) // ordinal → its row in out, plus one
	for _, p := range parts {
		if !p.Schema.Equal(out.Schema) {
			return nil, fmt.Errorf("core: relay: child H schema %s, want %s", p.Schema, out.Schema)
		}
		if err := validateH(p, width); err != nil {
			return nil, fmt.Errorf("core: relay: %w", err)
		}
		seen := newOrdinalSet(fragRows)
		for _, row := range p.Tuples {
			ord, err := seen.claim(row)
			if err != nil {
				return nil, fmt.Errorf("core: relay: %w", err)
			}
			if at[ord] == 0 {
				out.Tuples = append(out.Tuples, row.Clone())
				at[ord] = int32(len(out.Tuples))
				continue
			}
			target := out.Tuples[at[ord]-1]
			cursor := 1
			for _, l := range layouts {
				n := len(l.Phys)
				if err := l.MergePhys(target[cursor:cursor+n], row[cursor:cursor+n]); err != nil {
					return nil, err
				}
				cursor += n
			}
		}
	}
	return out, nil
}

// emitBlocks chunks a relation per the row-blocking request.
func emitBlocks(rel *relation.Relation, blockRows int, emit func(*relation.Relation) error) error {
	if blockRows <= 0 || rel.Len() <= blockRows {
		return emit(rel)
	}
	for start := 0; start < rel.Len(); start += blockRows {
		end := start + blockRows
		if end > rel.Len() {
			end = rel.Len()
		}
		block := &relation.Relation{Schema: rel.Schema, Tuples: rel.Tuples[start:end]}
		if err := emit(block); err != nil {
			return err
		}
	}
	return nil
}
