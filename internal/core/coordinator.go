// Package core implements the Skalla coordinator: Alg. GMDJDistribEval of
// Sect. 3. The coordinator compiles a distributed plan (internal/plan),
// drives the per-round exchange with the sites (internal/transport), and
// synchronizes the sites' sub-aggregate relations into the base-result
// structure X per Theorem 1, recording the full cost breakdown
// (internal/stats).
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"skalla/internal/distrib"
	"skalla/internal/engine"
	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/plan"
	"skalla/internal/relation"
	"skalla/internal/stats"
	"skalla/internal/transport"
)

// Coordinator executes complex GMDJ expressions against a set of Skalla
// sites.
type Coordinator struct {
	sites     []transport.Site
	cat       *distrib.Catalog
	net       stats.NetModel
	blockRows int
	trace     *obs.TraceWriter // nil = no trace lines
	retry     RetryPolicy
	slowQuery time.Duration
	memBudget int64        // per-query coordinator memory budget (0 = off)
	admit     *admission   // nil = admission control off
	plans     *planCache   // nil = plan caching off
	results   *resultCache // nil = result caching off
	flights   *flightGroup // nil = single-flight collapsing off
}

// New creates a coordinator. cat may be nil (no distribution knowledge); net
// may be the zero model (no modeled communication time).
func New(sites []transport.Site, cat *distrib.Catalog, net stats.NetModel) (*Coordinator, error) {
	if len(sites) == 0 {
		return nil, fmt.Errorf("core: coordinator needs at least one site")
	}
	return &Coordinator{sites: sites, cat: cat, net: net}, nil
}

// SetRowBlocking makes the sites return H_i in blocks of at most rows rows
// (Sect. 3.2 row blocking); the coordinator synchronizes blocks as they
// arrive in either mode. Zero (the default) ships each H_i whole.
func (c *Coordinator) SetRowBlocking(rows int) { c.blockRows = rows }

// SetTrace writes one line to w for every round start, site call, failed
// attempt and round end of the queries this coordinator runs (nil stops
// tracing). Tracing never changes plans or results.
func (c *Coordinator) SetTrace(w io.Writer) {
	c.trace = nil
	if w != nil {
		c.trace = obs.NewTraceWriter(w)
	}
}

// NumSites returns the number of attached sites.
func (c *Coordinator) NumSites() int { return len(c.sites) }

// Result is the outcome of one distributed evaluation.
type Result struct {
	// Rel holds the result: read it with Rows, AppendRow or Value. When the
	// shared-work layer is active (SetResultCache / SetSingleFlight) Rel is
	// this caller's own header over a body shared with other consumers:
	// KeepRows on it is private, but the vectors are read-only — Clone before
	// writing cells or appending rows.
	Rel     *relation.Relation
	Metrics *stats.Metrics
	Plan    *plan.Plan
	// Profile is the stitched per-round, per-site-call cost record of the
	// evaluation (also retained in obs.Profiles for /debug/queries); Metrics
	// is its view under the coordinator's network model.
	Profile *obs.QueryProfile
}

// schemaSource adapts site 0 into a gmdj.SchemaSource with caching, so
// planning can resolve detail schemas without repeated metadata calls.
type schemaSource struct {
	ctx  context.Context
	site transport.Site
	mu   sync.Mutex
	//skallavet:allow stringkey -- catalog cache keyed by relation name: one lookup per plan, not per tuple
	cache map[string]relation.Schema
}

func (s *schemaSource) DetailSchema(name string) (relation.Schema, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sch, ok := s.cache[name]; ok {
		return sch, nil
	}
	sch, err := s.site.DetailSchema(s.ctx, name)
	if err != nil {
		return nil, err
	}
	s.cache[name] = sch
	return sch, nil
}

// SchemaSource returns a caching schema source backed by the first site.
func (c *Coordinator) SchemaSource(ctx context.Context) gmdj.SchemaSource {
	//skallavet:allow stringkey -- catalog cache keyed by relation name: one lookup per plan, not per tuple
	return &schemaSource{ctx: ctx, site: c.sites[0], cache: make(map[string]relation.Schema)}
}

// PlanWith compiles the distributed plan for a query under a rule selection
// (including plan.SelectAuto, which picks rules per query from the cost
// model), without executing it.
func (c *Coordinator) PlanWith(ctx context.Context, q gmdj.Query, sel plan.Selection) (*plan.Plan, error) {
	pl, err := plan.Compile(q, c.SchemaSource(ctx), c.cat, len(c.sites), sel, plan.DefaultCostModel(c.net))
	if err != nil {
		return nil, err
	}
	recordPlanObs(pl)
	return pl, nil
}

// recordPlanObs records the chosen plan's rule applications and cost
// estimate (auto-mode candidates that lost the enumeration are not counted).
func recordPlanObs(pl *plan.Plan) {
	for _, r := range pl.Rules {
		obs.PlanRulesApplied.With(r).Inc()
	}
	obs.PlanCostEstimate.With("down").Set(pl.Estimate.BytesDown)
	obs.PlanCostEstimate.With("up").Set(pl.Estimate.BytesUp)
}

// ExecuteWith evaluates a complex GMDJ expression under a rule selection.
func (c *Coordinator) ExecuteWith(ctx context.Context, q gmdj.Query, sel plan.Selection) (*Result, error) {
	src := c.SchemaSource(ctx)
	pl, err := plan.Compile(q, src, c.cat, len(c.sites), sel, plan.DefaultCostModel(c.net))
	if err != nil {
		return nil, err
	}
	recordPlanObs(pl)
	return c.ExecutePlan(ctx, pl, src)
}

// ExecutePlan runs a pre-compiled plan. A query ID is drawn from ctx (or
// generated) and propagated to every site call, so site-side logs and metrics
// correlate with the coordinator's rounds; the whole evaluation is recorded
// as an obs query span. When admission control is configured (SetAdmission)
// the evaluation first takes an execution slot — possibly waiting in the
// bounded queue, with the wait recorded as the profile's QueueTime — and a
// full queue fails the query with ErrAdmissionReject before any site work.
//
// When the shared-work layer is active (SetResultCache / SetSingleFlight)
// and the plan carries a fingerprint, the execution may be served from the
// super-aggregate result cache or collapsed onto a concurrent execution of
// the same fingerprint (see shared.go); either way the caller receives its
// own result header — over read-only rows it shares with the other
// consumers, so Clone before editing them — and a profile attributed in
// QueryProfile.Shared.
func (c *Coordinator) ExecutePlan(ctx context.Context, pl *plan.Plan, src gmdj.SchemaSource) (*Result, error) {
	if pl.Fingerprint != "" && (c.results != nil || c.flights != nil) {
		return c.executeShared(ctx, pl, src)
	}
	return c.executeUnshared(ctx, pl, src)
}

// executeUnshared is the plain execution path: one admission slot, one span,
// one set of distributed rounds, profile finished and attached.
func (c *Coordinator) executeUnshared(ctx context.Context, pl *plan.Plan, src gmdj.SchemaSource) (*Result, error) {
	res, prof, err := c.executeSpanned(ctx, pl, src)
	c.finishProfile(prof, pl, res)
	return res, err
}

// executeSpanned runs the admission wait, the query span, and the distributed
// rounds, returning the unfinished profile so callers (the plain path and the
// single-flight leader) can attribute it before it lands in the ring.
func (c *Coordinator) executeSpanned(ctx context.Context, pl *plan.Plan, src gmdj.SchemaSource) (*Result, *obs.QueryProfile, error) {
	queued, err := c.admit.acquire(ctx)
	if err != nil {
		return nil, nil, err
	}
	defer c.admit.release()
	qid := obs.QueryIDFrom(ctx)
	if qid == "" {
		qid = obs.NewQueryID()
		ctx = obs.WithQueryID(ctx, qid)
	}
	span := obs.StartQuery(qid, c.trace)
	res, err := c.executePlan(ctx, pl, src, span)
	prof := span.End(err)
	prof.QueueTime = queued
	return res, prof, err
}

func (c *Coordinator) executePlan(ctx context.Context, pl *plan.Plan, src gmdj.SchemaSource, span *obs.QuerySpan) (*Result, error) {
	segs, err := buildSegments(pl.Query, src, len(pl.Keys()))
	if err != nil {
		return nil, err
	}
	mg, err := newMerger(pl.Keys(), pl.XSchemas, segs, newMemBudget(c.memBudget))
	if err != nil {
		return nil, err
	}
	for _, r := range pl.Steps {
		if r.Observed > 0 {
			mg.KeepTouched(r.Observed-1, len(c.sites))
		}
	}

	for _, r := range pl.Steps {
		switch r.Kind {
		case plan.RoundBase:
			err = c.baseRound(ctx, pl, mg, span, r)
		case plan.RoundOperator:
			err = c.operatorRound(ctx, pl, mg, span, r)
		default:
			err = c.localRound(ctx, pl, mg, span, r)
		}
		if err != nil {
			return nil, err
		}
	}

	final, err := mg.Finalize(gmdj.FinalColumns(pl.Query))
	if err != nil {
		return nil, err
	}
	return &Result{Rel: final, Plan: pl}, nil
}

// siteResult is one site's response within a round.
type siteResult struct {
	rel  *relation.Relation
	call stats.Call
	err  error
}

// broadcast runs f against every site in parallel — each site call under the
// coordinator's retry policy — gathers the results in site order and records
// the successful calls on the round span in that order, even when the
// broadcast fails: the traffic did happen. Cancellation wins: a cancelled
// context is reported as ctx.Err() once all calls have returned, ahead of any
// per-site error.
func (c *Coordinator) broadcast(ctx context.Context, rs *obs.RoundSpan, f func(ctx context.Context, i int, s transport.Site) (*relation.Relation, stats.Call, error)) ([]siteResult, error) {
	results := make([]siteResult, len(c.sites))
	if err := ctx.Err(); err != nil {
		return results, err
	}
	var wg sync.WaitGroup
	for i, s := range c.sites {
		wg.Add(1)
		go func(i int, s transport.Site) {
			defer wg.Done()
			err := c.withRetry(ctx, rs, i, func(actx context.Context) (stats.Call, error) {
				rel, call, err := f(actx, i, s)
				results[i] = siteResult{rel: rel, call: call, err: err}
				return call, err
			})
			results[i].err = err
		}(i, s)
	}
	wg.Wait()
	for _, r := range results {
		if r.err == nil {
			rs.Call(r.call)
		}
	}
	if err := ctx.Err(); err != nil {
		return results, err
	}
	for _, r := range results {
		if r.err != nil {
			return results, r.err
		}
	}
	return results, nil
}

// baseRound is round 0 of the unreduced algorithm: every site computes its
// base-values fragment B_i; the coordinator de-duplicates their union into
// X_0.
func (c *Coordinator) baseRound(ctx context.Context, pl *plan.Plan, mg *merger, span *obs.QuerySpan, r plan.Round) error {
	rs := span.StartRound(r.Name, 0)
	ctx = obs.WithRound(ctx, r.Name)
	results, err := c.broadcast(ctx, rs, func(ctx context.Context, _ int, s transport.Site) (*relation.Relation, stats.Call, error) {
		return s.EvalBase(ctx, pl.Query.Base)
	})
	coordStart := time.Now()
	if err == nil {
		parts := make([]*relation.Relation, len(results))
		for i, r := range results {
			parts[i] = r.rel
		}
		err = mg.InitBase(parts...)
	}
	coordTime := time.Since(coordStart)
	rs.ObserveMerge(coordTime)
	rs.End(coordTime)
	return err
}

// localRound ships the query prefix MD1..MD(r.UpTo) to every site for local
// evaluation and merges the returned X fragments (synchronization-reduced
// rounds of Prop. 2 / Thm. 5 / Cor. 1). Under a witness (Prop. 2 over a
// filtered base) the sites evaluate their unfiltered bases and count the
// base filter's rows per group, and the merge keeps the groups whose counts
// sum to a positive total.
func (c *Coordinator) localRound(ctx context.Context, pl *plan.Plan, mg *merger, span *obs.QuerySpan, r plan.Round) error {
	rs := span.StartRound(r.Name, 0)
	ctx = obs.WithRound(ctx, r.Name)
	req := engine.LocalRequest{Query: pl.Query, UpTo: r.UpTo, Witness: r.Witness}
	results, err := c.broadcast(ctx, rs, func(ctx context.Context, _ int, s transport.Site) (*relation.Relation, stats.Call, error) {
		return s.EvalLocal(ctx, req)
	})
	coordStart := time.Now()
	if err == nil {
		parts := make([]*relation.Relation, len(results))
		for i, res := range results {
			parts[i] = res.rel
		}
		err = mg.MergeLocal(pl.Query.Ops[:r.UpTo], r.Witness, parts)
		rs.ObserveMerge(time.Since(coordStart))
	}
	rs.End(time.Since(coordStart))
	return err
}

// operatorRound is one round of Alg. GMDJDistribEval for operator k: the
// coordinator ships the base-result structure — projected onto the key
// attributes and the columns operator k's conditions read, and reduced per
// Thm. 4 when a reducer is available, and to the rows the site reported in
// the round r.Observed names — to each site, the sites compute
// sub-aggregates (guard-filtered per Prop. 1 when enabled), and the
// coordinator synchronizes the H_i into X. A site whose fragment holds no row
// gets no call: its H_i is empty, and its empty stage commits as any other.
//
// When the rows are bounded by the local round's replies, each site's
// fragment follows its own reply's order, and where the plan lets the sites
// derive the keys (plan.Plan.DerivedFrom) it ships no keys: an
// engine.Derive names the reply's rows it keeps, and the site rebuilds their
// keys from its partition. A site whose partition changed since the local
// round refuses (engine.ErrStalePartition), and the query fails unretried.
//
// Synchronization is streaming (Sect. 3.2) and fault-tolerant: each site's
// H_i blocks — as they arrive, while slower sites are still computing — are
// validated and staged in a per-site buffer, and a completed stream is
// committed into X with one O(|H_i|) merge addressed by the rows' ordinals in
// the shipped fragment. Staging is what makes the per-site retry policy
// sound: a stream that dies after partial blocks is discarded whole and
// re-run without double-counting into X.
//
// Stages commit in site order: site i's as soon as sites 0..i-1 have
// committed, while later sites still stream. Every X row thus folds its
// sites in index order, so FLOAT super-aggregates come out bit-identical
// run to run, however the streams' completion order falls.
func (c *Coordinator) operatorRound(ctx context.Context, pl *plan.Plan, mg *merger, span *obs.QuerySpan, r plan.Round) error {
	k, reducers := r.UpTo-1, r.Reducers
	var (
		observed [][]int32
		replies  [][]int64
	)
	if src, ok := pl.ObservedSource(r); ok && src.Kind == plan.RoundOperator {
		observed = mg.Touched(r.Observed - 1)
	} else if ok {
		replies = mg.Replies()
	}
	op := pl.Query.Ops[k]
	x := mg.X()
	rs := span.StartRound(r.Name, x.Len())
	ctx = obs.WithRound(ctx, r.Name)
	cols, err := op.ShippedColumns(x.Schema, pl.Keys())
	if err != nil {
		return err
	}
	// values are the shipped columns other than the keys, which lead X; a
	// derived request's template names the keys and the filter the local
	// round's base pass applied, none when it was witnessed.
	values := cols[len(pl.Keys()):]
	var derive *engine.Derive
	if local, ok := pl.DerivedFrom(r); ok {
		derive = &engine.Derive{Keys: pl.Keys()}
		if !local.Witness {
			derive.Where = pl.Query.Base.Where
		}
	}

	// Extend X with the operator's identity columns before any stage lands,
	// and, when every site gets all of X, build the one fragment they share.
	var coordTime time.Duration
	t0 := time.Now()
	if err := mg.Extend(); err != nil {
		return err
	}
	var whole *relation.Relation
	if reducers == nil && replies == nil {
		whole = mg.Fragment(cols, nil)
	}
	coordTime += time.Since(t0)

	// ready[i] carries site i's completed stage, or closes empty if the site
	// failed; errs[i] and calls[i] are written before either.
	ready := make([]chan *hStage, len(c.sites))
	calls := make([]stats.Call, len(c.sites))
	errs := make([]error, len(c.sites))
	skipped := make([]bool, len(c.sites))
	for i, s := range c.sites {
		ready[i] = make(chan *hStage, 1)
		go func(i int, s transport.Site) {
			defer close(ready[i])
			// Thm. 4 fragment reduction runs here, in each site's own
			// goroutine, so the O(sites × |X|) predicate evaluation
			// parallelizes instead of serializing the round's start. It reads
			// X as it was before Extend, through one scratch row — the merges
			// running meanwhile write only operator k's cells, which that X
			// does not hold — and runs once: every retry ships the same
			// fragment and maps ordinals through the same kept. An observed
			// reduction narrows the rows it tests to those the site reported;
			// a site that reported every row of a guarded round gets the
			// shared fragment.
			frag, kept := whole, []int32(nil)
			var siteDerive *engine.Derive
			switch {
			case replies != nil:
				var keep distrib.ReductionPred
				if reducers != nil {
					keep = reducers[i]
				}
				var bitmap []byte
				if kept, bitmap, errs[i] = replyRows(x, keep, replies[i]); errs[i] != nil {
					return
				}
				// A frame without columns holds at most relation.MaxEmptyRows
				// rows; past that the keys ship.
				if derive != nil && (len(values) > 0 || len(kept) <= relation.MaxEmptyRows) {
					d := *derive
					d.Rows, d.Kept = len(replies[i]), bitmap
					frag, siteDerive = mg.Fragment(values, kept), &d
				} else {
					frag = mg.Fragment(cols, kept)
				}
			case reducers != nil:
				var from []int32
				if observed != nil {
					from = observed[i]
				}
				if kept, errs[i] = reduceRows(x, reducers[i], from); errs[i] != nil {
					return
				}
				frag = mg.Fragment(cols, kept)
			case observed != nil && len(observed[i]) < x.Len():
				kept = observed[i]
				frag = mg.Fragment(cols, kept)
			}
			if frag.Len() == 0 {
				// No X row for the site to match: its H_i is empty without
				// asking, and its empty stage commits as any other, so a later
				// observed reduction ships it nothing either.
				skipped[i] = true
				ready[i] <- mg.NewStage(k, 0, kept)
				return
			}
			req := engine.OperatorRequest{
				Base:      frag,
				Op:        op,
				Guard:     r.Guard,
				BlockRows: c.blockRows,
				Derive:    siteDerive,
			}
			var done *hStage
			errs[i] = c.withRetry(ctx, rs, i, func(actx context.Context) (stats.Call, error) {
				st := mg.NewStage(k, frag.Len(), kept)
				call, err := s.EvalOperatorStream(actx, req, func(block *relation.Relation) error {
					// End a cancelled query's streams promptly instead of
					// computing and staging the rest for nothing.
					if err := ctx.Err(); err != nil {
						return err
					}
					if err := st.Add(block); err != nil {
						return &permanentError{err}
					}
					return nil
				})
				calls[i] = call
				if err != nil {
					st.Discard()
					if errors.Is(err, engine.ErrStalePartition) {
						err = &permanentError{err}
					}
					return call, err
				}
				done = st
				return call, nil
			})
			if errs[i] == nil {
				ready[i] <- done
			}
		}(i, s)
	}

	// Commit in site order. Every site's channel closes, so the loop ends;
	// after a failure or cancellation it only drains and discards.
	var mergeErr error
	for i, ch := range ready {
		for st := range ch {
			if mergeErr != nil || ctx.Err() != nil {
				st.Discard()
				continue
			}
			t0 := time.Now()
			if mergeErr = mg.CommitStage(st, k); mergeErr == nil {
				mergeErr = mg.RecordTouched(k, i, st)
			}
			d := time.Since(t0)
			coordTime += d
			rs.ObserveMerge(d)
		}
	}

	t0 = time.Now()
	err = ctx.Err()
	if err == nil {
		for _, e := range errs {
			if e != nil {
				err = e
				break
			}
		}
	}
	if err == nil {
		err = mergeErr
	}
	if err == nil {
		mg.RecomputeDerived(k, k+1)
	}
	coordTime += time.Since(t0)
	// A site whose errs entry is set made no successful call: its failed
	// attempts are already on the span (withRetry), or it failed before
	// calling (a reducer error). A skipped site made none at all.
	for i, call := range calls {
		if errs[i] == nil && !skipped[i] {
			rs.Call(call)
		}
	}
	rs.End(coordTime)
	return err
}

// replyRows returns, in reply order, the X rows of a site's local reply rows
// (at, -1 for a row X dropped) that keep admits (all of them when keep is
// nil), and marks those reply rows in a bitmap, bit i of byte i/8 for row i.
func replyRows(x *relation.Relation, keep distrib.ReductionPred, at []int64) ([]int32, []byte, error) {
	kept := make([]int32, 0, len(at))
	bitmap := make([]byte, (len(at)+7)/8)
	var row relation.Tuple
	for i, xi := range at {
		if xi < 0 {
			continue
		}
		if keep != nil {
			row = x.AppendRow(row[:0], int(xi))
			ok, err := keep(row)
			if err != nil {
				return nil, nil, err
			}
			if !ok {
				continue
			}
		}
		kept = append(kept, int32(xi))
		bitmap[i>>3] |= 1 << (i & 7)
	}
	return kept, bitmap, nil
}

// reduceRows returns the X rows keep admits, among those listed (ascending),
// or among all of X when rows is nil.
func reduceRows(x *relation.Relation, keep distrib.ReductionPred, rows []int32) ([]int32, error) {
	n := x.Len()
	if rows != nil {
		n = len(rows)
	}
	kept := make([]int32, 0, n/2+1)
	var row relation.Tuple
	for j := 0; j < n; j++ {
		xi := int32(j)
		if rows != nil {
			xi = rows[j]
		}
		row = x.AppendRow(row[:0], int(xi))
		ok, err := keep(row)
		if err != nil {
			return nil, err
		}
		if ok {
			kept = append(kept, xi)
		}
	}
	return kept, nil
}
