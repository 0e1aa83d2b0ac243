// Package core implements the Skalla coordinator: Alg. GMDJDistribEval of
// Sect. 3. The coordinator compiles a distributed plan (internal/plan),
// drives the per-round exchange with the sites (internal/transport), and
// synchronizes the sites' sub-aggregate relations into the base-result
// structure X per Theorem 1, recording the full cost breakdown
// (internal/stats).
package core

import (
	"context"
	"fmt"
	"io"
	"slices"
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

	// lends keeps the round lends given back for a later round (giveBack).
	lends relation.FreeList[roundLend]
}

// New creates a coordinator. cat may be nil (no distribution knowledge); net
// may be the zero model (no modeled communication time).
func New(sites []transport.Site, cat *distrib.Catalog, net stats.NetModel) (*Coordinator, error) {
	if len(sites) == 0 {
		return nil, fmt.Errorf("core: coordinator needs at least one site")
	}
	c := &Coordinator{sites: sites, cat: cat, net: net}
	c.lends.New = func() *roundLend { return &roundLend{sites: make([]relation.Slabs, len(sites))} }
	return c, nil
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

// SchemaSource returns a caching schema source backed by the first site. Its
// calls are planning metadata, in no round of a profile, so they carry no
// query ID: their bytes are labelled query="none", as the hello's are.
func (c *Coordinator) SchemaSource(ctx context.Context) gmdj.SchemaSource {
	//skallavet:allow stringkey -- catalog cache keyed by relation name: one lookup per plan, not per tuple
	return &schemaSource{ctx: obs.WithQueryID(ctx, ""), site: c.sites[0], cache: make(map[string]relation.Schema)}
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
	mg, err := planMerger(pl, src, len(c.sites), newMemBudget(c.memBudget))
	if err != nil {
		return nil, err
	}
	for _, r := range pl.Steps {
		if r.Kind == plan.RoundOperator {
			err = c.operatorRound(ctx, pl, mg, span, r)
		} else {
			err = c.localRound(ctx, pl, mg, span, r)
		}
		if err != nil {
			return nil, err
		}
	}

	// The result shares X's vectors.
	final, err := mg.X().Project(gmdj.FinalColumns(pl.Query))
	if err != nil {
		return nil, err
	}
	return &Result{Rel: final, Plan: pl}, nil
}

// fanOut runs one round at every site, each site in its own goroutine:
// prepare(i) (nil: every site calls) readies site i's part and reports
// whether the site is called at all, and attempt is one try of site i's call,
// made under the coordinator's retry policy, its replies decoded into site
// i's slabs of lend, reset before every try: a failed attempt's replies are
// dropped with it. commit(i) (nil: none) takes site
// i's part — a site that was not called included — on the caller's
// goroutine, in site order: site i's as soon as sites 0..i-1 have committed,
// while later sites still run; after a failure or a cancellation nothing more
// commits. The successful calls are recorded on the round span in site order
// as the sites return, even when the round fails: the traffic did happen. A
// cancelled context is reported as ctx.Err() once every site has returned,
// ahead of the first site error in site order, ahead of the first commit
// error.
func (c *Coordinator) fanOut(ctx context.Context, rs *obs.RoundSpan, lend *roundLend,
	prepare func(i int) (call bool, err error),
	attempt func(ctx context.Context, i int, s transport.Site) (stats.Call, error),
	commit func(i int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	done := make([]chan struct{}, len(c.sites))
	calls := make([]stats.Call, len(c.sites))
	called := make([]bool, len(c.sites))
	errs := make([]error, len(c.sites))
	for i, s := range c.sites {
		done[i] = make(chan struct{})
		go func() {
			defer close(done[i])
			if prepare != nil {
				if call, err := prepare(i); err != nil || !call {
					errs[i] = err
					return
				}
			}
			slabs := &lend.sites[i]
			errs[i] = c.withRetry(ctx, rs, i, func(actx context.Context) (stats.Call, error) {
				slabs.Reset()
				var err error
				calls[i], err = attempt(transport.WithSlabs(actx, slabs), i, s)
				return calls[i], err
			})
			called[i] = errs[i] == nil
		}()
	}
	var commitErr error
	committing := commit != nil
	for i, ch := range done {
		<-ch
		if called[i] {
			rs.Call(calls[i])
		}
		committing = committing && errs[i] == nil && commitErr == nil && ctx.Err() == nil
		if committing {
			commitErr = commit(i)
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return commitErr
}

// localRound is a round the sites evaluate alone: the base round (round 0 of
// the unreduced algorithm), in which every site computes its base-values
// fragment B_i, or a local round, which ships the query prefix MD1..MD(r.UpTo)
// to every site (synchronization-reduced rounds of Prop. 2 / Thm. 5 /
// Cor. 1). The coordinator merges the returned fragments into X, the base
// round's as a local round's over no operator. Under a witness (Prop. 2 over
// a filtered base) the sites evaluate their unfiltered bases and count the
// base filter's rows per group, and the merge keeps the groups whose counts
// sum to a positive total.
func (c *Coordinator) localRound(ctx context.Context, pl *plan.Plan, mg *merger, span *obs.QuerySpan, r plan.Round) error {
	rs := span.StartRound(r.Name, 0)
	ctx = obs.WithRound(ctx, r.Name)
	req := engine.LocalRequest{Query: pl.Query, UpTo: r.UpTo, Witness: r.Witness}
	// The replies live in the round's lend until MergeLocal has built X.
	lend := c.lends.Get()
	defer c.giveBack(lend)
	parts := make([]*relation.Relation, len(c.sites))
	err := c.fanOut(ctx, rs, lend, nil, func(ctx context.Context, i int, s transport.Site) (call stats.Call, err error) {
		if r.Kind == plan.RoundBase {
			parts[i], call, err = s.EvalBase(ctx, pl.Query.Base)
		} else {
			parts[i], call, err = s.EvalLocal(ctx, req)
		}
		return call, err
	}, nil)
	var coordTime time.Duration
	if err == nil {
		t0 := time.Now()
		err = mg.MergeLocal(pl.Query.Ops[:r.UpTo], r.Witness, parts, lend)
		coordTime = time.Since(t0)
		rs.ObserveMerge(coordTime)
	}
	rs.End(coordTime)
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
// When the rows are bounded by an earlier round's answers, each site's
// fragment follows the order the site reported them in, and where the plan
// lets the sites derive the keys (plan.Plan.DerivedFrom) it ships no keys:
// an engine.Derive names the local reply's rows it keeps, and the site
// rebuilds their keys from its partition. A site whose partition changed
// since the local round refuses (engine.ErrStalePartition), and the query
// fails unretried.
//
// Synchronization is streaming (Sect. 3.2) and fault-tolerant: each site's
// H_i blocks — as they arrive, while slower sites are still computing — are
// validated and staged in a per-site buffer, and a completed stream is
// committed into X with one O(|H_i|) merge addressed by the rows' ordinals in
// the shipped fragment. Staging is what makes the per-site retry policy
// sound: a stream that dies after partial blocks is discarded whole and
// re-run without double-counting into X. Stages commit in site order
// (fanOut), so every X row folds its sites in index order, and FLOAT
// super-aggregates come out bit-identical run to run, however the streams'
// completion order falls.
func (c *Coordinator) operatorRound(ctx context.Context, pl *plan.Plan, mg *merger, span *obs.QuerySpan, r plan.Round) error {
	k, observed := r.UpTo-1, mg.observed[r.Observed]
	op := pl.Query.Ops[k]
	x := mg.X()
	rs := span.StartRound(r.Name, x.Len())
	ctx = obs.WithRound(ctx, r.Name)
	cols, err := op.ShippedColumns(x.Schema, pl.Keys())
	if err != nil {
		return err
	}
	// values are the shipped columns other than the keys, which lead X.
	values := cols[len(pl.Keys()):]
	local, derived := pl.DerivedFrom(r)

	// Extend X with the operator's identity columns before any stage lands,
	// and, when some site gets all of X, build the one fragment they share.
	t0 := time.Now()
	if err := mg.Extend(); err != nil {
		return err
	}
	var whole *relation.Relation
	allOfX := func(rows []int32) bool { return rows == nil }
	if r.Reducers == nil && (observed == nil || slices.ContainsFunc(observed, allOfX)) {
		whole = mg.Fragment(cols, nil)
	}
	coordTime := time.Since(t0)

	// stages[i] is site i's stage: until its call succeeds, an empty one over
	// the rows of its fragment. Its blocks live in the round's lend until
	// the last CommitStage has folded them into X.
	lend := c.lends.Get()
	defer c.giveBack(lend)
	reqs := make([]engine.OperatorRequest, len(c.sites))
	stages := make([]*hStage, len(c.sites))
	err = c.fanOut(ctx, rs, lend, func(i int) (bool, error) {
		// Thm. 4 fragment reduction runs here, in each site's own goroutine,
		// so the O(sites × |X|) predicate evaluation parallelizes instead of
		// serializing the round's start. It reads X as it was before Extend,
		// through one scratch row — the merges running meanwhile write only
		// operator k's cells, which that X does not hold — and runs once:
		// every retry ships the same fragment and maps ordinals through the
		// same rows. An observed reduction narrows the rows it tests to those
		// the site reported; a site that reported every row of a guarded
		// round gets the shared fragment.
		var from []int32
		if observed != nil {
			from = observed[i]
		}
		var keep distrib.ReductionPred
		if r.Reducers != nil {
			keep = r.Reducers[i]
		}
		rows, bitmap, err := keptRows(x, keep, from, derived)
		if err != nil {
			return false, err
		}
		req := engine.OperatorRequest{Op: op, Guard: r.Guard, BlockRows: c.blockRows}
		switch {
		// A frame without columns holds at most relation.MaxEmptyRows rows;
		// past that the keys ship. A derived request names the filter the
		// local round's base pass applied, none when it was witnessed.
		case derived && (len(values) > 0 || len(rows) <= relation.MaxEmptyRows):
			req.Base = mg.Fragment(values, rows)
			req.Derive = &engine.Derive{Keys: pl.Keys(), Rows: len(from), Kept: bitmap}
			if !local.Witness {
				req.Derive.Where = pl.Query.Base.Where
			}
		case rows == nil:
			req.Base = whole
		default:
			req.Base = mg.Fragment(cols, rows)
		}
		// A site with no X row to match is not called: its H_i is empty, and
		// its empty stage commits as any other, so a later observed reduction
		// ships it nothing either.
		reqs[i], stages[i] = req, mg.NewStage(k, req.Base.Len(), rows)
		return req.Base.Len() > 0, nil
	}, func(actx context.Context, i int, s transport.Site) (stats.Call, error) {
		st := mg.NewStage(k, stages[i].seen.n, stages[i].rows)
		call, err := s.EvalOperatorStream(actx, reqs[i], func(block *relation.Relation) error {
			// End a cancelled query's streams promptly instead of computing
			// and staging the rest for nothing.
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := st.Add(block); err != nil {
				return &permanentError{err}
			}
			return nil
		})
		if err != nil {
			st.Discard()
			return call, err
		}
		stages[i] = st
		return call, nil
	}, func(i int) error {
		t0 := time.Now()
		err := mg.CommitStage(stages[i], k)
		if err == nil {
			err = mg.observe(k, i, stages[i])
		}
		d := time.Since(t0)
		coordTime += d
		rs.ObserveMerge(d)
		return err
	})
	// A stage that completed but was not committed releases its blocks.
	for _, st := range stages {
		if st != nil {
			st.Discard()
		}
	}
	if err == nil {
		t0 := time.Now()
		mg.RecomputeDerived(k, k+1)
		coordTime += time.Since(t0)
	}
	rs.End(coordTime)
	return err
}

// roundLend is the memory one round borrows and gives back when it ends: a
// set of decode slabs per site, which the site's replies or H blocks are
// decoded into (transport.WithSlabs), and the key table and lists the merge
// of a local round works in (installKeys). X keeps nothing of it: the merges
// copy what they keep, STRING values aside, which are substrings of strings
// the heap holds. So the round gives the lend back in one place, once its
// last merge is done and every site call has returned (fanOut), and no
// reply, block or merge list is released on its own.
type roundLend struct {
	sites  []relation.Slabs
	table  relation.KeyTable
	hashes []uint64
	kept   []rowAt
	sums   []int64
}

// maxLend is the most bytes of merge lists a lend keeps for the next round:
// one a huge merge grew past it is dropped, as its slabs drop their buffers
// past their own cap (relation.Slabs.Reset).
const maxLend = 4 << 20

// giveBack takes back everything a round decoded into l and keeps l for a
// later round.
func (c *Coordinator) giveBack(l *roundLend) {
	for i := range l.sites {
		l.sites[i].Reset()
	}
	if 8*(cap(l.hashes)+cap(l.kept)+cap(l.sums)) <= maxLend {
		c.lends.Put(l)
	}
}

// keptRows returns the X rows a site's operator fragment holds: those keep
// admits (all of them when keep is nil) among the site's observed list from,
// in its order, skipping a -1, or among all of X when from is nil. With mark
// set it also marks the kept positions of from in a bitmap, bit i of byte
// i/8 for position i. A list kept whole comes back as is: nil for all of X.
func keptRows(x *relation.Relation, keep distrib.ReductionPred, from []int32, mark bool) ([]int32, []byte, error) {
	if keep == nil && !mark && !slices.Contains(from, -1) {
		return from, nil, nil
	}
	n := x.Len()
	if from != nil {
		n = len(from)
	}
	kept := make([]int32, 0, n)
	var bitmap []byte
	if mark {
		bitmap = make([]byte, (n+7)/8)
	}
	var row relation.Tuple
	for i := 0; i < n; i++ {
		xi := int32(i)
		if from != nil {
			xi = from[i]
		}
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
		kept = append(kept, xi)
		if mark {
			bitmap[i>>3] |= 1 << (i & 7)
		}
	}
	return kept, bitmap, nil
}
