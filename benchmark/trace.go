package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"skalla"
	"skalla/internal/core"
	"skalla/internal/egil"
	"skalla/internal/engine"
	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/plan"
	"skalla/internal/relation"
	"skalla/internal/server"
	"skalla/internal/stats"
	"skalla/internal/transport"
)

// Span names, one per layer boundary the benchmark can reach from outside.
const (
	spanQuery   = "server.query"   // client side: QueryClient.Query wall time
	spanHandle  = "server.handle"  // server side: the statement handler
	spanExecute = "core.execute"   // Coordinator.ExecuteCached
	spanParse   = "egil.parse"     // parse callback inside a plan-cache miss
	spanCall    = "transport.call" // one coordinator→site exchange
	spanBase    = "engine.eval_base"
	spanOp      = "engine.eval_operator"
	spanLocal   = "engine.eval_local"
)

// span is one timed interval at a layer boundary, with the counts taken at
// the same boundary. Times are nanoseconds since the recorder's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Stmt   string `json:"stmt,omitempty"` // statement (query) id; engine spans get theirs when linked
	Site   int    `json:"site"`           // -1 off the sites
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	// Quiet marks a span of the quiet pass, where the cluster's site calls
	// run one at a time.
	Quiet  bool   `json:"quiet,omitempty"`
	Round  string `json:"round,omitempty"`
	EmitNS int64  `json:"emit_ns,omitempty"` // engine spans: time blocked in the emit callback
	// transport.call: the interval the call held the site's connection, as
	// the transport stamped it in stats.Call; the span before it is the wait
	// for the connection.
	HoldStart int64 `json:"hold_start_ns,omitempty"`
	HoldEnd   int64 `json:"hold_end_ns,omitempty"`
	BytesDown int   `json:"bytes_down,omitempty"`
	BytesUp   int   `json:"bytes_up,omitempty"`
	RowsDown  int   `json:"rows_down,omitempty"`
	RowsUp    int   `json:"rows_up,omitempty"`
	Attempt   int   `json:"attempt,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// payloadsPerSite bounds how many X and H_i relations each site keeps for the
// codec pass; cloning every payload would be the benchmark's own load.
const payloadsPerSite = 2

// recorder keeps spans in memory; they are written out when the run ends.
type recorder struct {
	epoch  time.Time
	nextID atomic.Int64
	// quiet makes every site call of the cluster wait for its turn, so that
	// one call at a time has the machine to itself (see run).
	quiet atomic.Bool
	turn  sync.Mutex

	mu       sync.Mutex
	spans    []span
	payloads []*relation.Relation
	kept     [numSites][2]int // per site: X and H payloads kept so far
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span; the caller fills counts and hands it to end.
func (r *recorder) begin(name string, parent int64, stmt string, site int) span {
	return span{ID: r.nextID.Add(1), Parent: parent, Name: name, Stmt: stmt, Site: site, Start: r.now()}
}

func (r *recorder) end(s span) {
	s.End = r.now()
	s.Quiet = r.quiet.Load()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// reset drops the spans recorded so far (set-up and warm-up); call it only
// while no statement is in flight.
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

const (
	payloadX = iota
	payloadH
)

// keep clones rel for the codec pass unless the site already has enough of
// that kind.
func (r *recorder) keep(site, kind int, rel *relation.Relation) {
	if rel == nil || rel.Len() == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.kept[site][kind] >= payloadsPerSite {
		return
	}
	r.kept[site][kind]++
	r.payloads = append(r.payloads, rel.Clone())
}

func (r *recorder) keptPayloads() []*relation.Relation {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*relation.Relation(nil), r.payloads...)
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type spanKey struct{}

// parentFrom returns the id of the span the context runs under.
func parentFrom(ctx context.Context) int64 {
	id, _ := ctx.Value(spanKey{}).(int64)
	return id
}

// tracedBackend wraps a site's engine where transport.Serve takes it. The
// embedded Site serves the metadata methods unwrapped.
type tracedBackend struct {
	*engine.Site
	rec *recorder
}

// Engine spans cross the TCP hop without an id, so they start without parent
// or statement; link attaches them to the transport.call that contains them.

func (b *tracedBackend) EvalBase(ctx context.Context, bq gmdj.BaseQuery) (*relation.Relation, error) {
	s := b.rec.begin(spanBase, 0, "", b.ID())
	rel, err := b.Site.EvalBase(ctx, bq)
	b.rec.end(s)
	return rel, err
}

func (b *tracedBackend) EvalOperatorBlocks(ctx context.Context, req engine.OperatorRequest, emit func(*relation.Relation) error) error {
	b.rec.keep(b.ID(), payloadX, req.Base)
	s := b.rec.begin(spanOp, 0, "", b.ID())
	err := b.Site.EvalOperatorBlocks(ctx, req, func(block *relation.Relation) error {
		b.rec.keep(b.ID(), payloadH, block)
		t0 := time.Now()
		err := emit(block)
		s.EmitNS += int64(time.Since(t0))
		return err
	})
	b.rec.end(s)
	return err
}

func (b *tracedBackend) EvalLocal(ctx context.Context, req engine.LocalRequest) (*relation.Relation, error) {
	s := b.rec.begin(spanLocal, 0, "", b.ID())
	rel, err := b.Site.EvalLocal(ctx, req)
	b.rec.end(s)
	return rel, err
}

// tracedSite wraps a coordinator→site connection where core.New takes it.
// The embedded Client serves the metadata methods unwrapped; EvalOperator is
// left unwrapped too because the coordinator only streams.
type tracedSite struct {
	*transport.Client
	rec *recorder
}

func (t *tracedSite) call(ctx context.Context, f func() (stats.Call, error)) error {
	if t.rec.quiet.Load() {
		t.rec.turn.Lock()
		defer t.rec.turn.Unlock()
	}
	s := t.rec.begin(spanCall, parentFrom(ctx), obs.QueryIDFrom(ctx), t.ID())
	s.Round = obs.RoundFrom(ctx)
	c, err := f()
	s.BytesDown, s.BytesUp, s.RowsDown, s.RowsUp, s.Attempt = c.BytesDown, c.BytesUp, c.RowsDown, c.RowsUp, c.Attempt
	if !c.Start.IsZero() {
		s.HoldStart = int64(c.Start.Sub(t.rec.epoch))
		s.HoldEnd = s.HoldStart + int64(c.Elapsed)
	}
	t.rec.end(s)
	return err
}

func (t *tracedSite) EvalBase(ctx context.Context, bq gmdj.BaseQuery) (rel *relation.Relation, c stats.Call, err error) {
	err = t.call(ctx, func() (stats.Call, error) {
		rel, c, err = t.Client.EvalBase(ctx, bq)
		return c, err
	})
	return rel, c, err
}

func (t *tracedSite) EvalOperatorStream(ctx context.Context, req engine.OperatorRequest, sink func(*relation.Relation) error) (c stats.Call, err error) {
	err = t.call(ctx, func() (stats.Call, error) {
		c, err = t.Client.EvalOperatorStream(ctx, req, sink)
		return c, err
	})
	return c, err
}

func (t *tracedSite) EvalLocal(ctx context.Context, req engine.LocalRequest) (rel *relation.Relation, c stats.Call, err error) {
	err = t.call(ctx, func() (stats.Call, error) {
		rel, c, err = t.Client.EvalLocal(ctx, req)
		return c, err
	})
	return rel, c, err
}

// tracedHandler mirrors Cluster.queryStatement and Cluster.statementHandler
// (serve.go) with spans around the calls into egil and core: SELECT is Egil
// SQL with its postprocessing, anything else query text, both through
// ExecuteCached under the cluster's default selection.
func tracedHandler(coord *core.Coordinator, rec *recorder) server.Handler {
	sel := plan.SelectAll()
	return func(ctx context.Context, stmt string) (*server.Result, error) {
		qid := obs.QueryIDFrom(ctx)
		h := rec.begin(spanHandle, 0, qid, -1)
		defer func() { rec.end(h) }()

		var post *egil.Statement
		var toQuery func() (gmdj.Query, error)
		if isSQL(stmt) {
			p := rec.begin(spanParse, h.ID, qid, -1)
			st, err := egil.ParseStatement(stmt)
			rec.end(p)
			if err != nil {
				return nil, server.Coded("parse", err)
			}
			post, toQuery = st, st.ToQuery
		} else {
			toQuery = func() (gmdj.Query, error) {
				q, err := skalla.ParseQueryText(stmt)
				if err != nil {
					return q, server.Coded("parse", err)
				}
				return q, nil
			}
		}
		ex := rec.begin(spanExecute, h.ID, qid, -1)
		ctx = context.WithValue(ctx, spanKey{}, ex.ID)
		res, hit, err := coord.ExecuteCached(ctx, stmt, sel, func() (gmdj.Query, error) {
			p := rec.begin(spanParse, ex.ID, qid, -1)
			defer func() { rec.end(p) }()
			return toQuery()
		})
		rec.end(ex)
		if err != nil {
			switch {
			case errors.Is(err, core.ErrAdmissionReject):
				return nil, server.Coded("rejected", err)
			case errors.Is(err, core.ErrQueryMemBudget):
				return nil, server.Coded("mem_budget", err)
			}
			return nil, err
		}
		if post != nil {
			if err := post.Postprocess(res.Rel); err != nil {
				return nil, err
			}
		}
		out := &server.Result{Rel: res.Rel, CacheHit: hit}
		if res.Profile != nil {
			out.Queued = res.Profile.QueueTime
		}
		return out, nil
	}
}
