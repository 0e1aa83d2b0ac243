package skalla

import (
	"context"
	"errors"
	"strings"

	"skalla/internal/core"
	"skalla/internal/egil"
	"skalla/internal/gmdj"
	"skalla/internal/server"
)

// Typed failures of the multi-tenant coordinator server (re-exported from
// internal/core). Match with errors.Is.
var (
	// ErrAdmissionReject: the admission wait queue was full; back off and
	// resubmit.
	ErrAdmissionReject = core.ErrAdmissionReject
	// ErrQueryMemBudget: the query exceeded the per-query coordinator memory
	// budget and was failed; concurrent queries are unaffected.
	ErrQueryMemBudget = core.ErrQueryMemBudget
)

// Query-server types (re-exported from internal/server).
type (
	// QueryServer is a long-lived multi-tenant coordinator server: many
	// concurrent client sessions over one TCP listener.
	QueryServer = server.Server
	// QueryClient is one session against a QueryServer.
	QueryClient = server.Client
	// QueryResultInfo is the per-statement execution stats a client receives
	// alongside the result rows.
	QueryResultInfo = server.ResultInfo
	// QueryError is a statement failure reported by the server, with a wire
	// code ("parse", "rejected", "mem_budget", "shutdown", "internal").
	QueryError = server.QueryError
)

// Query-client constructors (re-exported from internal/server).
var (
	// DialQueryServer opens a session against a QueryServer.
	DialQueryServer = server.Dial
	// DialQueryServerContext is DialQueryServer under a context deadline.
	DialQueryServerContext = server.DialContext
)

// DefaultPlanCacheSize is the prepared-plan cache capacity Serve installs
// when ServerOptions leaves PlanCacheSize at zero.
const DefaultPlanCacheSize = 128

// DefaultResultCacheSize is the super-aggregate result cache capacity Serve
// installs when ServerOptions leaves ResultCacheSize at zero.
const DefaultResultCacheSize = 64

// ServerOptions configures Serve. The zero value asks for production
// defaults: GOMAXPROCS concurrent queries with a 4x wait queue, a
// DefaultPlanCacheSize-entry plan cache, a DefaultResultCacheSize-entry
// result cache, single-flight query collapsing, and no per-query memory
// budget.
type ServerOptions struct {
	// MaxConcurrent bounds concurrently executing queries across all
	// sessions; <= 0 means GOMAXPROCS.
	MaxConcurrent int
	// QueueDepth bounds queries waiting for an execution slot: 0 means
	// 4 x MaxConcurrent, negative means no wait queue (excess queries are
	// rejected immediately). Queue time is recorded in the query profile and
	// reported to the client.
	QueueDepth int
	// PlanCacheSize is the prepared-plan cache capacity: 0 means
	// DefaultPlanCacheSize, negative disables caching.
	PlanCacheSize int
	// ResultCacheSize is the super-aggregate result cache capacity: repeat
	// queries whose plan fingerprint matches a cached entry are served with
	// zero site rounds, invalidated when the catalog generation moves. 0
	// means DefaultResultCacheSize, negative disables the cache.
	ResultCacheSize int
	// NoSingleFlight disables single-flight query collapsing. By default the
	// server collapses concurrent statements with the same plan fingerprint:
	// one leader runs the distributed rounds while the others await its
	// committed result.
	NoSingleFlight bool
	// QueryMemBudget bounds the coordinator-side memory one query may hold,
	// in bytes; 0 disables the budget. Over-budget queries fail with
	// ErrQueryMemBudget (wire code "mem_budget").
	QueryMemBudget int64
}

// Serve starts a multi-tenant query server for the cluster on addr
// ("host:port"; ":0" for an ephemeral port). Each client session submits
// statements — Egil SQL (SELECT ...) or the skalla query text format — and
// receives result rows plus execution stats; statements plan under the
// cluster's configured plan mode. Serve installs the admission, plan-cache,
// shared-work (result cache, single-flight) and memory-budget settings from
// opts on the cluster's coordinator (overriding any WithPlanCache /
// WithMaxConcurrent / WithQueryMemBudget / WithResultCache /
// WithSingleFlight construction options), so they also govern queries
// executed directly through the Cluster API while the server runs.
//
// Stop the server with QueryServer.Shutdown (drains in-flight statements) or
// Close (immediate).
func Serve(cluster *Cluster, addr string, opts ServerOptions) (*QueryServer, error) {
	size := opts.PlanCacheSize
	if size == 0 {
		size = DefaultPlanCacheSize
	}
	cluster.coord.SetPlanCache(size) // negative size disables
	rcSize := opts.ResultCacheSize
	switch {
	case rcSize == 0:
		rcSize = DefaultResultCacheSize
	case rcSize < 0:
		rcSize = 0 // core: 0 disables
	}
	cluster.coord.SetResultCache(rcSize)
	cluster.coord.SetSingleFlight(!opts.NoSingleFlight)
	queue := opts.QueueDepth
	switch {
	case queue == 0:
		queue = -1 // core default: 4 x MaxConcurrent
	case queue < 0:
		queue = 0 // no wait queue
	}
	cluster.coord.SetAdmission(opts.MaxConcurrent, queue)
	cluster.coord.SetQueryMemBudget(opts.QueryMemBudget)
	return server.Serve(cluster.statementHandler(), addr)
}

// statementHandler adapts the cluster into the server's per-statement
// evaluation callback. Statement grammars live here in the root package —
// internal/server stays protocol-only.
func (c *Cluster) statementHandler() server.Handler {
	return func(ctx context.Context, stmt string) (*server.Result, error) {
		res, hit, err := c.queryStatement(ctx, stmt)
		if err != nil {
			switch {
			case errors.Is(err, core.ErrAdmissionReject):
				return nil, server.Coded("rejected", err)
			case errors.Is(err, core.ErrQueryMemBudget):
				return nil, server.Coded("mem_budget", err)
			}
			return nil, err // parse errors arrive pre-coded; the rest are "internal"
		}
		out := &server.Result{Rel: res.Rel, CacheHit: hit}
		if res.Profile != nil {
			out.Queued = res.Profile.QueueTime
		}
		return out, nil
	}
}

// queryStatement evaluates one statement string the way a server session
// does: SELECT statements use the Egil SQL dialect (with its ORDER BY / LIMIT
// postprocessing), anything else the skalla query text format; both plan
// under the cluster's configured selection through the prepared-plan cache.
// The returned flag reports a plan-cache hit. SQL statements re-parse even on
// a hit — their postprocessing needs the statement — while query-text hits
// skip parsing entirely; both skip plan optimization on a hit.
func (c *Cluster) queryStatement(ctx context.Context, stmt string) (*Result, bool, error) {
	var (
		post  *egil.Statement
		parse func() (gmdj.Query, error)
	)
	if fields := strings.Fields(stmt); len(fields) > 0 && strings.EqualFold(fields[0], "select") {
		var err error
		post, err = egil.ParseStatement(stmt)
		if err != nil {
			return nil, false, server.Coded("parse", err)
		}
		parse = post.ToQuery
	} else {
		parse = func() (gmdj.Query, error) {
			q, err := ParseQueryText(stmt)
			if err != nil {
				return q, server.Coded("parse", err)
			}
			return q, nil
		}
	}
	res, hit, err := c.coord.ExecuteCached(ctx, stmt, c.sel, parse)
	if err != nil {
		return nil, hit, err
	}
	if post != nil {
		if err := post.Postprocess(res.Rel); err != nil {
			return nil, hit, err
		}
	}
	return res, hit, nil
}
