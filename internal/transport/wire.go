package transport

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"skalla/internal/engine"
	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/relation"
	"skalla/internal/stats"
)

// ReqKind discriminates request payloads.
type ReqKind uint8

const (
	// KindHello requests the site's identity (sent once per connection).
	KindHello ReqKind = iota
	// KindBase evaluates the base query fragment.
	KindBase
	// KindOperator evaluates one MD operator.
	KindOperator
	// KindLocal evaluates a query prefix locally.
	KindLocal
	// KindSchema fetches a detail relation's schema.
	KindSchema
	// KindLoad installs a relation partition at the site.
	KindLoad
	// KindTables lists the site's relation inventory.
	KindTables
)

// Request is the wire request envelope. QueryID carries the coordinator's
// query identifier to the site so remote logs and metrics correlate with
// coordinator rounds; gob tolerates it missing (old peers) in either
// direction, so the protocol stays compatible.
type Request struct {
	Kind     ReqKind
	QueryID  string
	Base     *gmdj.BaseQuery
	Operator *engine.OperatorRequest
	Local    *engine.LocalRequest
	Schema   string
	LoadName string
	LoadRel  *relation.Relation
	// Round and Attempt extend the trace context: the coordinator round that
	// issued the call and the 1-based retry attempt. Appended fields — gob
	// tolerates them missing in either direction, so old peers interoperate.
	Round   string
	Attempt int
}

// Response is the wire response envelope. Operator evaluations may stream:
// each H_i block arrives in its own response with More set; the terminal
// response (More unset) carries the site's total compute time and any error.
type Response struct {
	Err       string
	Rel       *relation.Relation
	Schema    relation.Schema
	Tables    []engine.TableInfo
	SiteID    int
	ComputeNS int64
	More      bool
	// Profile is the site-side cost breakdown of this request (nil from
	// peers built before the profiler). Appended field — see Request.
	Profile *obs.SiteBreakdown
}

// Backend is what a transport endpoint serves: the evaluation surface of a
// local warehouse. *engine.Site implements it directly; Serve and LocalSite
// take any Backend, so a wrapper around a site (a tracer) is served exactly
// like the site. Every evaluation method takes the serving context so
// cancellation (a dropped coordinator connection, a per-attempt
// fault-tolerance timeout) reaches the scan instead of stranding work at the
// site.
type Backend interface {
	ID() int
	EvalBase(ctx context.Context, bq gmdj.BaseQuery) (*relation.Relation, error)
	EvalOperatorBlocks(ctx context.Context, req engine.OperatorRequest, emit func(*relation.Relation) error) error
	EvalLocal(ctx context.Context, req engine.LocalRequest) (*relation.Relation, error)
	DetailSchema(ctx context.Context, name string) (relation.Schema, error)
	Load(ctx context.Context, name string, rel *relation.Relation) error
	// Tables lists the relations the backend serves.
	Tables(ctx context.Context) []engine.TableInfo
}

// dispatch executes a request against a backend, measuring compute time and
// collecting the site-side breakdown into the response's Profile.
func dispatch(ctx context.Context, site Backend, req *Request) *Response {
	obs.ServerRequests.With(kindName(req.Kind)).Inc()
	rec := obs.NewSiteRecorder()
	ctx = obs.WithRecorder(ctx, rec)
	start := time.Now()
	resp := &Response{SiteID: site.ID()}
	var err error
	switch req.Kind {
	case KindHello:
		// Identity only.
	case KindBase:
		if req.Base == nil {
			err = fmt.Errorf("transport: base request without query")
		} else {
			resp.Rel, err = site.EvalBase(ctx, *req.Base)
		}
	case KindLocal:
		if req.Local == nil {
			err = fmt.Errorf("transport: local request without payload")
		} else {
			resp.Rel, err = site.EvalLocal(ctx, *req.Local)
		}
	case KindSchema:
		resp.Schema, err = site.DetailSchema(ctx, req.Schema)
	case KindLoad:
		err = site.Load(ctx, req.LoadName, req.LoadRel)
	case KindTables:
		resp.Tables = site.Tables(ctx)
	default:
		err = fmt.Errorf("transport: unknown request kind %d", req.Kind)
	}
	resp.ComputeNS = time.Since(start).Nanoseconds()
	rec.SetEval(time.Since(start))
	b := rec.Snapshot()
	resp.Profile = &b
	if err != nil {
		resp.Err = err.Error()
		resp.Rel = nil
	}
	return resp
}

// reqRows counts the base-structure rows a request ships to the site.
func reqRows(req *Request) int {
	if req.Kind == KindOperator && req.Operator != nil && req.Operator.Base != nil {
		return req.Operator.Base.Len()
	}
	return 0
}

// respRows counts the rows a response ships back.
func respRows(resp *Response) int {
	if resp.Rel != nil {
		return resp.Rel.Len()
	}
	return 0
}

// callFromSizes assembles a stats.Call from measured message sizes, carrying
// over the site-side breakdown from the response.
func callFromSizes(site int, req *Request, resp *Response, down, up int) stats.Call {
	return stats.Call{
		Site:      site,
		BytesDown: down,
		BytesUp:   up,
		RowsDown:  reqRows(req),
		RowsUp:    respRows(resp),
		Compute:   time.Duration(resp.ComputeNS),
		Breakdown: resp.Profile,
	}
}

// stampTraceContext copies the context's trace fields (query ID, round,
// attempt) into the wire request, and returns the attempt for the client's
// own call record.
func stampTraceContext(ctx context.Context, req *Request) int {
	req.QueryID = obs.QueryIDFrom(ctx)
	req.Round = obs.RoundFrom(ctx)
	req.Attempt = obs.AttemptFrom(ctx)
	return req.Attempt
}

// kindName names a request kind for metric labels and logs.
func kindName(k ReqKind) string {
	switch k {
	case KindHello:
		return "hello"
	case KindBase:
		return "base"
	case KindOperator:
		return "operator"
	case KindLocal:
		return "local"
	case KindSchema:
		return "schema"
	case KindLoad:
		return "load"
	case KindTables:
		return "tables"
	}
	return "unknown"
}

// recordCall folds one completed coordinator↔site exchange into the obs
// registry: bytes and rows in both directions (labeled site + query) and the
// site compute histogram. Runs once per call, never per row.
func recordCall(call stats.Call, kind ReqKind, queryID string) {
	site := strconv.Itoa(call.Site)
	q := obs.QueryLabel(queryID)
	obs.TransportCalls.With(site, kindName(kind)).Inc()
	obs.TransportBytes.With(site, "down", q).Add(int64(call.BytesDown))
	obs.TransportBytes.With(site, "up", q).Add(int64(call.BytesUp))
	obs.TransportRows.With(site, "down", q).Add(int64(call.RowsDown))
	obs.TransportRows.With(site, "up", q).Add(int64(call.RowsUp))
	obs.SiteCompute.With(site).ObserveDuration(call.Compute)
}
