package transport

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
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

// Request is one site request (see envelope.go for its layout). QueryID,
// Round and Attempt carry the coordinator's trace context — the query, the
// round that issued the call and the 1-based retry attempt — so remote logs
// and metrics correlate with coordinator rounds.
type Request struct {
	Kind     ReqKind
	Version  int // hello only
	QueryID  string
	Round    string
	Attempt  int
	Base     *gmdj.BaseQuery
	Operator *engine.OperatorRequest
	Local    *engine.LocalRequest
	Name     string // the relation a schema or load request names
	LoadRel  *relation.Relation
}

// Response is one site reply. Operator evaluations stream their H_i blocks
// ahead of it; their reply carries only the error and the profile. Profile is
// the site-side cost breakdown of the request, its EvalNS the site's compute
// time.
type Response struct {
	Err     string
	Rel     *relation.Relation
	Schema  relation.Schema
	Tables  []engine.TableInfo
	SiteID  int // hello only, with Version
	Version int
	Profile obs.SiteBreakdown
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

// measure runs one site request's evaluation under a context carrying a
// fresh request recorder and returns the breakdown it recorded, with the
// evaluation's wall time: the one place a site reply's profile is made.
func measure(ctx context.Context, eval func(context.Context) error) (obs.SiteBreakdown, error) {
	rec := obs.NewSiteRecorder()
	start := time.Now()
	err := eval(obs.WithRecorder(ctx, rec))
	rec.SetEval(time.Since(start))
	return rec.Snapshot(), err
}

// dispatch executes a request against a backend, measuring compute time and
// collecting the site-side breakdown into the response's Profile.
func dispatch(ctx context.Context, site Backend, req *Request) *Response {
	obs.ServerRequests.With(kindName(req.Kind)).Inc()
	resp := &Response{}
	profile, err := measure(ctx, func(ctx context.Context) (err error) {
		switch req.Kind {
		case KindBase:
			resp.Rel, err = site.EvalBase(ctx, *req.Base)
		case KindLocal:
			resp.Rel, err = site.EvalLocal(ctx, *req.Local)
		case KindSchema:
			resp.Schema, err = site.DetailSchema(ctx, req.Name)
		case KindLoad:
			err = site.Load(ctx, req.Name, req.LoadRel)
		case KindTables:
			resp.Tables = site.Tables(ctx)
		default:
			err = fmt.Errorf("transport: %w %d", errUnknownKind, req.Kind)
		}
		return err
	})
	resp.Profile = profile
	if err != nil {
		resp.Err = err.Error()
	}
	return resp
}

// baseRows counts the base-structure rows an operator request ships to the
// site; no other request ships any.
func baseRows(req *engine.OperatorRequest) int {
	if req.Base == nil {
		return 0
	}
	return req.Base.Len()
}

// callFromSizes assembles a stats.Call for a request that is not an operator
// from measured message sizes, carrying over the site-side breakdown from
// the response.
func callFromSizes(site int, resp *Response, down, up int) stats.Call {
	call := stats.Call{Site: site, BytesDown: down, BytesUp: up, Compute: time.Duration(resp.Profile.EvalNS), Breakdown: &resp.Profile}
	if resp.Rel != nil {
		call.RowsUp = resp.Rel.Len()
	}
	return call
}

// exchange is a transport's one-request, one-reply call. Embedded in each
// Site, it implements the calls that are exactly that.
type exchange func(ctx context.Context, req *Request) (*Response, stats.Call, error)

// EvalBase implements Site.
func (x exchange) EvalBase(ctx context.Context, bq gmdj.BaseQuery) (*relation.Relation, stats.Call, error) {
	resp, call, err := x(ctx, &Request{Kind: KindBase, Base: &bq})
	if err != nil {
		return nil, call, err
	}
	return resp.Rel, call, nil
}

// EvalLocal implements Site.
func (x exchange) EvalLocal(ctx context.Context, req engine.LocalRequest) (*relation.Relation, stats.Call, error) {
	resp, call, err := x(ctx, &Request{Kind: KindLocal, Local: &req})
	if err != nil {
		return nil, call, err
	}
	return resp.Rel, call, nil
}

// DetailSchema implements Site.
func (x exchange) DetailSchema(ctx context.Context, name string) (relation.Schema, error) {
	resp, _, err := x(ctx, &Request{Kind: KindSchema, Name: name})
	if err != nil {
		return nil, err
	}
	return resp.Schema, nil
}

// Tables implements Site.
func (x exchange) Tables(ctx context.Context) ([]engine.TableInfo, error) {
	resp, _, err := x(ctx, &Request{Kind: KindTables})
	if err != nil {
		return nil, err
	}
	return resp.Tables, nil
}

// Load implements Loader: it ships a relation partition to the site.
func (x exchange) Load(ctx context.Context, name string, rel *relation.Relation) error {
	_, _, err := x(ctx, &Request{Kind: KindLoad, Name: name, LoadRel: rel})
	return err
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

var kindNames = [...]string{KindHello: "hello", KindBase: "base", KindOperator: "operator",
	KindLocal: "local", KindSchema: "schema", KindLoad: "load", KindTables: "tables"}

// kindName names a request kind for metric labels and logs.
func kindName(k ReqKind) string {
	if int(k) < len(kindNames) {
		return kindNames[k]
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

// siteError is the error a site's reply names. ErrStalePartition stays typed
// across the envelope, whose replies carry errors as text: the coordinator
// must tell it from a failure worth retrying.
func siteError(msg string) error {
	if rest, ok := strings.CutPrefix(msg, engine.ErrStalePartition.Error()); ok {
		return fmt.Errorf("%w%s", engine.ErrStalePartition, rest)
	}
	return errors.New(msg)
}
