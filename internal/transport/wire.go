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

// Backend is what a site's connection loop (serveConn) serves: the
// evaluation surface of a local warehouse. *engine.Site implements it
// directly; Serve and NewLocalSite take any Backend, so a wrapper around a
// site (a tracer) is served exactly like the site. Every evaluation method
// takes the serving context so cancellation (a closing server, a dropped
// coordinator connection, an in-process client that closes or poisons its
// end) reaches the scan instead of stranding work at the site.
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
