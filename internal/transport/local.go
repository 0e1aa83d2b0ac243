package transport

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"time"

	"skalla/internal/engine"
	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/relation"
	"skalla/internal/stats"
)

// LocalSite is the in-process transport: it wraps an engine.Site and pushes
// every request and response through the same serialization a networked
// deployment uses, so byte and row accounting stays faithful while tests and
// benchmarks run single-process and deterministic. Like a real connection it
// keeps persistent gob codecs per direction (type descriptors are charged
// once, on the first message) and streams operator blocks through the compact
// relation wire codec with pooled decode storage.
type LocalSite struct {
	site Backend

	mu sync.Mutex
	// downBuf/upBuf emulate the two directions of one connection; the
	// persistent gob codecs over them survive across calls, exactly like the
	// encoder/decoder pair a TCP connection keeps, so type descriptors are
	// shipped (and charged) once per direction rather than per message.
	downBuf, upBuf bytes.Buffer
	downEnc, upEnc *gob.Encoder
	downDec, upDec *gob.Decoder
	pool           relation.BlockPool
}

// NewLocalSite wraps a backend (a site engine or a relay).
func NewLocalSite(site Backend) *LocalSite {
	l := &LocalSite{site: site}
	l.downEnc = gob.NewEncoder(&l.downBuf)
	l.downDec = gob.NewDecoder(&l.downBuf)
	l.upEnc = gob.NewEncoder(&l.upBuf)
	l.upDec = gob.NewDecoder(&l.upBuf)
	return l
}

// ID implements Site.
func (l *LocalSite) ID() int { return l.site.ID() }

// roundTrip serializes the request, decodes it into a fresh value (as the
// remote end would), dispatches it, and serializes the response back.
func (l *LocalSite) roundTrip(ctx context.Context, req *Request) (*Response, stats.Call, error) {
	if err := ctx.Err(); err != nil {
		return nil, stats.Call{}, err
	}
	attempt := stampTraceContext(ctx, req)
	start := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.downEnc.Encode(req); err != nil {
		return nil, stats.Call{}, fmt.Errorf("transport: encode request: %w", err)
	}
	down := l.downBuf.Len()
	var decReq Request
	if err := l.downDec.Decode(&decReq); err != nil {
		return nil, stats.Call{}, fmt.Errorf("transport: decode request: %w", err)
	}
	resp := dispatch(ctx, l.site, &decReq)
	if err := l.upEnc.Encode(resp); err != nil {
		return nil, stats.Call{}, fmt.Errorf("transport: encode response: %w", err)
	}
	up := l.upBuf.Len()
	var decResp Response
	if err := l.upDec.Decode(&decResp); err != nil {
		return nil, stats.Call{}, fmt.Errorf("transport: decode response: %w", err)
	}
	call := callFromSizes(l.site.ID(), req, &decResp, down, up)
	call.Start, call.Elapsed, call.Attempt = start, time.Since(start), attempt
	recordCall(call, req.Kind, req.QueryID)
	if decResp.Err != "" {
		return nil, call, errors.New(decResp.Err)
	}
	return &decResp, call, nil
}

// EvalBase implements Site.
func (l *LocalSite) EvalBase(ctx context.Context, bq gmdj.BaseQuery) (*relation.Relation, stats.Call, error) {
	resp, call, err := l.roundTrip(ctx, &Request{Kind: KindBase, Base: &bq})
	if err != nil {
		return nil, call, err
	}
	return resp.Rel, call, nil
}

// EvalOperatorStream implements Site: the request crosses the serialization
// boundary once; each H_i block is pushed through the relation wire codec
// (schema sent once per stream, decode storage drawn from a pool) and handed
// to sink as the engine produces it, exactly like the TCP operator stream.
func (l *LocalSite) EvalOperatorStream(ctx context.Context, req engine.OperatorRequest, sink func(*relation.Relation) error) (stats.Call, error) {
	if err := ctx.Err(); err != nil {
		return stats.Call{}, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	wallStart := time.Now()
	wireReq := &Request{Kind: KindOperator, Operator: &req}
	attempt := stampTraceContext(ctx, wireReq)
	if err := l.downEnc.Encode(wireReq); err != nil {
		return stats.Call{}, fmt.Errorf("transport: encode request: %w", err)
	}
	call := stats.Call{
		Site:      l.site.ID(),
		BytesDown: l.downBuf.Len(),
		RowsDown:  reqRows(wireReq),
		Start:     wallStart,
		Attempt:   attempt,
	}
	var decReq Request
	if err := l.downDec.Decode(&decReq); err != nil {
		return call, fmt.Errorf("transport: decode request: %w", err)
	}
	// The serving end of the emulated connection: count the request like the
	// TCP server's stream path does, recorder included.
	obs.ServerRequests.With("operator").Inc()
	rec := obs.NewSiteRecorder()
	ctx = obs.WithRecorder(ctx, rec)
	// Fresh stream codecs per request: the schema is shipped on the first
	// block of the stream and cached for the rest.
	enc := relation.NewEncoder(&l.upBuf)
	dec := relation.NewDecoder(&l.upBuf)
	dec.SetPool(&l.pool)
	start := time.Now()
	evalErr := l.site.EvalOperatorBlocks(ctx, *decReq.Operator, func(block *relation.Relation) error {
		if err := enc.Encode(block); err != nil {
			return err
		}
		// +1 mirrors the TCP stream's per-frame block marker byte.
		call.BytesUp += l.upBuf.Len() + 1
		rec.AddCodecBytes(1)
		decBlock, err := dec.Decode()
		if err != nil {
			return err
		}
		call.RowsUp += decBlock.Len()
		return sink(decBlock)
	})
	call.Compute = time.Since(start)
	rec.AddCodecBytes(enc.Bytes())
	rec.SetEval(call.Compute)
	call.Elapsed = time.Since(wallStart)
	if evalErr != nil {
		return call, evalErr
	}
	// Terminal frame, as the network transport would send.
	b := rec.Snapshot()
	if err := l.upEnc.Encode(&Response{ComputeNS: call.Compute.Nanoseconds(), Profile: &b}); err != nil {
		return call, err
	}
	call.BytesUp += l.upBuf.Len() + 1
	var term Response
	if err := l.upDec.Decode(&term); err != nil {
		return call, err
	}
	call.Profile = term.Profile
	call.Elapsed = time.Since(wallStart)
	recordCall(call, KindOperator, wireReq.QueryID)
	return call, nil
}

// EvalLocal implements Site.
func (l *LocalSite) EvalLocal(ctx context.Context, req engine.LocalRequest) (*relation.Relation, stats.Call, error) {
	resp, call, err := l.roundTrip(ctx, &Request{Kind: KindLocal, Local: &req})
	if err != nil {
		return nil, call, err
	}
	return resp.Rel, call, nil
}

// DetailSchema implements Site. Metadata calls bypass traffic accounting.
func (l *LocalSite) DetailSchema(ctx context.Context, name string) (relation.Schema, error) {
	return l.site.DetailSchema(ctx, name)
}

// Tables implements Site.
func (l *LocalSite) Tables(ctx context.Context) ([]engine.TableInfo, error) {
	return l.site.Tables(ctx), nil
}

// Load implements Loader, installing a partition directly.
func (l *LocalSite) Load(ctx context.Context, name string, rel *relation.Relation) error {
	return l.site.Load(ctx, name, rel)
}

// FastLocalSite is a zero-serialization variant of LocalSite for unit tests
// and micro-benchmarks where wire fidelity does not matter: byte counts are
// approximated from row counts, and requests are dispatched directly.
type FastLocalSite struct {
	site Backend
}

// NewFastLocalSite wraps a backend without serialization.
func NewFastLocalSite(site Backend) *FastLocalSite { return &FastLocalSite{site: site} }

// ID implements Site.
func (f *FastLocalSite) ID() int { return f.site.ID() }

func (f *FastLocalSite) call(ctx context.Context, req *Request) (*Response, stats.Call, error) {
	if err := ctx.Err(); err != nil {
		return nil, stats.Call{}, err
	}
	attempt := stampTraceContext(ctx, req)
	start := time.Now()
	resp := dispatch(ctx, f.site, req)
	call := callFromSizes(f.site.ID(), req, resp, 0, 0)
	call.Start, call.Elapsed, call.Attempt = start, time.Since(start), attempt
	if resp.Err != "" {
		return nil, call, errors.New(resp.Err)
	}
	return resp, call, nil
}

// EvalBase implements Site.
func (f *FastLocalSite) EvalBase(ctx context.Context, bq gmdj.BaseQuery) (*relation.Relation, stats.Call, error) {
	resp, call, err := f.call(ctx, &Request{Kind: KindBase, Base: &bq})
	if err != nil {
		return nil, call, err
	}
	return resp.Rel, call, nil
}

// EvalOperatorStream implements Site without serialization.
func (f *FastLocalSite) EvalOperatorStream(ctx context.Context, req engine.OperatorRequest, sink func(*relation.Relation) error) (stats.Call, error) {
	if err := ctx.Err(); err != nil {
		return stats.Call{}, err
	}
	rec := obs.NewSiteRecorder()
	ctx = obs.WithRecorder(ctx, rec)
	call := stats.Call{Site: f.site.ID(), RowsDown: baseRows(req), Attempt: obs.AttemptFrom(ctx)}
	start := time.Now()
	call.Start = start
	err := f.site.EvalOperatorBlocks(ctx, req, func(block *relation.Relation) error {
		call.RowsUp += block.Len()
		return sink(block)
	})
	call.Compute = time.Since(start)
	call.Elapsed = call.Compute
	rec.SetEval(call.Compute)
	b := rec.Snapshot()
	call.Profile = &b
	return call, err
}

func baseRows(req engine.OperatorRequest) int {
	if req.Base == nil {
		return 0
	}
	return req.Base.Len()
}

// EvalLocal implements Site.
func (f *FastLocalSite) EvalLocal(ctx context.Context, req engine.LocalRequest) (*relation.Relation, stats.Call, error) {
	resp, call, err := f.call(ctx, &Request{Kind: KindLocal, Local: &req})
	if err != nil {
		return nil, call, err
	}
	return resp.Rel, call, nil
}

// DetailSchema implements Site.
func (f *FastLocalSite) DetailSchema(ctx context.Context, name string) (relation.Schema, error) {
	return f.site.DetailSchema(ctx, name)
}

// Tables implements Site.
func (f *FastLocalSite) Tables(ctx context.Context) ([]engine.TableInfo, error) {
	return f.site.Tables(ctx), nil
}

// Load implements Loader.
func (f *FastLocalSite) Load(ctx context.Context, name string, rel *relation.Relation) error {
	return f.site.Load(ctx, name, rel)
}
