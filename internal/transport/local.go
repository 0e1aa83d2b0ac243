package transport

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"skalla/internal/engine"
	"skalla/internal/relation"
	"skalla/internal/stats"
)

// LocalSite is the in-process transport: it wraps an engine.Site and pushes
// every request and reply through the envelope a networked deployment uses,
// so byte and row accounting is what TCP counts while a library cluster,
// tests and benchmarks run single-process and deterministic. Operator blocks
// stream through the relation wire codec, decoded as the TCP client decodes
// them. Calls are served one at a time, as over one TCP connection.
type LocalSite struct {
	exchange
	site Backend

	mu sync.Mutex
	// downBuf and upBuf emulate the two directions of one connection, each
	// written from its end's message buffer and read through a frame reader
	// as the connection's ends do; enc and dec are the connection's block
	// encoder and decoder, as on TCP.
	downBuf, upBuf   bytes.Buffer
	reqOut, replyOut msgBuf
	down, up         *relation.FrameReader
	w                *bufio.Writer // the site's end of upBuf
	enc              *relation.Encoder
	dec              *relation.Decoder
}

// NewLocalSite wraps a backend (a site engine, or a wrapper of one).
func NewLocalSite(site Backend) *LocalSite {
	l := &LocalSite{site: site}
	l.exchange = l.roundTrip
	l.down = relation.NewFrameReader(&l.downBuf)
	l.up = relation.NewFrameReader(&l.upBuf)
	l.w = bufio.NewWriter(&l.upBuf)
	l.enc, l.dec = relation.NewEncoder(l.w), relation.NewDecoder(&l.upBuf)
	return l
}

// ID implements Site.
func (l *LocalSite) ID() int { return l.site.ID() }

// sendLocked writes req down, decodes it as the site would and serves it
// into upBuf, handing each operator block to sent; l.mu held. It returns the
// request's size.
func (l *LocalSite) sendLocked(ctx context.Context, req *Request, sent func() error) (int, error) {
	l.downBuf.Reset()
	l.upBuf.Reset()
	if err := l.reqOut.writeRequest(&l.downBuf, req); err != nil {
		return 0, fmt.Errorf("transport: encode request: %w", err)
	}
	down := l.downBuf.Len()
	decReq, err := readRequest(l.down)
	if err != nil {
		return down, fmt.Errorf("transport: decode request: %w", err)
	}
	return down, serve(ctx, l.site, l.w, l.enc, &l.replyOut, decReq, sent)
}

// roundTrip serializes the request, decodes it into a fresh value (as the
// remote end would), serves it, and decodes the reply as the client would.
func (l *LocalSite) roundTrip(ctx context.Context, req *Request) (*Response, stats.Call, error) {
	if err := ctx.Err(); err != nil {
		return nil, stats.Call{}, err
	}
	attempt := stampTraceContext(ctx, req)
	start := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	down, err := l.sendLocked(ctx, req, nil)
	if err != nil {
		return nil, stats.Call{}, err
	}
	up := l.upBuf.Len()
	resp, err := readReply(l.up, req.Kind)
	if err != nil {
		return nil, stats.Call{}, fmt.Errorf("transport: decode reply: %w", err)
	}
	call := callFromSizes(l.site.ID(), resp, down, up)
	call.Start, call.Elapsed, call.Attempt = start, time.Since(start), attempt
	recordCall(call, req.Kind, req.QueryID)
	if resp.Err != "" {
		return nil, call, siteError(resp.Err)
	}
	return resp, call, nil
}

// EvalOperatorStream implements Site: the request crosses the serialization
// boundary once, and the site's reply stream is the one a TCP server writes.
// Each H_i block is decoded off the buffer (schema sent once per stream,
// uniform blocks decoded to vectors) and handed to sink as the engine
// produces it, exactly like the TCP operator stream.
func (l *LocalSite) EvalOperatorStream(ctx context.Context, req engine.OperatorRequest, sink func(*relation.Relation) error) (stats.Call, error) {
	if err := ctx.Err(); err != nil {
		return stats.Call{}, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	wireReq := &Request{Kind: KindOperator, Operator: &req}
	call := stats.Call{Site: l.site.ID(), RowsDown: baseRows(&req), Start: time.Now(), Attempt: stampTraceContext(ctx, wireReq)}
	l.dec.Reset()
	down, err := l.sendLocked(ctx, wireReq, func() error {
		// upBuf holds the block's marker and frame.
		call.BytesUp += l.upBuf.Len()
		_, _ = l.upBuf.ReadByte()
		block, err := l.dec.Decode()
		if err != nil {
			return err
		}
		call.RowsUp += block.Len()
		return sink(block)
	})
	call.BytesDown = down
	call.Elapsed = time.Since(call.Start)
	if err != nil {
		return call, err
	}
	// upBuf holds the end marker and the operator reply.
	call.BytesUp += l.upBuf.Len()
	_, _ = l.upBuf.ReadByte()
	term, err := readReply(l.up, KindOperator)
	if err != nil {
		return call, fmt.Errorf("transport: decode reply: %w", err)
	}
	call.Compute, call.Breakdown = time.Duration(term.Profile.EvalNS), &term.Profile
	recordCall(call, KindOperator, wireReq.QueryID)
	if term.Err != "" {
		return call, siteError(term.Err)
	}
	return call, nil
}

// Load implements Loader, installing a partition directly.
func (l *LocalSite) Load(ctx context.Context, name string, rel *relation.Relation) error {
	return l.site.Load(ctx, name, rel)
}
