package transport

import (
	"bufio"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"strconv"
	"sync"
	"time"

	"skalla/internal/engine"
	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/relation"
	"skalla/internal/stats"
)

// Operator responses stream out of band from the gob request/response pairs:
// each H_i block is announced with a one-byte marker followed by a relation
// wire-codec frame (schema shipped once per stream), and the stream ends with
// an end marker followed by the usual gob terminal Response.
const (
	opStreamEnd   = 0x00
	opStreamBlock = 0x01
)

// Server exposes a site engine over TCP. The wire protocol is a stream of
// gob-encoded Request/Response pairs per connection, processed sequentially;
// operator evaluations interleave codec-framed H_i blocks (see the stream
// markers above).
type Server struct {
	site Backend
	ln   net.Listener
	log  *slog.Logger

	// baseCtx parents every connection's serving context; cancel fires on
	// Close so in-flight evaluations observe shutdown instead of running to
	// completion against closed connections.
	baseCtx context.Context
	cancel  context.CancelFunc

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// Serve starts serving a backend — a site engine or a relay — on the given
// address ("host:port"; use ":0" for an ephemeral port) and returns
// immediately. It is the convenience lifecycle root; use ServeContext to tie
// the server's evaluations to an existing context tree.
func Serve(site Backend, addr string) (*Server, error) {
	//skallavet:allow ctxcall -- lifecycle root: ServeContext is the context-threading variant
	return ServeContext(context.Background(), site, addr)
}

// ServeContext is Serve under a parent context: every request dispatched to
// the backend carries a context derived from it (and canceled on Close), so
// daemon shutdown propagates into running evaluations.
func ServeContext(ctx context.Context, site Backend, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	baseCtx, cancel := context.WithCancel(ctx)
	s := &Server{
		site:    site,
		ln:      ln,
		log:     obs.Logger().With("site", site.ID()),
		baseCtx: baseCtx,
		cancel:  cancel,
		conns:   make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and closes all connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.cancel()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

func (s *Server) handle(rawConn net.Conn) {
	defer s.wg.Done()
	// Per-connection context: canceled when this handler exits or the server
	// closes, so backend evaluations stop with their connection.
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	log := s.log.With("remote", rawConn.RemoteAddr().String())
	obs.ServerActiveConns.Add(1)
	log.Debug("connection open")
	defer func() {
		s.mu.Lock()
		delete(s.conns, rawConn)
		s.mu.Unlock()
		rawConn.Close()
		obs.ServerActiveConns.Add(-1)
		log.Debug("connection closed")
	}()
	// Count connection bytes in both directions; deltas per request feed the
	// server-side byte counters.
	conn := &countingConn{Conn: rawConn}
	bytesDown := obs.ServerBytes.With("down")
	bytesUp := obs.ServerBytes.With("up")
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		r0, w0 := conn.read, conn.written
		var req Request
		if err := dec.Decode(&req); err != nil {
			return // connection closed or corrupt stream
		}
		if req.Kind == KindOperator {
			err := s.streamOperator(ctx, conn, enc, &req)
			bytesDown.Add(conn.read - r0)
			bytesUp.Add(conn.written - w0)
			if err != nil {
				log.Warn("stream response failed", "query", req.QueryID, "err", err)
				return
			}
			continue
		}
		resp := dispatch(ctx, s.site, &req)
		err := enc.Encode(resp)
		bytesDown.Add(conn.read - r0)
		bytesUp.Add(conn.written - w0)
		if err != nil {
			log.Warn("encode response failed", "kind", kindName(req.Kind), "err", err)
			return
		}
	}
}

// streamOperator evaluates an operator request with row blocking, sending a
// marker plus a codec frame per H_i block and a terminal gob response
// carrying the compute time and any evaluation error. When a block write
// already failed, the connection is broken — the end marker and terminal
// response are doomed too, so they are skipped and the handler exits with the
// original write error instead of failing (and logging) twice.
func (s *Server) streamOperator(ctx context.Context, conn net.Conn, enc *gob.Encoder, req *Request) error {
	obs.ServerRequests.With(kindName(req.Kind)).Inc()
	rec := obs.NewSiteRecorder()
	ctx = obs.WithRecorder(ctx, rec)
	start := time.Now()
	var evalErr error
	connBroken := false
	if req.Operator == nil {
		evalErr = fmt.Errorf("transport: operator request without payload")
	} else {
		blockEnc := relation.NewEncoder(conn)
		marker := [1]byte{opStreamBlock}
		evalErr = s.site.EvalOperatorBlocks(ctx, *req.Operator, func(block *relation.Relation) error {
			if _, err := conn.Write(marker[:]); err != nil {
				connBroken = true
				return err
			}
			if err := blockEnc.Encode(block); err != nil {
				connBroken = true
				return err
			}
			// The marker byte travels with every block frame.
			rec.AddCodecBytes(1)
			return nil
		})
		rec.AddCodecBytes(blockEnc.Bytes())
	}
	if connBroken {
		return evalErr
	}
	if _, err := conn.Write([]byte{opStreamEnd}); err != nil {
		return err
	}
	rec.SetEval(time.Since(start))
	b := rec.Snapshot()
	term := &Response{SiteID: s.site.ID(), ComputeNS: time.Since(start).Nanoseconds(), Profile: &b}
	if evalErr != nil {
		term.Err = evalErr.Error()
		s.log.Debug("operator eval failed", "query", req.QueryID, "err", evalErr)
	}
	return enc.Encode(term)
}

// countingConn wraps a net.Conn and counts bytes in each direction.
type countingConn struct {
	net.Conn
	read, written int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read += int64(n)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written += int64(n)
	return n, err
}

// ErrBrokenConn marks a client whose gob stream desynced (any send or
// receive error poisons the connection — a partially consumed stream must
// never be reused) and whose transparent redial failed. Callers can match it
// with errors.Is and treat the site as down.
var ErrBrokenConn = errors.New("transport: connection broken")

// defaultDialTimeout bounds Dial (including the hello round-trip) when the
// caller supplies no context: a black-holed address must not hang forever.
const defaultDialTimeout = 10 * time.Second

// Client is a TCP Site: it connects to a Server and implements the Site
// interface with per-call byte accounting from the connection itself.
//
// The client owns one buffered reader over the connection, shared between the
// gob decoder and the relation codec decoder. gob never over-reads from an
// io.ByteReader, so alternating the two on the same stream is safe.
//
// Any transport error poisons the connection: gob encoders and decoders are
// stateful, so after a failed exchange the stream position is unknown and
// reusing it would decode garbage. The next call transparently redials and
// re-handshakes; if that fails, it returns an error matching ErrBrokenConn.
type Client struct {
	addr string

	mu     sync.Mutex
	conn   *countingConn
	br     *bufio.Reader
	enc    *gob.Encoder
	dec    *gob.Decoder
	id     int
	hasID  bool
	broken bool
	pool   relation.BlockPool
}

// Dial connects to a site server and performs the hello handshake to learn
// its identity, bounded by defaultDialTimeout. Use DialContext to control
// the deadline.
func Dial(addr string) (*Client, error) {
	//skallavet:allow ctxcall -- lifecycle root mirroring net.DialTimeout; DialContext is the context-threading variant
	ctx, cancel := context.WithTimeout(context.Background(), defaultDialTimeout)
	defer cancel()
	return DialContext(ctx, addr)
}

// DialContext connects to a site server under the context's deadline; the
// deadline covers the TCP connect and the hello round-trip, so a listener
// that accepts but never responds cannot hang the coordinator.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	c := &Client{addr: addr}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.connectLocked(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

// connectLocked (re)establishes the connection and re-handshakes; c.mu held.
// On a reconnect, the hello response must report the same site identity —
// an address now serving a different site would silently corrupt results.
func (c *Client) connectLocked(ctx context.Context) error {
	var d net.Dialer
	raw, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return err
	}
	conn := &countingConn{Conn: raw}
	br := bufio.NewReader(conn)
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(br)
	if dl, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(dl)
	}
	req := &Request{Kind: KindHello}
	var resp Response
	if err := enc.Encode(req); err != nil {
		raw.Close()
		return fmt.Errorf("transport: hello: %w", err)
	}
	if err := dec.Decode(&resp); err != nil {
		raw.Close()
		return fmt.Errorf("transport: hello: %w", err)
	}
	_ = conn.SetDeadline(time.Time{})
	if resp.Err != "" {
		raw.Close()
		return fmt.Errorf("transport: hello: %s", resp.Err)
	}
	if c.hasID && resp.SiteID != c.id {
		raw.Close()
		return fmt.Errorf("transport: reconnect %s: site identity changed (%d -> %d)", c.addr, c.id, resp.SiteID)
	}
	c.id, c.hasID = resp.SiteID, true
	recordCall(callFromSizes(c.id, req, &resp, int(conn.written), int(conn.read)), KindHello, "")
	c.conn, c.br, c.enc, c.dec = conn, br, enc, dec
	c.broken = false
	obs.SiteBroken.With(strconv.Itoa(c.id)).Set(0)
	return nil
}

// ensureLocked returns a healthy connection, redialing a poisoned (or never
// established) one; c.mu held. A failed redial reports ErrBrokenConn
// immediately instead of letting the caller touch a desynced stream.
func (c *Client) ensureLocked(ctx context.Context) error {
	if c.conn != nil && !c.broken {
		return nil
	}
	site := strconv.Itoa(c.id)
	if err := c.connectLocked(ctx); err != nil {
		obs.TransportRedials.With(site, "error").Inc()
		return fmt.Errorf("%w (redial %s: %v)", ErrBrokenConn, c.addr, err)
	}
	obs.TransportRedials.With(site, "ok").Inc()
	return nil
}

// poisonLocked marks the connection unusable after a transport error and
// closes it (waking any server-side handler blocked on it); c.mu held.
func (c *Client) poisonLocked() {
	if c.conn != nil {
		c.conn.Close()
	}
	c.broken = true
	obs.SiteBroken.With(strconv.Itoa(c.id)).Set(1)
}

// ID implements Site.
func (c *Client) ID() int { return c.id }

// Close closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.broken = true
	if c.conn == nil {
		return nil
	}
	return c.conn.Close()
}

func (c *Client) roundTrip(ctx context.Context, req *Request) (*Response, stats.Call, error) {
	attempt := stampTraceContext(ctx, req)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, stats.Call{}, err
	}
	if err := c.ensureLocked(ctx); err != nil {
		return nil, stats.Call{}, err
	}
	if dl, ok := ctx.Deadline(); ok {
		_ = c.conn.SetDeadline(dl)
		defer c.conn.SetDeadline(time.Time{})
	}
	start := time.Now()
	r0, w0 := c.conn.read, c.conn.written
	if err := c.enc.Encode(req); err != nil {
		c.poisonLocked()
		return nil, stats.Call{}, fmt.Errorf("transport: send: %w", err)
	}
	var resp Response
	if err := c.dec.Decode(&resp); err != nil {
		c.poisonLocked()
		return nil, stats.Call{}, fmt.Errorf("transport: receive: %w", err)
	}
	call := callFromSizes(c.id, req, &resp, int(c.conn.written-w0), int(c.conn.read-r0))
	call.Start, call.Elapsed, call.Attempt = start, time.Since(start), attempt
	recordCall(call, req.Kind, req.QueryID)
	if resp.Err != "" {
		return nil, call, errors.New(resp.Err)
	}
	return &resp, call, nil
}

// EvalBase implements Site.
func (c *Client) EvalBase(ctx context.Context, bq gmdj.BaseQuery) (*relation.Relation, stats.Call, error) {
	resp, call, err := c.roundTrip(ctx, &Request{Kind: KindBase, Base: &bq})
	if err != nil {
		return nil, call, err
	}
	return resp.Rel, call, nil
}

// EvalOperatorStream implements Site. The connection stays consistent even
// when sink fails: remaining blocks are drained to the terminal response. A
// transport failure mid-stream, by contrast, leaves the stream position
// unknown, so it poisons the connection — the next call redials.
func (c *Client) EvalOperatorStream(ctx context.Context, req engine.OperatorRequest, sink func(*relation.Relation) error) (stats.Call, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return stats.Call{}, err
	}
	if err := c.ensureLocked(ctx); err != nil {
		return stats.Call{}, err
	}
	if dl, ok := ctx.Deadline(); ok {
		_ = c.conn.SetDeadline(dl)
		defer c.conn.SetDeadline(time.Time{})
	}
	start := time.Now()
	r0, w0 := c.conn.read, c.conn.written
	wireReq := &Request{Kind: KindOperator, Operator: &req}
	attempt := stampTraceContext(ctx, wireReq)
	if err := c.enc.Encode(wireReq); err != nil {
		c.poisonLocked()
		return stats.Call{}, fmt.Errorf("transport: send: %w", err)
	}
	call := stats.Call{Site: c.id, RowsDown: reqRows(wireReq), Start: start, Attempt: attempt}
	blockDec := relation.NewDecoder(c.br)
	blockDec.SetPool(&c.pool)
	var sinkErr error
	for {
		marker, err := c.br.ReadByte()
		if err != nil {
			c.poisonLocked()
			return call, fmt.Errorf("transport: receive: %w", err)
		}
		switch marker {
		case opStreamBlock:
			block, err := blockDec.Decode()
			if err != nil {
				c.poisonLocked()
				return call, fmt.Errorf("transport: receive block: %w", err)
			}
			call.RowsUp += block.Len()
			if sinkErr == nil {
				sinkErr = sink(block)
			} else {
				relation.Recycle(block) // draining after a sink failure
			}
		case opStreamEnd:
			var resp Response
			if err := c.dec.Decode(&resp); err != nil {
				c.poisonLocked()
				return call, fmt.Errorf("transport: receive: %w", err)
			}
			call.Compute = time.Duration(resp.ComputeNS)
			call.BytesDown = int(c.conn.written - w0)
			call.BytesUp = int(c.conn.read - r0)
			call.Elapsed = time.Since(start)
			call.Profile = resp.Profile
			recordCall(call, KindOperator, wireReq.QueryID)
			if resp.Err != "" {
				return call, errors.New(resp.Err)
			}
			return call, sinkErr
		default:
			c.poisonLocked()
			return call, fmt.Errorf("transport: unknown stream marker 0x%02x", marker)
		}
	}
}

// EvalLocal implements Site.
func (c *Client) EvalLocal(ctx context.Context, req engine.LocalRequest) (*relation.Relation, stats.Call, error) {
	resp, call, err := c.roundTrip(ctx, &Request{Kind: KindLocal, Local: &req})
	if err != nil {
		return nil, call, err
	}
	return resp.Rel, call, nil
}

// DetailSchema implements Site.
func (c *Client) DetailSchema(ctx context.Context, name string) (relation.Schema, error) {
	resp, _, err := c.roundTrip(ctx, &Request{Kind: KindSchema, Schema: name})
	if err != nil {
		return nil, err
	}
	return resp.Schema, nil
}

// Tables implements Site.
func (c *Client) Tables(ctx context.Context) ([]engine.TableInfo, error) {
	resp, _, err := c.roundTrip(ctx, &Request{Kind: KindTables})
	if err != nil {
		return nil, err
	}
	return resp.Tables, nil
}

// Load implements Loader: it ships a relation partition to the site.
func (c *Client) Load(ctx context.Context, name string, rel *relation.Relation) error {
	_, _, err := c.roundTrip(ctx, &Request{Kind: KindLoad, LoadName: name, LoadRel: rel})
	return err
}
