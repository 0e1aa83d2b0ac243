package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"strconv"
	"sync"
	"time"

	"skalla/internal/engine"
	"skalla/internal/obs"
	"skalla/internal/relation"
	"skalla/internal/stats"
)

// Operator replies stream: each H_i block is announced with a one-byte marker
// followed by a relation wire-codec frame (schema shipped once per stream),
// and the stream ends with an end marker followed by the operator's reply.
const (
	opStreamEnd   = 0x00
	opStreamBlock = 0x01
)

// maxHelloBody bounds the body of the hello that opens every connection: a
// kind byte and a version.
const maxHelloBody = 1 + binary.MaxVarintLen32

// Server exposes a site engine over TCP. The wire protocol is a sequence of
// envelope requests and replies per connection (envelope.go), processed in
// order, opened by a hello; operator replies stream codec-framed H_i blocks
// (see the stream markers above).
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

// Serve starts serving a backend (a site engine, or a wrapper of one) on the
// given address ("host:port"; use ":0" for an ephemeral port) and returns
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
	br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
	// A peer that does not open with a hello (a gob-era coordinator, say) does
	// not speak this protocol: close before trusting a length it sent.
	if p, err := br.Peek(2); err != nil || p[0] > maxHelloBody || p[1] != byte(KindHello) {
		log.Debug("peer does not open with a hello")
		return
	}
	// One frame reader, one message buffer and one block encoder per
	// connection: every request, reply and operator stream on it reuses
	// their buffers.
	frames, enc := relation.NewFrameReader(br), relation.NewEncoder(bw)
	var out msgBuf
	for {
		r0, w0 := conn.read, conn.written
		req, err := readRequest(frames)
		switch {
		case err != nil && !errors.Is(err, errUnknownKind):
			log.Debug("read request failed", "err", err)
			return
		case req.Kind == KindHello:
			// Answer with this site's version, then hang up on another one.
			obs.ServerRequests.With(kindName(KindHello)).Inc()
			if err = out.writeReply(bw, KindHello, &Response{Version: ProtocolVersion, SiteID: s.site.ID()}); err == nil {
				err = bw.Flush()
			}
			if err == nil && req.Version != ProtocolVersion {
				err = versionError(req.Version)
			}
		default:
			// An unknown kind's frame was read whole: it gets an error reply.
			err = serve(ctx, s.site, bw, enc, &out, req, nil)
		}
		bytesDown.Add(conn.read - r0)
		bytesUp.Add(conn.written - w0)
		if err != nil {
			log.Warn("request failed", "kind", kindName(req.Kind), "query", req.QueryID, "err", err)
			return
		}
	}
}

// serve answers one request on w: a reply, laid out in out, or for an
// operator request a marker plus a codec frame per H_i block, then the end
// marker and the operator reply carrying the profile and any evaluation
// error. The blocks go through enc, the connection's encoder writing to w,
// reset for the stream so its frames are a fresh encoder's while its body
// buffer is reused. Each block is flushed as it is made, then handed to sent
// (nil on a connection: LocalSite reads each block off its buffer there). A
// failed block write or sent ends the stream where it is: the end marker and
// reply are skipped, and serve returns that error instead of failing (and
// logging) twice.
func serve(ctx context.Context, site Backend, w *bufio.Writer, enc *relation.Encoder, out *msgBuf, req *Request, sent func() error) error {
	if req.Kind != KindOperator {
		if err := out.writeReply(w, req.Kind, dispatch(ctx, site, req)); err != nil {
			return err
		}
		return w.Flush()
	}
	obs.ServerRequests.With(kindName(req.Kind)).Inc()
	var streamErr error
	profile, evalErr := measure(ctx, func(ctx context.Context) error {
		rec := obs.RecorderFrom(ctx)
		enc.Reset()
		err := site.EvalOperatorBlocks(ctx, *req.Operator, func(block *relation.Relation) error {
			streamErr = w.WriteByte(opStreamBlock)
			if streamErr == nil {
				streamErr = enc.Encode(block)
			}
			if streamErr == nil {
				streamErr = w.Flush()
			}
			// The marker byte travels with every block frame.
			rec.AddCodecBytes(1)
			if streamErr == nil && sent != nil {
				streamErr = sent()
			}
			return streamErr
		})
		rec.AddCodecBytes(enc.Bytes())
		return err
	})
	if streamErr != nil {
		return streamErr
	}
	term := &Response{Profile: profile}
	if evalErr != nil {
		term.Err = evalErr.Error()
		obs.Logger().Debug("operator eval failed", "site", site.ID(), "query", req.QueryID, "err", evalErr)
	}
	if err := w.WriteByte(opStreamEnd); err != nil {
		return err
	}
	if err := out.writeReply(w, KindOperator, term); err != nil {
		return err
	}
	return w.Flush()
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

// ErrBrokenConn marks a client whose connection was poisoned (any send or
// receive error leaves the stream position unknown, so the connection must
// never be reused) and whose transparent redial failed. Callers can match it
// with errors.Is and treat the site as down.
var ErrBrokenConn = errors.New("transport: connection broken")

// defaultDialTimeout bounds Dial (including the hello round-trip) when the
// caller supplies no context: a black-holed address must not hang forever.
const defaultDialTimeout = 10 * time.Second

// Client is a TCP Site: it connects to a Server and implements the Site
// interface with per-call byte accounting from the connection itself.
//
// The client owns one buffered reader over the connection, shared between
// the envelope's frame reader, the stream markers and the relation codec
// decoder, none of which reads past the end of its frame. The decoder is the
// connection's, reset for every operator stream, so its body buffer is reused.
//
// Any transport error poisons the connection: after a failed exchange the
// position in the stream is unknown — a reply half read, a block half
// written — and reading on would decode the middle of a frame as its start.
// The next call transparently redials and re-handshakes; if that fails, it
// returns an error matching ErrBrokenConn.
type Client struct {
	exchange
	addr string

	mu     sync.Mutex
	conn   *countingConn
	br     *bufio.Reader
	bw     *bufio.Writer
	frames *relation.FrameReader
	dec    *relation.Decoder
	out    msgBuf
	id     int
	hasID  bool
	broken bool
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
	c.exchange = c.roundTrip
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.connectLocked(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

// connectLocked (re)establishes the connection and re-handshakes; c.mu held.
// The hello exchanges protocol versions, and a site speaking another one
// fails the dial with ErrProtocol. On a reconnect, the hello must report the
// same site identity — an address now serving a different site would
// silently corrupt results.
func (c *Client) connectLocked(ctx context.Context) error {
	var d net.Dialer
	raw, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return err
	}
	conn := &countingConn{Conn: raw}
	br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
	frames := relation.NewFrameReader(br)
	if dl, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(dl)
	}
	req := &Request{Kind: KindHello, Version: ProtocolVersion}
	err = c.out.writeRequest(bw, req)
	if err == nil {
		err = bw.Flush()
	}
	var resp *Response
	if err == nil {
		resp, err = readReply(frames, KindHello)
	}
	if err != nil {
		raw.Close()
		return fmt.Errorf("transport: hello %s: %w", c.addr, err)
	}
	_ = conn.SetDeadline(time.Time{})
	if c.hasID && resp.SiteID != c.id {
		raw.Close()
		return fmt.Errorf("transport: reconnect %s: site identity changed (%d -> %d)", c.addr, c.id, resp.SiteID)
	}
	c.id, c.hasID = resp.SiteID, true
	recordCall(callFromSizes(c.id, resp, int(conn.written), int(conn.read)), KindHello, "")
	c.conn, c.br, c.bw, c.frames, c.dec = conn, br, bw, frames, relation.NewDecoder(br)
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

// sendLocked writes one request; c.mu held.
func (c *Client) sendLocked(req *Request) error {
	if err := c.out.writeRequest(c.bw, req); err != nil {
		return err
	}
	return c.bw.Flush()
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
	return c.call(ctx, req, func(*stats.Call) (*Response, error) { return readReply(c.frames, req.Kind) })
}

// call sends req, reads what answers it with recv, and records the call.
// Any transport failure poisons the connection: the next call redials.
func (c *Client) call(ctx context.Context, req *Request, recv func(*stats.Call) (*Response, error)) (*Response, stats.Call, error) {
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
	call := stats.Call{Site: c.id, Start: time.Now(), Attempt: attempt}
	r0, w0 := c.conn.read, c.conn.written
	if err := c.sendLocked(req); err != nil {
		c.poisonLocked()
		return nil, call, fmt.Errorf("transport: send: %w", err)
	}
	resp, err := recv(&call)
	call.Elapsed = time.Since(call.Start)
	if err != nil {
		c.poisonLocked()
		return nil, call, fmt.Errorf("transport: receive: %w", err)
	}
	call.BytesDown, call.BytesUp = int(c.conn.written-w0), int(c.conn.read-r0)
	call.Compute, call.Breakdown = time.Duration(resp.Profile.EvalNS), &resp.Profile
	if resp.Rel != nil {
		call.RowsUp = resp.Rel.Len()
	}
	recordCall(call, req.Kind, req.QueryID)
	if resp.Err != "" {
		return nil, call, siteError(resp.Err)
	}
	return resp, call, nil
}

// EvalOperatorStream implements Site. The connection stays consistent even
// when sink fails: remaining blocks are drained to the operator reply. A
// transport failure mid-stream, by contrast, leaves the stream position
// unknown, so it poisons the connection — the next call redials.
func (c *Client) EvalOperatorStream(ctx context.Context, req engine.OperatorRequest, sink func(*relation.Relation) error) (stats.Call, error) {
	var sinkErr error
	_, call, err := c.call(ctx, &Request{Kind: KindOperator, Operator: &req}, func(call *stats.Call) (*Response, error) {
		call.RowsDown = baseRows(&req)
		c.dec.Reset()
		for {
			marker, err := c.br.ReadByte()
			if err != nil {
				return nil, err
			}
			switch marker {
			case opStreamBlock:
				block, err := c.dec.Decode()
				if err != nil {
					return nil, fmt.Errorf("block: %w", err)
				}
				call.RowsUp += block.Len()
				if sinkErr == nil {
					sinkErr = sink(block)
				}
			case opStreamEnd:
				return readReply(c.frames, KindOperator)
			default:
				return nil, fmt.Errorf("unknown stream marker 0x%02x", marker)
			}
		}
	})
	if err != nil {
		return call, err
	}
	return call, sinkErr
}
