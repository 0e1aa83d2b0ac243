package transport

import (
	"bufio"
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"strconv"
	"sync"
	"syscall"
	"time"

	"skalla/internal/engine"
	"skalla/internal/gmdj"
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
// immediately. Every request dispatched to the backend carries a context
// canceled on Close, so shutdown propagates into running evaluations.
func Serve(site Backend, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	//skallavet:allow ctxcall -- lifecycle root: the server's evaluations live until Close
	baseCtx, cancel := context.WithCancel(context.Background())
	s := &Server{
		site:    site,
		ln:      ln,
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
	log := obs.Logger().With("site", s.site.ID(), "remote", rawConn.RemoteAddr().String())
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
	serveConn(ctx, s.site, rawConn, log)
}

// serveConn serves one connection to site until the peer hangs up or a
// request fails: the hello check, then the envelope's requests in order, each
// answered before the next is read. It is the one loop a site runs per
// connection, a TCP one (Server) or an in-process one (NewLocalSite); the
// caller closes rawConn.
func serveConn(ctx context.Context, site Backend, rawConn net.Conn, log *slog.Logger) {
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
	// One set of slabs too, which each request's X is decoded into: the
	// requests are served one at a time.
	frames, enc := relation.NewFrameReader(br), relation.NewEncoder(bw)
	var out msgBuf
	var slabs relation.Slabs
	for {
		r0, w0 := conn.read, conn.written
		req, err := readRequest(frames, &slabs)
		switch {
		case err != nil && !errors.Is(err, errUnknownKind):
			log.Debug("read request failed", "err", err)
			return
		case req.Kind == KindHello:
			// Answer with this site's version, then hang up on another one.
			obs.ServerRequests.With(kindName(KindHello)).Inc()
			if err = out.writeReply(bw, KindHello, &Response{Version: ProtocolVersion, SiteID: site.ID()}); err == nil {
				err = bw.Flush()
			}
			if err == nil && req.Version != ProtocolVersion {
				err = versionError(req.Version)
			}
		default:
			// An unknown kind's frame was read whole: it gets an error reply.
			err = serve(ctx, site, bw, enc, &out, req)
		}
		bytesDown.Add(conn.read - r0)
		bytesUp.Add(conn.written - w0)
		switch {
		case err == nil:
			continue
		case hungUp(ctx, err):
			log.Debug("peer hung up", "kind", kindName(req.Kind), "query", req.QueryID, "err", err)
		default:
			log.Warn("request failed", "kind", kindName(req.Kind), "query", req.QueryID, "err", err)
		}
		return
	}
}

// hungUp reports whether a request's reply failed because the peer closed
// or reset the connection or the serving context ended, as it does for every
// call a coordinator cancels: nothing is wrong with the site. A protocol
// mismatch is never a hang-up.
func hungUp(ctx context.Context, err error) bool {
	if errors.Is(err, ErrProtocol) {
		return false
	}
	return ctx.Err() != nil || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, syscall.EPIPE) || errors.Is(err, syscall.ECONNRESET)
}

// serve answers one request on w: a reply, laid out in out, or for an
// operator request a marker plus a codec frame per H_i block, then the end
// marker and the operator reply carrying the profile and any evaluation
// error. The blocks go through enc, the connection's encoder writing to w,
// reset for the stream so its frames are a fresh encoder's while its body
// buffer is reused. Each block is flushed as it is made. A failed block write
// ends the stream where it is: the end marker and reply are skipped, and
// serve returns that error instead of failing (and logging) twice.
func serve(ctx context.Context, site Backend, w *bufio.Writer, enc *relation.Encoder, out *msgBuf, req *Request) error {
	obs.ServerRequests.With(kindName(req.Kind)).Inc()
	if req.Kind != KindOperator {
		if err := out.writeReply(w, req.Kind, dispatch(ctx, site, req)); err != nil {
			return err
		}
		return w.Flush()
	}
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

// Client is the Site implementation: it reaches a site's connection loop
// (serveConn) over a connection its dial makes, TCP for a Server (Dial) or a
// net.Pipe for an in-process site (NewLocalSite), with per-call byte
// accounting from the connection itself.
//
// The client owns one buffered reader over the connection, shared between
// the envelope's frame reader, the stream markers and the relation codec
// decoder, none of which reads past the end of its frame. The decoder is the
// connection's, reset for every operator stream, so its body buffer is reused.
// The relations a call receives are built in the slabs its context lends
// (WithSlabs), or on the heap.
//
// Any transport error poisons the connection: after a failed exchange the
// position in the stream is unknown — a reply half read, a block half
// written — and reading on would decode the middle of a frame as its start.
// A call whose context ends while it waits on the site fails the same way,
// with the context's error. The next call transparently redials and
// re-handshakes; if that fails, it returns an error matching ErrBrokenConn.
type Client struct {
	addr string // what dial reaches, for errors
	dial func(context.Context) (net.Conn, error)

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
// its identity, bounded by 10 s, so a black-holed address cannot hang it. Use
// DialContext to control the deadline.
func Dial(addr string) (*Client, error) {
	//skallavet:allow ctxcall -- lifecycle root mirroring net.DialTimeout; DialContext is the context-threading variant
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return DialContext(ctx, addr)
}

// DialContext connects to a site server under the context's deadline; the
// deadline covers the TCP connect and the hello round-trip, so a listener
// that accepts but never responds cannot hang the coordinator.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	c := &Client{addr: addr, dial: func(ctx context.Context) (net.Conn, error) { return new(net.Dialer).DialContext(ctx, "tcp", addr) }}
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
// silently corrupt results. The context bounds the hello as it bounds a call.
func (c *Client) connectLocked(ctx context.Context) error {
	raw, err := c.dial(ctx)
	if err != nil {
		return err
	}
	stop := context.AfterFunc(ctx, func() { _ = raw.SetDeadline(time.Unix(1, 0)) })
	conn := &countingConn{Conn: raw}
	br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
	frames := relation.NewFrameReader(br)
	err = c.out.writeRequest(bw, &Request{Kind: KindHello, Version: ProtocolVersion})
	if err == nil {
		err = bw.Flush()
	}
	var resp *Response
	if err == nil {
		resp, err = readReply(frames, KindHello, nil)
	}
	// A context that ended during the hello may have spent the deadline.
	if stop(); err == nil {
		err = ctx.Err()
	}
	if err != nil {
		raw.Close()
		return fmt.Errorf("transport: hello %s: %w", c.addr, cmp.Or(ctx.Err(), err))
	}
	if c.hasID && resp.SiteID != c.id {
		raw.Close()
		return fmt.Errorf("transport: reconnect %s: site identity changed (%d -> %d)", c.addr, c.id, resp.SiteID)
	}
	c.id, c.hasID = resp.SiteID, true
	recordCall(stats.Call{Site: c.id, BytesDown: int(conn.written), BytesUp: int(conn.read)}, KindHello, "")
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
	c.conn.Close()
	c.broken = true
	obs.SiteBroken.With(strconv.Itoa(c.id)).Set(1)
}

// ID implements Site.
func (c *Client) ID() int { return c.id }

// Close closes the connection (a poisoned one is closed already).
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil || c.broken {
		return nil
	}
	c.broken = true
	return c.conn.Close()
}

// roundTrip sends req and reads its one reply, a relation it carries decoded
// into the slabs ctx lends (WithSlabs).
func (c *Client) roundTrip(ctx context.Context, req *Request) (*Response, stats.Call, error) {
	return c.call(ctx, req, func(*stats.Call) (*Response, error) { return readReply(c.frames, req.Kind, SlabsFrom(ctx)) })
}

type slabsKey struct{}

// WithSlabs lends s to the calls made under ctx: the relations their replies
// carry — an EvalBase or EvalLocal reply, each block of an operator stream —
// are decoded into s, and are valid until its owner resets it. Without a
// lend they are decoded on the heap.
func WithSlabs(ctx context.Context, s *relation.Slabs) context.Context {
	return context.WithValue(ctx, slabsKey{}, s)
}

// SlabsFrom returns the slabs ctx lends, nil when it lends none.
func SlabsFrom(ctx context.Context) *relation.Slabs {
	s, _ := ctx.Value(slabsKey{}).(*relation.Slabs)
	return s
}

// call sends req, stamped with the context's trace fields (query ID, round,
// attempt), reads what answers it with recv and records the call. Any
// transport failure poisons the connection: the next call redials. A context
// that ends mid-exchange expires the connection's deadline, so the call
// returns at once with the context's error; if it ends as the call
// completes, the connection is poisoned all the same, its deadline spent.
func (c *Client) call(ctx context.Context, req *Request, recv func(*stats.Call) (*Response, error)) (*Response, stats.Call, error) {
	req.QueryID, req.Round, req.Attempt = obs.QueryIDFrom(ctx), obs.RoundFrom(ctx), obs.AttemptFrom(ctx)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, stats.Call{}, err
	}
	if err := c.ensureLocked(ctx); err != nil {
		return nil, stats.Call{}, err
	}
	if ctx.Done() != nil {
		conn := c.conn
		// A deadline long past fails the blocked read or write at once.
		stop := context.AfterFunc(ctx, func() { _ = conn.SetDeadline(time.Unix(1, 0)) })
		defer func() {
			if !stop() {
				c.poisonLocked()
			}
		}()
	}
	call := stats.Call{Site: c.id, Start: time.Now(), Attempt: req.Attempt}
	r0, w0 := c.conn.read, c.conn.written
	err := c.out.writeRequest(c.bw, req)
	if err == nil {
		err = c.bw.Flush()
	}
	if err != nil {
		c.poisonLocked()
		return nil, call, fmt.Errorf("transport: send: %w", cmp.Or(ctx.Err(), err))
	}
	resp, err := recv(&call)
	call.Elapsed = time.Since(call.Start)
	if err != nil {
		c.poisonLocked()
		return nil, call, fmt.Errorf("transport: receive: %w", cmp.Or(ctx.Err(), err))
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

// EvalBase implements Site.
func (c *Client) EvalBase(ctx context.Context, bq gmdj.BaseQuery) (*relation.Relation, stats.Call, error) {
	resp, call, err := c.roundTrip(ctx, &Request{Kind: KindBase, Base: &bq})
	if err != nil {
		return nil, call, err
	}
	return resp.Rel, call, nil
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
	resp, _, err := c.roundTrip(ctx, &Request{Kind: KindSchema, Name: name})
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

// Load ships a relation partition to the site.
func (c *Client) Load(ctx context.Context, name string, rel *relation.Relation) error {
	_, _, err := c.roundTrip(ctx, &Request{Kind: KindLoad, Name: name, LoadRel: rel})
	return err
}

// EvalOperatorStream implements Site. The blocks are decoded into the slabs
// ctx lends (WithSlabs). The connection stays consistent even when sink
// fails: remaining blocks are drained to the operator reply. A
// transport failure mid-stream, by contrast, leaves the stream position
// unknown, so it poisons the connection — the next call redials.
func (c *Client) EvalOperatorStream(ctx context.Context, req engine.OperatorRequest, sink func(*relation.Relation) error) (stats.Call, error) {
	var sinkErr error
	slabs := SlabsFrom(ctx)
	_, call, err := c.call(ctx, &Request{Kind: KindOperator, Operator: &req}, func(call *stats.Call) (*Response, error) {
		if req.Base != nil {
			call.RowsDown = req.Base.Len()
		}
		c.dec.Reset()
		for {
			marker, err := c.br.ReadByte()
			if err != nil {
				return nil, err
			}
			switch marker {
			case opStreamBlock:
				block, err := c.dec.Decode(slabs)
				if err != nil {
					return nil, fmt.Errorf("block: %w", err)
				}
				call.RowsUp += block.Len()
				if sinkErr == nil {
					sinkErr = sink(block)
				}
			case opStreamEnd:
				return readReply(c.frames, KindOperator, nil)
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
