package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"time"

	"skalla/internal/obs"
	"skalla/internal/relation"
)

// Result is what a Handler returns for one successful statement.
type Result struct {
	// Rel holds the result rows. The reply carries Rel.Frame(), so a
	// relation declared finished (relation.ShareFrame) and every view of it
	// are sent as one frame, encoded once for all sessions.
	Rel *relation.Relation
	// CacheHit reports whether a prepared plan was reused.
	CacheHit bool
	// Queued is the time spent in the admission queue.
	Queued time.Duration
}

// Handler evaluates one statement under the given context. The context
// carries the session's query ID (obs.QueryIDFrom), so evaluation profiles
// land in /debug/queries under the same identifier the client sees. Handlers
// are called concurrently from many sessions and must be safe for that.
type Handler func(ctx context.Context, stmt string) (*Result, error)

// CodedError attaches a wire error code (see ErrorInfo.Code) to an error.
// Handlers return it to classify failures for clients; any other error is
// reported with code "internal".
type CodedError struct {
	Code string
	Err  error
}

func (e *CodedError) Error() string { return e.Err.Error() }
func (e *CodedError) Unwrap() error { return e.Err }

// Coded wraps err with a wire error code.
func Coded(code string, err error) error { return &CodedError{Code: code, Err: err} }

// ErrShutdown is returned to statements that arrive while the server is
// draining; clients receive it with code "shutdown".
var ErrShutdown = errors.New("server: shutting down")

// Server accepts client sessions on a TCP listener and evaluates their
// statements through a Handler. Each connection is one session; statements on
// a session run sequentially (the protocol is one query frame, one response),
// while separate sessions run concurrently — bounded by the coordinator's
// admission control, not by the server.
type Server struct {
	h   Handler
	ln  net.Listener
	log *slog.Logger

	// baseCtx parents every statement's evaluation context; cancel fires when
	// shutdown gives up on draining, so stuck evaluations are interrupted.
	baseCtx context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	draining bool
	closed   bool
	conns    map[net.Conn]struct{}
	sessions int64 // session ID sequence

	wg       sync.WaitGroup // accept loop + session handlers
	inflight sync.WaitGroup // statements currently evaluating
}

// Serve starts a query server on addr ("host:port"; ":0" for an ephemeral
// port) and returns immediately. It is the convenience lifecycle root; use
// ServeContext to tie evaluations to an existing context tree.
func Serve(h Handler, addr string) (*Server, error) {
	//skallavet:allow ctxcall -- lifecycle root: ServeContext is the context-threading variant
	return ServeContext(context.Background(), h, addr)
}

// ServeContext is Serve under a parent context: every statement evaluates
// under a context derived from it.
func ServeContext(ctx context.Context, h Handler, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	baseCtx, cancel := context.WithCancel(ctx)
	s := &Server{
		h:       h,
		ln:      ln,
		log:     obs.Logger().With("component", "queryserver"),
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

// Shutdown drains the server: the listener closes (no new sessions),
// statements already evaluating run to completion, and statements arriving on
// open sessions are refused with code "shutdown". When the in-flight
// statements finish — or ctx expires first — evaluation contexts are
// canceled, every session connection is closed, and Shutdown returns ctx's
// error if the drain was cut short.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()
	s.ln.Close()

	drained := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.log.Warn("shutdown drain cut short", "err", err)
	}

	s.cancel()
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// Close shuts the server down immediately, without draining.
func (s *Server) Close() error {
	//skallavet:allow ctxcall -- lifecycle root: immediate shutdown needs an already-expired drain window
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Shutdown(ctx)
	if errors.Is(err, context.Canceled) {
		return nil // the zero-length drain window is the point, not a failure
	}
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
		if s.closed || s.draining {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.sessions++
		sess := s.sessions
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn, sess)
	}
}

func (s *Server) handle(conn net.Conn, sess int64) {
	defer s.wg.Done()
	log := s.log.With("session", sess, "remote", conn.RemoteAddr().String())
	obs.ServerSessions.Inc()
	obs.ServerActiveSessions.Add(1)
	log.Debug("session open")
	// sessCtx parents every statement this session evaluates; it is canceled
	// the moment the connection drops, so a statement parked in the
	// coordinator's admission queue releases its queue slot instead of
	// executing for a client that already went away.
	sessCtx, cancel := context.WithCancel(s.baseCtx)
	defer func() {
		cancel()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		obs.ServerActiveSessions.Add(-1)
		log.Debug("session closed")
	}()
	// Frames are read by a dedicated goroutine so a disconnect is noticed
	// while a statement is still evaluating (the protocol is one query frame,
	// one response — during evaluation the client sends nothing, so a read
	// completing early means EOF or a corrupt stream). The goroutine is
	// bounded by sessCtx and unblocked by the deferred conn.Close.
	type frame struct {
		kind    byte
		payload []byte
	}
	frames := make(chan frame)
	go func() {
		br := bufio.NewReader(conn)
		for {
			kind, payload, err := readFrame(br)
			if err != nil {
				cancel() // disconnect (or corrupt stream): release queued statements
				return
			}
			select {
			case frames <- frame{kind: kind, payload: payload}:
			case <-sessCtx.Done():
				return
			}
		}
	}()
	for seq := int64(1); ; seq++ {
		var f frame
		select {
		case f = <-frames:
		case <-sessCtx.Done():
			return // session ended or corrupt stream
		}
		if f.kind != frameQuery {
			log.Warn("unexpected frame kind", "kind", fmt.Sprintf("0x%02x", f.kind))
			return
		}
		qid := fmt.Sprintf("s%d-%d", sess, seq)
		if err := s.serveQuery(sessCtx, conn, qid, string(f.payload)); err != nil {
			log.Warn("response write failed", "query", qid, "err", err)
			return
		}
	}
}

// serveQuery evaluates one statement under the session's context and writes
// its response frames. The returned error is a connection-level write
// failure; evaluation failures are reported to the client in an error frame
// and are not errors here.
func (s *Server) serveQuery(ctx context.Context, conn net.Conn, qid, stmt string) error {
	s.mu.Lock()
	draining := s.draining
	if !draining {
		// Registering under the lock closes the race with Shutdown: a
		// statement is either counted before the drain snapshot or refused.
		s.inflight.Add(1)
	}
	s.mu.Unlock()
	if draining {
		obs.ServerQueries.With("shutdown").Inc()
		return writeJSONFrame(conn, frameError, ErrorInfo{Code: "shutdown", Message: ErrShutdown.Error()})
	}
	defer s.inflight.Done()

	ctx = obs.WithQueryID(ctx, qid)
	start := time.Now()
	res, err := s.h(ctx, stmt)
	// The reply frame is cut before anything is written, so a result that
	// cannot be encoded is an error frame, not a half-sent reply. A shared
	// result hands back the frame cut for its first consumer.
	var frame []byte
	if err == nil {
		frame, err = res.Rel.Frame()
	}
	if err != nil {
		info := ErrorInfo{Code: "internal", Message: err.Error()}
		var coded *CodedError
		if errors.As(err, &coded) {
			info.Code = coded.Code
		}
		switch info.Code {
		case "rejected":
			obs.ServerQueries.With("rejected").Inc()
		case "shutdown":
			obs.ServerQueries.With("shutdown").Inc()
		default:
			obs.ServerQueries.With("error").Inc()
		}
		return writeJSONFrame(conn, frameError, info)
	}
	obs.ServerQueries.With("ok").Inc()
	info := ResultInfo{
		QueryID:   qid,
		Rows:      res.Rel.Len(),
		ElapsedNS: (time.Since(start) - res.Queued).Nanoseconds(),
		QueueNS:   res.Queued.Nanoseconds(),
		CacheHit:  res.CacheHit,
	}
	if err := writeJSONFrame(conn, frameResult, info); err != nil {
		return err
	}
	_, err = conn.Write(frame)
	return err
}
