package transport

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"log/slog"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"skalla/internal/engine"
	"skalla/internal/gmdj"
	"skalla/internal/relation"
)

// A listener that accepts connections but never answers the hello must not
// hang Dial: the context deadline bounds the whole handshake.
func TestDialContextDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // accept and say nothing
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := DialContext(ctx, ln.Addr().String()); err == nil {
		t.Fatal("DialContext against a mute listener must fail")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("DialContext took %v, deadline was 100ms", elapsed)
	}
}

// A server dying mid-stream leaves the client's decode stream desynced: the
// failing call must poison the connection, and the next call must fail fast
// with ErrBrokenConn (after the transparent redial fails) instead of decoding
// garbage from the old stream.
func TestBrokenStreamPoisonsClient(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		frames := relation.NewFrameReader(bufio.NewReader(conn))
		if _, err := readRequest(frames, nil); err != nil { // hello
			return
		}
		writeReply(conn, KindHello, &Response{Version: ProtocolVersion, SiteID: 5})
		if _, err := readRequest(frames, nil); err != nil { // operator request
			return
		}
		conn.Write([]byte{opStreamBlock}) // announce a block...
		conn.Close()                      // ...and die mid-frame
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	cli, err := DialContext(ctx, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	_, err = cli.EvalOperatorStream(ctx, opRequest(), func(*relation.Relation) error { return nil })
	if err == nil {
		t.Fatal("stream against a dying server must fail")
	}
	if errors.Is(err, ErrBrokenConn) {
		t.Fatalf("first failure reported ErrBrokenConn (%v); that belongs to the next call", err)
	}

	// The next call redials; the test listener never serves a second hello,
	// so the short deadline trips and the error must identify the broken
	// connection distinctly and promptly.
	cctx, ccancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer ccancel()
	start := time.Now()
	_, _, err = cli.EvalBase(cctx, gmdj.BaseQuery{Detail: "T", Cols: []string{"g"}})
	if !errors.Is(err, ErrBrokenConn) {
		t.Fatalf("call on poisoned client: err = %v, want ErrBrokenConn", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("poisoned call took %v, want fast failure", elapsed)
	}
}

// The full reconnect path: a server restart on the same address is invisible
// to the caller — the call after the failure redials, re-handshakes, verifies
// the site identity and succeeds.
func TestClientReconnectsAfterServerRestart(t *testing.T) {
	srv, err := Serve(testSite(t, 7), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	bq := gmdj.BaseQuery{Detail: "T", Cols: []string{"g"}}
	if _, _, err := cli.EvalBase(context.Background(), bq); err != nil {
		t.Fatalf("healthy call failed: %v", err)
	}

	// Kill the server: the in-flight connection breaks and the next call
	// fails (poisoning the client).
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cli.EvalBase(context.Background(), bq); err == nil {
		t.Fatal("call against dead server must fail")
	}

	// Restart on the same address: the client's next call must transparently
	// redial and succeed.
	srv2, err := Serve(testSite(t, 7), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	got, _, err := cli.EvalBase(context.Background(), bq)
	if err != nil {
		t.Fatalf("call after server restart failed: %v", err)
	}
	if got.Len() != 3 {
		t.Errorf("reconnected call rows = %d, want 3", got.Len())
	}
	if cli.ID() != 7 {
		t.Errorf("client ID changed to %d after reconnect", cli.ID())
	}
}

// A reconnect that lands on a different site identity must be refused —
// silently merging another site's fragments would corrupt results.
func TestReconnectRejectsIdentityChange(t *testing.T) {
	srv, err := Serve(testSite(t, 3), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	bq := gmdj.BaseQuery{Detail: "T", Cols: []string{"g"}}
	if _, _, err := cli.EvalBase(context.Background(), bq); err == nil {
		t.Fatal("call against dead server must fail")
	}

	// Same address, different site.
	srv2, err := Serve(testSite(t, 8), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, _, err := cli.EvalBase(ctx, bq); err == nil || !errors.Is(err, ErrBrokenConn) {
		t.Fatalf("identity change: err = %v, want ErrBrokenConn", err)
	}
}

// hangingSite is a site whose EvalLocal blocks until its context is done,
// then reports that context's error on seen; closing release ends it too, so
// a test that fails does not hang on it.
type hangingSite struct {
	*engine.Site
	started, release chan struct{}
	seen             chan error
}

func (h hangingSite) EvalLocal(ctx context.Context, _ engine.LocalRequest) (*relation.Relation, error) {
	h.started <- struct{}{}
	select {
	case <-ctx.Done():
	case <-h.release:
	}
	h.seen <- ctx.Err()
	return nil, errors.New("released")
}

// TestCallCancelReturnsPromptly: cancelling a context without a deadline
// ends a call blocked on the site within a second, with an error matching
// context.Canceled, in process and over TCP; in process the site's own
// context is cancelled too. The next call on the same client redials and
// succeeds.
func TestCallCancelReturnsPromptly(t *testing.T) {
	for _, name := range []string{"local", "tcp"} {
		t.Run(name, func(t *testing.T) {
			site := hangingSite{Site: testSite(t, 2), started: make(chan struct{}, 1), release: make(chan struct{}), seen: make(chan error, 1)}
			var cli *Client
			if name == "local" {
				cli = localSite(t, site)
			} else {
				srv, err := Serve(site, "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { srv.Close() })
				if cli, err = Dial(srv.Addr()); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { cli.Close() })
			}
			// Cleanups run last first: a call still blocked on the site holds
			// the client until the site is released.
			t.Cleanup(func() { close(site.release) })
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() {
				_, _, err := cli.EvalLocal(ctx, engine.LocalRequest{Query: gmdj.Query{Base: gmdj.BaseQuery{Detail: "T", Cols: []string{"g"}}}})
				done <- err
			}()
			<-site.started
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled call: err = %v, want context.Canceled", err)
				}
			case <-time.After(time.Second):
				t.Fatal("a cancelled call still waits on the site after 1s")
			}
			if name == "local" {
				select {
				case err := <-site.seen:
					if !errors.Is(err, context.Canceled) {
						t.Errorf("the site's context ended with %v, want context.Canceled", err)
					}
				case <-time.After(time.Second):
					t.Error("the site's context is not cancelled 1s after its caller's")
				}
			}
			got, _, err := cli.EvalBase(context.Background(), gmdj.BaseQuery{Detail: "T", Cols: []string{"g"}})
			if err != nil || got.Len() != 3 {
				t.Fatalf("the call after a cancel: %v", err)
			}
		})
	}
}

// TestReconnectHonoursCancel: the redial of a poisoned client is bounded by
// the call's context, a cancel without a deadline too: a listener that
// accepts but never answers the hello does not hold the call past the
// cancel.
func TestReconnectHonoursCancel(t *testing.T) {
	srv, err := Serve(testSite(t, 1), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv.Close()
	bq := gmdj.BaseQuery{Detail: "T", Cols: []string{"g"}}
	if _, _, err := cli.EvalBase(context.Background(), bq); err == nil {
		t.Fatal("call against a closed server must fail")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot listen on %s again: %v", addr, err)
	}
	defer ln.Close()
	mute := make(chan struct{})
	defer close(mute)
	go func() {
		if conn, err := ln.Accept(); err == nil {
			// Accept and say nothing, until the test ends or long past the
			// cancel, so a redial that ignores it fails rather than hangs.
			select {
			case <-mute:
			case <-time.After(5 * time.Second):
			}
			conn.Close()
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	if _, _, err := cli.EvalBase(ctx, bq); !errors.Is(err, ErrBrokenConn) {
		t.Errorf("redial to a mute listener: err = %v, want ErrBrokenConn", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("a cancelled redial returned after %v", elapsed)
	}
}

// TestServeConnLogsHangupAtDebug: a call the coordinator cancels ends its
// connection while the site still works on it, so the reply cannot be
// written; the site logs that at DEBUG as a hang-up, not at WARN, in process
// and over TCP. A hello of another protocol version still logs at WARN.
func TestServeConnLogsHangupAtDebug(t *testing.T) {
	for _, network := range []string{"pipe", "tcp"} {
		t.Run(network+"/cancelled call", func(t *testing.T) {
			site := hangingSite{Site: testSite(t, 2), started: make(chan struct{}, 1), release: make(chan struct{}), seen: make(chan error, 1)}
			defer close(site.release)
			logs, cli, shutdown := serveLogged(t, network, site)
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, _, err := cli.EvalLocal(ctx, engine.LocalRequest{Query: gmdj.Query{Base: gmdj.BaseQuery{Detail: "T", Cols: []string{"g"}}}})
				done <- err
			}()
			<-site.started
			cancel()
			if err := <-done; !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled call: err = %v, want context.Canceled", err)
			}
			// Over TCP the site shuts down as Server.Close does; in process the
			// client's end closing has already ended the serving context.
			shutdown()
			if strings.Contains(logs.String(), "level=WARN") || !strings.Contains(logs.String(), "peer hung up") {
				t.Errorf("site log after a cancelled call:\n%s\nwant a DEBUG hang-up and no WARN record", logs)
			}
		})
		t.Run(network+"/version mismatch", func(t *testing.T) {
			logs, cli, shutdown := serveLogged(t, network, testSite(t, 2))
			conn, err := cli.dial(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			var out msgBuf
			bw := bufio.NewWriter(conn)
			if err := out.writeRequest(bw, &Request{Kind: KindHello, Version: ProtocolVersion + 1}); err != nil || bw.Flush() != nil {
				t.Fatalf("hello: %v", err)
			}
			if resp, err := readReply(relation.NewFrameReader(bufio.NewReader(conn)), KindHello, nil); err != nil || resp.Version != ProtocolVersion {
				t.Fatalf("hello reply %+v, %v", resp, err)
			}
			conn.Close()
			shutdown()
			if !strings.Contains(logs.String(), "level=WARN") {
				t.Errorf("site log after a hello of version %d:\n%s\nwant a WARN record", ProtocolVersion+1, logs)
			}
		})
	}
}

// serveLogged serves site on network ("pipe" or "tcp") through serveConn
// with a logger writing into the returned buffer, and returns a client of it
// and a shutdown that closes the site's connections, cancels their serving
// context and waits for every serveConn to return, after which the buffer
// may be read.
func serveLogged(t *testing.T, network string, site Backend) (*bytes.Buffer, *Client, func()) {
	t.Helper()
	var logs bytes.Buffer
	log := slog.New(slog.NewTextHandler(&logs, &slog.HandlerOptions{Level: slog.LevelDebug}))
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	serve := func(conn net.Conn) {
		mu.Lock()
		conns = append(conns, conn)
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			serveConn(ctx, site, conn, log)
		}()
	}
	var dial func(context.Context) (net.Conn, error)
	var ln net.Listener
	if network == "pipe" {
		dial = func(context.Context) (net.Conn, error) {
			near, far := net.Pipe()
			serve(far)
			return near, nil
		}
	} else {
		var err error
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				serve(conn)
			}
		}()
		dial = func(ctx context.Context) (net.Conn, error) {
			return new(net.Dialer).DialContext(ctx, "tcp", ln.Addr().String())
		}
	}
	cli := &Client{addr: network, dial: dial}
	var once sync.Once
	shutdown := func() {
		once.Do(func() {
			cli.Close()
			if ln != nil {
				ln.Close()
			}
			mu.Lock()
			for _, c := range conns {
				c.Close()
			}
			mu.Unlock()
			cancel()
			wg.Wait()
		})
	}
	t.Cleanup(shutdown)
	return &logs, cli, shutdown
}
