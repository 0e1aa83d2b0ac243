package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"skalla/internal/obs"
	"skalla/internal/relation"
)

var testSchema = relation.MustSchema(
	relation.Column{Name: "g", Kind: relation.KindInt},
	relation.Column{Name: "v", Kind: relation.KindString},
)

// echoHandler returns one row carrying the statement text and the context's
// query ID, so tests can check both routing and ID assignment.
func echoHandler(ctx context.Context, stmt string) (*Result, error) {
	rel := relation.New(testSchema)
	rel.MustAppend(relation.Tuple{relation.NewInt(int64(len(stmt))), relation.NewString(obs.QueryIDFrom(ctx))})
	return &Result{Rel: rel}, nil
}

func startServer(t *testing.T, h Handler) *Server {
	t.Helper()
	s, err := Serve(h, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestQueryRoundTrip(t *testing.T) {
	s := startServer(t, echoHandler)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for seq := 1; seq <= 3; seq++ {
		stmt := strings.Repeat("x", seq)
		rel, info, err := c.Query(context.Background(), stmt)
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() != 1 || rel.Value(0, 0).Int != int64(seq) {
			t.Fatalf("echo rows = %v", rel.Rows())
		}
		wantID := fmt.Sprintf("s1-%d", seq)
		if got := rel.Value(0, 1).Str; got != wantID {
			t.Fatalf("handler saw query ID %q, want %q", got, wantID)
		}
		if info.QueryID != wantID || info.Rows != 1 {
			t.Fatalf("info = %+v", info)
		}
	}
}

func TestErrorCodes(t *testing.T) {
	s := startServer(t, func(ctx context.Context, stmt string) (*Result, error) {
		switch stmt {
		case "reject":
			return nil, Coded("rejected", errors.New("queue full"))
		case "budget":
			return nil, Coded("mem_budget", errors.New("over budget"))
		default:
			return nil, errors.New("boom")
		}
	})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for stmt, wantCode := range map[string]string{
		"reject": "rejected", "budget": "mem_budget", "other": "internal",
	} {
		_, _, err := c.Query(context.Background(), stmt)
		var qe *QueryError
		if !errors.As(err, &qe) || qe.Code != wantCode {
			t.Fatalf("Query(%q) error = %v, want code %q", stmt, err, wantCode)
		}
	}
}

func TestSessionSurvivesStatementError(t *testing.T) {
	s := startServer(t, func(ctx context.Context, stmt string) (*Result, error) {
		if stmt == "bad" {
			return nil, errors.New("boom")
		}
		return echoHandler(ctx, stmt)
	})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Query(context.Background(), "bad"); err == nil {
		t.Fatal("bad statement succeeded")
	}
	if _, _, err := c.Query(context.Background(), "ok"); err != nil {
		t.Fatalf("statement after failure: %v", err)
	}
}

func TestConcurrentSessions(t *testing.T) {
	s := startServer(t, echoHandler)
	const sessions = 8
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(s.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for q := 0; q < 5; q++ {
				rel, _, err := c.Query(context.Background(), "hello")
				if err != nil {
					t.Error(err)
					return
				}
				if rel.Len() != 1 {
					t.Errorf("rows = %d", rel.Len())
				}
			}
		}()
	}
	wg.Wait()
}

// TestShutdownDrainsInflight covers the drain contract: a statement already
// evaluating finishes and its client gets the full result; a statement
// arriving during the drain is refused with code "shutdown"; Shutdown returns
// only after the in-flight statement completed.
func TestShutdownDrainsInflight(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	s := startServer(t, func(ctx context.Context, stmt string) (*Result, error) {
		if stmt == "slow" {
			close(started)
			<-release
		}
		return echoHandler(ctx, stmt)
	})

	slow, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	slowDone := make(chan error, 1)
	go func() {
		_, _, err := slow.Query(context.Background(), "slow")
		slowDone <- err
	}()
	<-started

	// A second session is already open when the drain begins. Dial alone only
	// proves the kernel completed the handshake — run one statement so the
	// session is established with the accept loop before the listener closes
	// (an unaccepted backlog connection is closed during drain, not refused).
	late, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	if _, _, err := late.Query(context.Background(), "warm"); err != nil {
		t.Fatalf("establishing the second session: %v", err)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// Wait until the server is draining, then submit on the open session.
	for {
		s.mu.Lock()
		d := s.draining
		s.mu.Unlock()
		if d {
			break
		}
		time.Sleep(time.Millisecond)
	}
	_, _, err = late.Query(context.Background(), "late")
	var qe *QueryError
	if !errors.As(err, &qe) || qe.Code != "shutdown" {
		t.Fatalf("query during drain = %v, want code shutdown", err)
	}

	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned before in-flight query finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-slowDone; err != nil {
		t.Fatalf("in-flight query failed during drain: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown = %v", err)
	}

	// New sessions are refused after shutdown.
	if c, err := Dial(s.Addr()); err == nil {
		c.Close()
		t.Fatal("dial succeeded after shutdown")
	}
}

// TestShutdownTimeoutCancelsEvaluation covers the bounded drain: a statement
// that outlives the drain window has its context canceled and Shutdown
// returns the deadline error instead of hanging.
func TestShutdownTimeoutCancelsEvaluation(t *testing.T) {
	started := make(chan struct{})
	s := startServer(t, func(ctx context.Context, stmt string) (*Result, error) {
		close(started)
		<-ctx.Done() // runs until shutdown cancels evaluation contexts
		return nil, ctx.Err()
	})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	go c.Query(context.Background(), "stuck")
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
}

func TestFrameBounds(t *testing.T) {
	var sb strings.Builder
	if err := writeFrame(&sb, frameQuery, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := readFrame(strings.NewReader(sb.String()))
	if err != nil || kind != frameQuery || string(payload) != "hi" {
		t.Fatalf("round trip = (0x%02x, %q, %v)", kind, payload, err)
	}
	// Oversized length prefix is rejected, not allocated.
	huge := string([]byte{frameQuery, 0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, err := readFrame(strings.NewReader(huge)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// TestUnencodableReplyIsAnErrorFrame: a handler result the codec refuses (a
// row whose arity does not match its schema) is answered with an "internal"
// error frame and counted as an error, and the session answers its next
// statement. The reply is cut before the result envelope is written, so the
// client never sees a result frame without rows.
func TestUnencodableReplyIsAnErrorFrame(t *testing.T) {
	s := startServer(t, func(ctx context.Context, stmt string) (*Result, error) {
		if stmt == "bad" {
			// Vectors that disagree with the schema: Marshal refuses them.
			rel := relation.FromColumns(testSchema, &relation.Columns{Rows: 1, Vecs: []relation.Vector{{Kind: relation.KindInt, Ints: []int64{1}}}})
			return &Result{Rel: rel}, nil
		}
		return echoHandler(ctx, stmt)
	})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ok0, errs0 := obs.ServerQueries.With("ok").Value(), obs.ServerQueries.With("error").Value()
	_, _, err = c.Query(context.Background(), "bad")
	var qe *QueryError
	if !errors.As(err, &qe) || qe.Code != "internal" || !strings.Contains(qe.Message, "arity") {
		t.Fatalf("unencodable reply = %v, want an internal error naming the arity", err)
	}
	if got := obs.ServerQueries.With("ok").Value() - ok0; got != 0 {
		t.Errorf("unencodable reply counted ok %d times", got)
	}
	if got := obs.ServerQueries.With("error").Value() - errs0; got != 1 {
		t.Errorf("unencodable reply counted as error %d times, want 1", got)
	}
	if _, _, err := c.Query(context.Background(), "ok"); err != nil {
		t.Fatalf("statement after an unencodable reply: %v", err)
	}
}

// TestClientDecodesRepliesOfChangingShape: one session's decoder serves every
// reply, so replies whose schemas and sizes differ — empty, one row, many
// rows, then small again — must each decode to exactly what their own frame
// holds, and earlier results must survive the buffer's reuse by later ones.
func TestClientDecodesRepliesOfChangingShape(t *testing.T) {
	wide := relation.New(relation.MustSchema(
		relation.Column{Name: "k", Kind: relation.KindString},
		relation.Column{Name: "n", Kind: relation.KindInt},
		relation.Column{Name: "f", Kind: relation.KindFloat},
	))
	for i := 0; i < 5000; i++ {
		wide.MustAppend(relation.Tuple{relation.NewString(fmt.Sprintf("key-%05d", i)), relation.NewInt(int64(i)), relation.NewFloat(float64(i) / 7)})
	}
	one := relation.New(testSchema)
	one.MustAppend(relation.Tuple{relation.NewInt(7), relation.NewString("first")})
	replies := map[string]*relation.Relation{
		"empty": relation.New(testSchema),
		"one":   one,
		"wide":  wide,
		"small": relation.New(relation.MustSchema(relation.Column{Name: "s", Kind: relation.KindString})),
	}
	replies["small"].MustAppend(relation.Tuple{relation.NewString("zzzzzzzzzzzz")})
	s := startServer(t, func(ctx context.Context, stmt string) (*Result, error) {
		return &Result{Rel: replies[stmt]}, nil
	})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	order := []string{"one", "empty", "wide", "small", "one", "wide"}
	got := make([]*relation.Relation, len(order))
	for i, stmt := range order {
		if got[i], _, err = c.Query(context.Background(), stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	for i, stmt := range order {
		frame, err := relation.Marshal(replies[stmt])
		if err != nil {
			t.Fatal(err)
		}
		want, err := relation.Unmarshal(frame)
		if err != nil {
			t.Fatal(err)
		}
		if !got[i].Schema.Equal(want.Schema) || got[i].Format(-1) != want.Format(-1) {
			t.Errorf("reply %d (%s) differs from its frame", i, stmt)
		}
	}
}
