package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"skalla/internal/relation"
)

// QueryError is a statement failure reported by the server. Code carries the
// wire classification (see ErrorInfo.Code); "rejected" means the admission
// queue was full and the client should back off and resubmit.
type QueryError struct {
	Code    string
	Message string
}

func (e *QueryError) Error() string { return fmt.Sprintf("server: %s: %s", e.Code, e.Message) }

// defaultDialTimeout bounds Dial when the caller supplies no context.
const defaultDialTimeout = 10 * time.Second

// Client is one session against a query server. Statements on a session run
// sequentially (the mutex serializes them); open several clients for
// concurrent sessions.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	// dec reads every reply's rows, reusing one frame buffer for the
	// session: each reply is a self-contained frame, decoded to vectors when
	// its columns allow, and nothing decoded points into the buffer.
	dec *relation.Decoder
}

// Dial opens a session, bounded by defaultDialTimeout. Use DialContext to
// control the deadline.
func Dial(addr string) (*Client, error) {
	//skallavet:allow ctxcall -- lifecycle root mirroring net.DialTimeout; DialContext is the context-threading variant
	ctx, cancel := context.WithTimeout(context.Background(), defaultDialTimeout)
	defer cancel()
	return DialContext(ctx, addr)
}

// DialContext opens a session under the context's deadline.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReader(conn)
	return &Client{conn: conn, br: br, dec: relation.NewDecoder(br)}, nil
}

// Close ends the session. It is safe to call while a Query is in flight —
// closing the connection unblocks the pending read, and the server treats the
// disconnect as abandonment, cancelling the statement (releasing its admission
// queue slot if it had not started executing). It deliberately does not take
// the statement mutex: conn is set once at dial time, and net.Conn.Close is
// safe against concurrent reads and writes.
func (c *Client) Close() error {
	return c.conn.Close()
}

// Query submits one statement and returns the result rows and execution
// stats; read the rows with Rows, AppendRow or Value. A server-reported
// failure is returned as a *QueryError; transport failures leave the session
// unusable (the protocol has no resynchronization — open a fresh session).
func (c *Client) Query(ctx context.Context, stmt string) (*relation.Relation, *ResultInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if dl, ok := ctx.Deadline(); ok {
		_ = c.conn.SetDeadline(dl)
		defer c.conn.SetDeadline(time.Time{})
	}
	if err := writeFrame(c.conn, frameQuery, []byte(stmt)); err != nil {
		return nil, nil, fmt.Errorf("server: send: %w", err)
	}
	kind, payload, err := readFrame(c.br)
	if err != nil {
		return nil, nil, fmt.Errorf("server: receive: %w", err)
	}
	switch kind {
	case frameError:
		var info ErrorInfo
		if err := json.Unmarshal(payload, &info); err != nil {
			return nil, nil, fmt.Errorf("server: malformed error frame: %w", err)
		}
		return nil, nil, &QueryError{Code: info.Code, Message: info.Message}
	case frameResult:
		var info ResultInfo
		if err := json.Unmarshal(payload, &info); err != nil {
			return nil, nil, fmt.Errorf("server: malformed result frame: %w", err)
		}
		rel, err := c.dec.Decode(nil)
		if err != nil {
			return nil, nil, fmt.Errorf("server: receive rows: %w", err)
		}
		return rel, &info, nil
	default:
		return nil, nil, fmt.Errorf("server: unexpected frame kind 0x%02x", kind)
	}
}
