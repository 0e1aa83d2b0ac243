package transport

import (
	"context"
	"net"
	"strconv"

	"skalla/internal/obs"
)

// NewLocalSite connects to a backend (a site engine, or a wrapper of one) in
// process: a Client whose connection is one end of a net.Pipe, the other end
// served by serveConn, the loop a Server runs for each TCP connection. Every
// request, reply and operator block crosses the envelope and codec a network
// deployment ships, so byte and row accounting is what TCP counts, and calls
// are served one at a time, as over one TCP connection. Close the client to
// end the serving goroutine.
func NewLocalSite(b Backend) *Client {
	c := &Client{addr: "in-process site " + strconv.Itoa(b.ID()), id: b.ID(), hasID: true, dial: func(context.Context) (net.Conn, error) {
		near, far := net.Pipe()
		//skallavet:allow ctxcall -- the site serves as long as its connection, not as long as the call that dialed it
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			defer far.Close()
			serveConn(ctx, b, far, obs.Logger().With("site", b.ID(), "remote", "pipe"))
		}()
		return pipeEnd{near, cancel}, nil
	}}
	c.mu.Lock()
	defer c.mu.Unlock()
	// A hello that fails leaves no connection: the first call redials and
	// reports why.
	//skallavet:allow ctxcall -- lifecycle root like Dial: the hello crosses an in-process pipe
	_ = c.connectLocked(context.Background())
	return c
}

// pipeEnd is the client's end of an in-process connection. Closing it, as
// Close and a poisoned call do, also cancels the far end's serving context,
// so a scan running for the connection stops.
type pipeEnd struct {
	net.Conn
	cancel context.CancelFunc
}

func (p pipeEnd) Close() error {
	p.cancel()
	return p.Conn.Close()
}
