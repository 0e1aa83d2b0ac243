package main

import (
	"bytes"
	"context"
	"errors"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"skalla"
)

// syncBuffer is a bytes.Buffer safe for the serve goroutine to write while
// the test polls it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var servingAddr = regexp.MustCompile(`serving on (\S+)`)

// startServe runs the CLI with args in -serve mode on an ephemeral port and
// returns the serving address plus the channel run's error arrives on.
func startServe(t *testing.T, args ...string) (string, <-chan error) {
	t.Helper()
	var out syncBuffer
	done := make(chan error, 1)
	go func() { done <- run(append(args, "-serve", "127.0.0.1:0"), &out) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := servingAddr.FindStringSubmatch(out.String()); m != nil {
			return m[1], done
		}
		select {
		case err := <-done:
			t.Fatalf("serve exited early: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no serving banner:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCoordinatorServeMode drives the daemon end to end through the CLI
// entrypoint: start -serve on an ephemeral port, run statements over two
// concurrent client sessions (the second repeats the first's statement, so it
// must hit the plan cache), then deliver SIGINT and check the drain exits the
// run cleanly.
func TestCoordinatorServeMode(t *testing.T) {
	dir, sites := startCluster(t)
	addr, done := startServe(t, "-sites", sites, "-data", dir, "-max-concurrent", "4", "-site-timeout", "10s")

	// Warm the plan cache with one cold execution, then hit it from two
	// concurrent sessions.
	const stmt = "SELECT SourceAS, COUNT(*) AS flows FROM Flow GROUP BY SourceAS"
	warm, err := skalla.DialQueryServer(addr)
	if err != nil {
		t.Fatal(err)
	}
	rel, info, err := warm.Query(context.Background(), stmt)
	warm.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() == 0 || info.CacheHit {
		t.Fatalf("cold execution: rows=%d info=%+v", rel.Len(), info)
	}

	var wg sync.WaitGroup
	results := make([]*skalla.QueryResultInfo, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := skalla.DialQueryServer(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			rel, info, err := c.Query(context.Background(), stmt)
			if err != nil {
				t.Error(err)
				return
			}
			if rel.Len() == 0 {
				t.Error("empty result")
			}
			results[i] = info
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	ids := map[string]bool{info.QueryID: true}
	for _, r := range results {
		if !r.CacheHit {
			t.Errorf("warmed statement compiled cold: %+v", r)
		}
		ids[r.QueryID] = true
	}
	if len(ids) != 3 || !strings.HasPrefix(results[0].QueryID, "s") {
		t.Errorf("session query IDs = %v", ids)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not exit after SIGINT")
	}
	// The listener is gone after shutdown.
	if _, err := skalla.DialQueryServer(addr); err == nil {
		t.Error("dial succeeded after shutdown")
	}
}

// TestCoordinatorServeRejectsOverBudget starts the daemon with an absurdly
// small -query-mem-budget and checks a statement fails with the typed wire
// code while the daemon itself stays healthy through shutdown.
func TestCoordinatorServeRejectsOverBudget(t *testing.T) {
	dir, sites := startCluster(t)
	addr, done := startServe(t, "-sites", sites, "-data", dir, "-query-mem-budget", "64", "-site-timeout", "5s")
	c, err := skalla.DialQueryServer(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, _, err = c.Query(context.Background(), "SELECT SourceAS, COUNT(*) AS flows FROM Flow GROUP BY SourceAS")
	var qe *skalla.QueryError
	if !errors.As(err, &qe) || qe.Code != "mem_budget" {
		t.Fatalf("64-byte budget query error = %v, want code mem_budget", err)
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve returned %v", err)
	}
}
