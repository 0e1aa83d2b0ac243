package server

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain fails the package when, after every test passed, a goroutine is
// still running code of this module: a session handler, frame reader or
// accept loop some server left behind. Goroutines wind down asynchronously
// after their test returns, so the check polls before it fails.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := leakedGoroutines(2 * time.Second); leaked != "" {
			fmt.Fprintf(os.Stderr, "goroutines left running after the tests:\n\n%s\n", leaked)
			code = 1
		}
	}
	os.Exit(code)
}

// leakedGoroutines polls until no goroutine other than TestMain's has a
// skalla/internal/ frame, or until wait is up; it returns the stacks of
// those still running.
func leakedGoroutines(wait time.Duration) string {
	deadline := time.Now().Add(wait)
	for {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		var leaked []string
		for _, g := range strings.Split(string(buf), "\n\n") {
			if strings.Contains(g, "skalla/internal/") && !strings.Contains(g, "skalla/internal/server.TestMain") {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return strings.Join(leaked, "\n\n")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
