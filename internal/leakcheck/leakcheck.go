// Package leakcheck fails a test binary whose tests leave goroutines of this
// module running: the connection loop of a site, server or cluster a test
// built and did not close.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Main runs m's tests and exits with their code. If they passed, it fails
// the binary, printing their stacks, when goroutines with a skalla/internal/
// frame other than its own still run after two seconds of polling: they wind
// down asynchronously after their test returns. Call it from TestMain.
func Main(m *testing.M) {
	code := m.Run()
	for deadline := time.Now().Add(2 * time.Second); code == 0; time.Sleep(20 * time.Millisecond) {
		buf := make([]byte, 1<<20)
		var leaked []string
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "skalla/internal/") && !strings.Contains(g, "skalla/internal/leakcheck.Main") {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 {
			break
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "goroutines left running after the tests:\n\n%s\n", strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}
