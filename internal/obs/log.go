package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"sync/atomic"
)

// The package logger defaults to warnings-and-up on stderr so libraries can
// log through obs.Logger() without making tests and benchmarks noisy; daemons
// call SetupLogger to opt into info/debug and JSON output.
var defaultLogger atomic.Pointer[slog.Logger]

func init() {
	defaultLogger.Store(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})))
}

// Logger returns the process-wide structured logger.
func Logger() *slog.Logger { return defaultLogger.Load() }

// logs reports whether the package logger writes lines of level. A line's
// key/value arguments are boxed before slog weighs its level, so a path run
// per query or per round asks first and builds no line the logger drops.
func logs(level slog.Level) bool {
	//skallavet:allow ctxcall -- a level test: slog passes the context only to the handler, which reads none of it
	return Logger().Enabled(context.Background(), level)
}

// SetLogger replaces the process-wide logger (nil restores the quiet default).
func SetLogger(l *slog.Logger) {
	if l == nil {
		l = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
	}
	defaultLogger.Store(l)
}

// ParseLevel maps a -log-level flag value to a slog level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug, info, warn or error)", s)
}

// SetupLogger builds the shared daemon logger: leveled, text or JSON, tagged
// with the component name, and installed as both the obs package logger and
// the slog default (so stray slog calls elsewhere inherit it too).
func SetupLogger(component string, level string, json bool, w io.Writer) (*slog.Logger, error) {
	lvl, err := ParseLevel(level)
	if err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	if json {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	l := slog.New(h).With("component", component)
	SetLogger(l)
	slog.SetDefault(l)
	return l, nil
}
