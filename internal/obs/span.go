package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strconv"
	"sync"
	"time"
)

// The span model structures one distributed evaluation as the coordinator
// sees it: a query span containing one round span per synchronization round,
// each round collecting the site calls that fed it. The query span is the only
// producer of the query's QueryProfile — round starts, site calls, failed
// attempts and round ends are written straight into the profile it owns, so
// /debug/queries, the coordinator's Result.Metrics and the trace lines all
// read one record. Alongside, spans record registry metrics (rounds,
// sync-merge durations, query counts, retries) and log through the package
// logger.

// SiteCall is one coordinator↔site exchange: what crossed the wire in each
// direction and what the site spent, as measured by the transport.
type SiteCall struct {
	Site      int
	BytesDown int // request payload, coordinator → site
	BytesUp   int // response payload, site → coordinator
	RowsDown  int // base-structure rows shipped to the site
	RowsUp    int // sub-aggregate rows returned
	Compute   time.Duration
	// Start/Elapsed are the coordinator-observed wall-clock envelope of the
	// exchange, measured by the transport; Attempt is the 1-based retry
	// attempt that produced it.
	Start   time.Time
	Elapsed time.Duration
	Attempt int
	// Breakdown is the site-side cost breakdown shipped back in the wire
	// response (nil from sites that do not report one).
	Breakdown *SiteBreakdown `json:",omitempty"`
}

// TraceWriter renders span progress as single-line text, one Write per line
// under a mutex, so lines from interleaved queries (or coordinators sharing a
// writer) can never split mid-line.
type TraceWriter struct {
	mu sync.Mutex
	w  io.Writer
}

// NewTraceWriter wraps a writer.
func NewTraceWriter(w io.Writer) *TraceWriter { return &TraceWriter{w: w} }

// printf writes one formatted line; a nil writer traces nothing. Callers
// test for nil first where the line is per call or per round: the arguments
// are boxed before printf can decline them.
func (t *TraceWriter) printf(format string, args ...any) {
	if t == nil {
		return
	}
	line := fmt.Sprintf(format, args...)
	t.mu.Lock()
	defer t.mu.Unlock()
	io.WriteString(t.w, line)
}

// QuerySpan is one distributed evaluation in progress. Rounds open and close
// in sequence on the coordinator's control loop, while a round's failed
// attempts arrive from its per-site goroutines, so every profile write holds
// mu.
type QuerySpan struct {
	trace *TraceWriter

	mu sync.Mutex
	p  QueryProfile

	roundCounter *Counter
	mergeHist    *Histogram
}

// StartQuery opens a query span: the active-query gauge rises and a debug log
// line records the start. trace, when non-nil, receives one line per round
// start, site call, failed attempt and round end.
func StartQuery(id string, trace *TraceWriter) *QuerySpan {
	q := &QuerySpan{
		trace:        trace,
		p:            QueryProfile{QueryID: id, Start: time.Now()},
		roundCounter: CoordRounds.With(QueryLabel(id)),
		mergeHist:    CoordSyncMerge.With(QueryLabel(id)),
	}
	CoordActiveQueries.Add(1)
	if logs(slog.LevelDebug) {
		Logger().Debug("query start", "query", id)
	}
	return q
}

// StartRound opens a round span. xRows is the number of base-structure rows
// the coordinator holds entering the round.
func (q *QuerySpan) StartRound(name string, xRows int) *RoundSpan {
	q.mu.Lock()
	q.p.Rounds = append(q.p.Rounds, RoundProfile{Name: name, Start: time.Now(), XRows: xRows})
	idx := len(q.p.Rounds) - 1
	q.mu.Unlock()
	if q.trace != nil {
		q.trace.printf("round %s: start (X holds %d rows)\n", name, xRows)
	}
	return &RoundSpan{q: q, name: name, idx: idx}
}

// End closes the query span — counters by status, the active gauge falls,
// the summary is logged (info on success, warn on error) — and returns the
// finished profile, which the span no longer writes.
func (q *QuerySpan) End(err error) *QueryProfile {
	status := "ok"
	q.mu.Lock()
	q.p.Elapsed = time.Since(q.p.Start)
	if err != nil {
		status, q.p.Err = "error", err.Error()
	}
	rounds, elapsed := len(q.p.Rounds), q.p.Elapsed
	q.mu.Unlock()
	CoordQueries.With(status).Inc()
	CoordActiveQueries.Add(-1)
	if err != nil {
		Logger().Warn("query end", "query", q.p.QueryID, "rounds", rounds, "elapsed", elapsed, "err", err.Error())
	} else if logs(slog.LevelInfo) {
		Logger().Info("query end", "query", q.p.QueryID, "rounds", rounds, "elapsed", elapsed)
	}
	return &q.p
}

// RoundSpan is one synchronization round in progress: the round at index idx
// of its query's profile.
type RoundSpan struct {
	q    *QuerySpan
	name string
	idx  int
}

// Call records one successful site exchange; its traffic counts in the
// round's totals.
func (r *RoundSpan) Call(c SiteCall) {
	r.q.mu.Lock()
	rp := &r.q.p.Rounds[r.idx]
	rp.Calls = append(rp.Calls, CallProfile{SiteCall: c})
	rp.BytesDown += c.BytesDown
	rp.BytesUp += c.BytesUp
	rp.RowsDown += c.RowsDown
	rp.RowsUp += c.RowsUp
	r.q.mu.Unlock()
	if r.q.trace != nil {
		r.q.trace.printf("round %s: site %d  down %dB/%d rows  up %dB/%d rows  compute %s\n",
			r.name, c.Site, c.BytesDown, c.RowsDown, c.BytesUp, c.RowsUp,
			c.Compute.Round(10*time.Microsecond))
	}
}

// Fail records one failed site-call attempt as a Failed call whose traffic
// stays out of the round's totals. c carries whatever the transport measured
// before the attempt failed (the zero SiteCall when it failed before any
// measurement). retrying reports that the coordinator will try the site
// again: the retry counter increments and a warn line is logged.
func (r *RoundSpan) Fail(site, attempt int, c SiteCall, err error, retrying bool) {
	c.Site, c.Attempt = site, attempt
	r.q.mu.Lock()
	rp := &r.q.p.Rounds[r.idx]
	rp.Calls = append(rp.Calls, CallProfile{SiteCall: c, Failed: true, Err: err.Error()})
	r.q.mu.Unlock()
	then := ""
	if retrying {
		CoordRetries.With(strconv.Itoa(site)).Inc()
		Logger().Warn("site call retry", "query", r.q.p.QueryID, "round", r.name,
			"site", site, "attempt", attempt, "err", err)
		then = ", retrying"
	}
	r.q.trace.printf("round %s: site %d attempt %d failed (%s)%s\n", r.name, site, attempt, err, then)
}

// ObserveMerge records one coordinator synchronization step (an H-block
// merge, a local-X merge, or the base union) into the sync-merge histogram.
func (r *RoundSpan) ObserveMerge(d time.Duration) { r.q.mergeHist.ObserveDuration(d) }

// End closes the round with the coordinator's synchronization time: the round
// counter increments and the round's elapsed time is stamped.
func (r *RoundSpan) End(coordTime time.Duration) {
	r.q.roundCounter.Inc()
	r.q.mu.Lock()
	rp := &r.q.p.Rounds[r.idx]
	rp.Elapsed = time.Since(rp.Start)
	rp.CoordTime = coordTime
	down, up, calls, elapsed := rp.BytesDown, rp.BytesUp, len(rp.Calls), rp.Elapsed
	r.q.mu.Unlock()
	if logs(slog.LevelDebug) {
		Logger().Debug("round end", "query", r.q.p.QueryID, "round", r.name,
			"calls", calls, "bytes_down", down, "bytes_up", up,
			"coord", coordTime, "elapsed", elapsed)
	}
	if r.q.trace != nil {
		r.q.trace.printf("round %s: done  %dB down, %dB up, coordinator %s\n",
			r.name, down, up, coordTime.Round(10*time.Microsecond))
	}
}
