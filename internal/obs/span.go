package obs

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
)

// The span model structures one distributed evaluation as the coordinator
// sees it: a query span containing one round span per synchronization round,
// each round collecting the site calls that fed it. Spans do three jobs at
// once — record registry metrics (rounds, sync-merge durations, query
// counts), emit structured logs through the package logger, and fan events
// out to attached Observers (the profile builder, the -trace line renderer).

// SiteCall is one completed coordinator↔site exchange as observed by a span.
// It mirrors stats.Call field-for-field without importing it, so obs stays
// dependency-free.
type SiteCall struct {
	Site      int
	BytesDown int
	BytesUp   int
	RowsDown  int
	RowsUp    int
	Compute   time.Duration
	// Start/Elapsed are the coordinator-observed wall-clock envelope of the
	// exchange, measured by the transport; Attempt is the 1-based retry
	// attempt that produced it. Zero values mean the transport predates the
	// profiler (the line format ignores them).
	Start   time.Time
	Elapsed time.Duration
	Attempt int
	// Breakdown is the site-side cost breakdown shipped back in the wire
	// response (nil from sites that do not report one).
	Breakdown *SiteBreakdown
}

// EventKind discriminates span events.
type EventKind uint8

const (
	// EventQueryStart opens a query span.
	EventQueryStart EventKind = iota
	// EventRoundStart opens a round span.
	EventRoundStart
	// EventSiteCall reports one completed site exchange within a round.
	EventSiteCall
	// EventRoundEnd closes a round span with its aggregates.
	EventRoundEnd
	// EventQueryEnd closes a query span.
	EventQueryEnd
	// EventSiteRetry reports one failed site-call attempt that the
	// coordinator is about to retry (the round continues).
	EventSiteRetry
)

// Event is one span notification. Fields are populated per kind: Round/XRows
// for round starts, Call for site calls, the aggregate fields and Calls for
// round ends, Elapsed/Err for query ends.
type Event struct {
	Kind      EventKind
	QueryID   string
	Round     string
	XRows     int
	Call      SiteCall
	Calls     []SiteCall
	Site      int // site index for retry events
	Attempt   int // failed attempt number for retry events (1-based)
	BytesDown int
	BytesUp   int
	CoordTime time.Duration
	Elapsed   time.Duration
	Err       string
}

// Observer receives span events. Calls arrive in span order from the
// coordinator's control loop; implementations that share state across
// coordinators must synchronize internally.
type Observer interface {
	ObserveSpan(Event)
}

// QuerySpan is one distributed evaluation in progress.
type QuerySpan struct {
	id    string
	start time.Time

	mu        sync.Mutex
	observers []Observer
	rounds    int

	roundCounter *Counter
	mergeHist    *Histogram
}

// StartQuery opens a query span: the active-query gauge rises, a debug log
// line records the start, and observers receive EventQueryStart.
func StartQuery(id string, observers ...Observer) *QuerySpan {
	q := &QuerySpan{
		id:           id,
		start:        time.Now(),
		observers:    append([]Observer(nil), observers...),
		roundCounter: CoordRounds.With(QueryLabel(id)),
		mergeHist:    CoordSyncMerge.With(QueryLabel(id)),
	}
	CoordActiveQueries.Add(1)
	Logger().Debug("query start", "query", id)
	q.emit(Event{Kind: EventQueryStart, QueryID: id})
	return q
}

// ID returns the span's query ID.
func (q *QuerySpan) ID() string { return q.id }

// AddObserver attaches an observer for subsequent events.
func (q *QuerySpan) AddObserver(o Observer) {
	if o == nil {
		return
	}
	q.mu.Lock()
	q.observers = append(q.observers, o)
	q.mu.Unlock()
}

func (q *QuerySpan) emit(e Event) {
	q.mu.Lock()
	observers := q.observers
	q.mu.Unlock()
	for _, o := range observers {
		o.ObserveSpan(e)
	}
}

// StartRound opens a round span. xRows is the number of base-structure rows
// the coordinator holds entering the round.
func (q *QuerySpan) StartRound(name string, xRows int) *RoundSpan {
	q.mu.Lock()
	q.rounds++
	q.mu.Unlock()
	q.emit(Event{Kind: EventRoundStart, QueryID: q.id, Round: name, XRows: xRows})
	return &RoundSpan{q: q, name: name, start: time.Now()}
}

// End closes the query span: counters by status, the active gauge falls, and
// the summary is logged (info on success, warn on error).
func (q *QuerySpan) End(err error) {
	elapsed := time.Since(q.start)
	status := "ok"
	errText := ""
	if err != nil {
		status, errText = "error", err.Error()
	}
	CoordQueries.With(status).Inc()
	CoordActiveQueries.Add(-1)
	q.mu.Lock()
	rounds := q.rounds
	q.mu.Unlock()
	if err != nil {
		Logger().Warn("query end", "query", q.id, "rounds", rounds, "elapsed", elapsed, "err", errText)
	} else {
		Logger().Info("query end", "query", q.id, "rounds", rounds, "elapsed", elapsed)
	}
	q.emit(Event{Kind: EventQueryEnd, QueryID: q.id, Elapsed: elapsed, Err: errText})
}

// RoundSpan is one synchronization round in progress.
type RoundSpan struct {
	q     *QuerySpan
	name  string
	start time.Time

	mu    sync.Mutex
	calls []SiteCall
	merge time.Duration
}

// Call records one completed site exchange.
func (r *RoundSpan) Call(c SiteCall) {
	r.mu.Lock()
	r.calls = append(r.calls, c)
	r.mu.Unlock()
	r.q.emit(Event{Kind: EventSiteCall, QueryID: r.q.id, Round: r.name, Call: c})
}

// Retry records one failed site-call attempt that the coordinator will retry:
// the retry counter increments, a warn line is logged, and observers receive
// EventSiteRetry (so traces show each attempt, not just the final outcome).
// c carries whatever the transport measured before the attempt failed (the
// zero SiteCall when it failed before any measurement).
func (r *RoundSpan) Retry(site, attempt int, c SiteCall, err error) {
	CoordRetries.With(strconv.Itoa(site)).Inc()
	Logger().Warn("site call retry", "query", r.q.id, "round", r.name,
		"site", site, "attempt", attempt, "err", err)
	c.Site, c.Attempt = site, attempt
	r.q.emit(Event{Kind: EventSiteRetry, QueryID: r.q.id, Round: r.name,
		Site: site, Attempt: attempt, Call: c, Err: err.Error()})
}

// ObserveMerge records one coordinator synchronization step (an H-block
// merge, a local-X merge, or the base union) into the sync-merge histogram.
func (r *RoundSpan) ObserveMerge(d time.Duration) {
	r.q.mergeHist.ObserveDuration(d)
	r.mu.Lock()
	r.merge += d
	r.mu.Unlock()
}

// End closes the round: the round counter increments and observers receive
// the aggregates.
func (r *RoundSpan) End(coordTime time.Duration) {
	r.q.roundCounter.Inc()
	r.mu.Lock()
	calls := r.calls
	r.mu.Unlock()
	var down, up int
	for _, c := range calls {
		down += c.BytesDown
		up += c.BytesUp
	}
	Logger().Debug("round end", "query", r.q.id, "round", r.name,
		"sites", len(calls), "bytes_down", down, "bytes_up", up,
		"coord", coordTime, "elapsed", time.Since(r.start))
	r.q.emit(Event{Kind: EventRoundEnd, QueryID: r.q.id, Round: r.name,
		Calls: calls, BytesDown: down, BytesUp: up, CoordTime: coordTime})
}

// LineObserver renders span events as single-line text, one Write per event
// under a mutex, so lines from interleaved queries (or coordinators sharing a
// writer) can never split mid-line.
type LineObserver struct {
	mu sync.Mutex
	w  io.Writer
}

// NewLineObserver wraps a writer.
func NewLineObserver(w io.Writer) *LineObserver { return &LineObserver{w: w} }

// ObserveSpan implements Observer.
func (l *LineObserver) ObserveSpan(e Event) {
	line := RenderEvent(e)
	if line == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	io.WriteString(l.w, line)
}

// RenderEvent formats one event as the canonical single-line trace text
// ("" for events the line format omits: query start and end).
func RenderEvent(e Event) string {
	switch e.Kind {
	case EventRoundStart:
		return fmt.Sprintf("round %s: start (X holds %d rows)\n", e.Round, e.XRows)
	case EventSiteCall:
		c := e.Call
		return fmt.Sprintf("round %s: site %d  down %dB/%d rows  up %dB/%d rows  compute %s\n",
			e.Round, c.Site, c.BytesDown, c.RowsDown, c.BytesUp, c.RowsUp,
			c.Compute.Round(10*time.Microsecond))
	case EventRoundEnd:
		return fmt.Sprintf("round %s: done  %dB down, %dB up, coordinator %s\n",
			e.Round, e.BytesDown, e.BytesUp, e.CoordTime.Round(10*time.Microsecond))
	case EventSiteRetry:
		return fmt.Sprintf("round %s: site %d attempt %d failed (%s), retrying\n",
			e.Round, e.Site, e.Attempt, e.Err)
	default:
		return ""
	}
}
