package obs

import (
	"context"
	"sync"
	"time"
)

// The profile model is the stitched, per-query view of one distributed
// evaluation: the coordinator's rounds and site calls, each carrying the
// site-side breakdown that shipped back inside its wire response. The query
// span builds the QueryProfile as the query runs; once the span ends it is
// the complete record — the thing /debug/queries serves, Result.Metrics is a
// view of, and EXPLAIN ANALYZE-style tooling reads.

// SiteBreakdown is the site-side cost breakdown of one request, accumulated
// by a SiteRecorder while the site evaluates and returned in the fixed-width
// trailer of the site's reply. All fields are totals for the one request,
// not process-lifetime counters.
type SiteBreakdown struct {
	// EvalNS is the site-side evaluation wall time in nanoseconds, the one
	// compute time a reply carries (the call record's Compute).
	EvalNS int64
	// RowsScanned counts detail-relation rows scanned by GMDJ evaluation.
	RowsScanned int64
	// SegCacheReads / SegDiskReads count store segment loads by source.
	SegCacheReads int64
	SegDiskReads  int64
	// SegRowsLoaded counts rows decoded from disk segments.
	SegRowsLoaded int64
	// CodecBytes counts bytes produced by the site-side response encoder
	// (stream blocks for operator rounds, the relation payload otherwise).
	CodecBytes int64
	// Blocks counts H blocks emitted by operator evaluation.
	Blocks int64
	// Kernel reports that every detail pass of the request ran as a compiled
	// kernel over the columnar image; false when any pass (or none) ran
	// scalar. skalla_engine_scan_path_total carries the reasons.
	Kernel bool
}

// SiteRecorder accumulates one request's SiteBreakdown. It is carried in the
// request context on the site side and is the one account a site evaluation
// keeps: the process-wide engine and store families are folded from it once
// per request (Publish). Every method is safe on a nil receiver (recording is
// a no-op outside a site request) and safe for concurrent use.
type SiteRecorder struct {
	mu    sync.Mutex
	b     SiteBreakdown
	scans []scanPasses // the request's detail passes, by path and reason
}

// scanPasses counts the detail passes one path took for one reason.
type scanPasses struct {
	kernel bool
	reason string
	n      int64
}

// NewSiteRecorder creates an empty recorder.
func NewSiteRecorder() *SiteRecorder { return &SiteRecorder{} }

// ChargeScan charges one evaluation's detail passes: passes passes ran as a
// compiled kernel (kernel) or row at a time, for reason, and read rows rows
// between them. The breakdown's Kernel holds while every pass charged so far
// ran as a kernel.
func (r *SiteRecorder) ChargeScan(kernel bool, reason string, passes int, rows int64) {
	if r == nil || passes == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.b.RowsScanned += rows
	r.b.Kernel = kernel && (r.b.Kernel || len(r.scans) == 0)
	for i := range r.scans {
		if s := &r.scans[i]; s.kernel == kernel && s.reason == reason {
			s.n += int64(passes)
			return
		}
	}
	r.scans = append(r.scans, scanPasses{kernel: kernel, reason: reason, n: int64(passes)})
}

// AddSegRead charges one segment load; disk loads also charge decoded rows.
func (r *SiteRecorder) AddSegRead(disk bool, rows int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if disk {
		r.b.SegDiskReads++
		r.b.SegRowsLoaded += rows
	} else {
		r.b.SegCacheReads++
	}
	r.mu.Unlock()
}

// AddCodecBytes charges response-encoder output bytes.
func (r *SiteRecorder) AddCodecBytes(n int64) {
	if r == nil || n == 0 {
		return
	}
	r.mu.Lock()
	r.b.CodecBytes += n
	r.mu.Unlock()
}

// AddBlocks charges emitted H blocks.
func (r *SiteRecorder) AddBlocks(n int64) {
	if r == nil || n == 0 {
		return
	}
	r.mu.Lock()
	r.b.Blocks += n
	r.mu.Unlock()
}

// SetEval records the site-side evaluation wall time.
func (r *SiteRecorder) SetEval(d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.b.EvalNS = d.Nanoseconds()
	r.mu.Unlock()
}

// Snapshot returns a copy of the accumulated breakdown (nil receiver yields
// the zero breakdown).
func (r *SiteRecorder) Snapshot() SiteBreakdown {
	if r == nil {
		return SiteBreakdown{}
	}
	r.mu.Lock()
	b := r.b
	r.mu.Unlock()
	return b
}

// Publish folds the request's engine and store accounts into the
// process-wide families — rows scanned, scan paths, blocks emitted, segment
// reads and rows — so /metrics is the sum of the breakdowns the site's
// requests carried. A site evaluation publishes its request's recorder once,
// when it returns, so a recorder serves one evaluation: published twice, its
// accounts count twice. The accounts are copied under the recorder's lock and
// added after it is released, so no registry lock is taken under it.
func (r *SiteRecorder) Publish() {
	if r == nil {
		return
	}
	r.mu.Lock()
	b, scans := r.b, append(make([]scanPasses, 0, 4), r.scans...) // on the stack for up to 4 paths
	r.mu.Unlock()
	EngineRowsScanned.Add(b.RowsScanned)
	for _, s := range scans {
		path := "scalar"
		if s.kernel {
			path = "kernel"
		}
		EngineScanPath.With(path, s.reason).Add(s.n)
	}
	EngineBlocks.Add(b.Blocks)
	if b.SegCacheReads > 0 {
		StoreSegmentReads.With("cache").Add(b.SegCacheReads)
	}
	if b.SegDiskReads > 0 {
		StoreSegmentReads.With("disk").Add(b.SegDiskReads)
	}
	StoreSegmentRows.Add(b.SegRowsLoaded)
}

type recorderKey struct{}

// WithRecorder tags a context with a site recorder.
func WithRecorder(ctx context.Context, r *SiteRecorder) context.Context {
	return context.WithValue(ctx, recorderKey{}, r)
}

// RecorderFrom extracts the site recorder (nil when untagged — every
// SiteRecorder method accepts nil, so callers record unconditionally).
func RecorderFrom(ctx context.Context) *SiteRecorder {
	r, _ := ctx.Value(recorderKey{}).(*SiteRecorder)
	return r
}

type roundKey struct{}

// WithRound tags a context with the coordinator round name, so site calls
// issued under it can stamp the round into the wire request.
func WithRound(ctx context.Context, name string) context.Context {
	return context.WithValue(ctx, roundKey{}, name)
}

// RoundFrom extracts the round name ("" when untagged).
func RoundFrom(ctx context.Context) string {
	name, _ := ctx.Value(roundKey{}).(string)
	return name
}

type attemptKey struct{}

// WithAttempt tags a context with the 1-based retry attempt number.
func WithAttempt(ctx context.Context, attempt int) context.Context {
	return context.WithValue(ctx, attemptKey{}, attempt)
}

// AttemptFrom extracts the attempt number (1 when untagged: a call outside
// the retry loop is its own first attempt).
func AttemptFrom(ctx context.Context) int {
	if a, ok := ctx.Value(attemptKey{}).(int); ok && a > 0 {
		return a
	}
	return 1
}

// CallProfile is one site-call attempt inside a profile. Failed attempts,
// retried or final, appear as their own entries with Failed set; their
// traffic is excluded from round totals, so retries never double-count bytes.
type CallProfile struct {
	SiteCall
	Failed bool
	Err    string `json:",omitempty"`
}

// RoundProfile is one synchronization round inside a profile. Byte/row
// totals cover successful calls only. EstBytesDown/Up carry the cost model's
// per-round prediction when the plan had one (zero otherwise).
type RoundProfile struct {
	Name         string
	Start        time.Time
	Elapsed      time.Duration
	XRows        int
	BytesDown    int
	BytesUp      int
	RowsDown     int
	RowsUp       int
	CoordTime    time.Duration
	EstBytesDown int64
	EstBytesUp   int64
	Calls        []CallProfile
}

// ProfilePlan is the planner identity attached to a profile: which compiled
// plan ran and what the cost model predicted for it.
type ProfilePlan struct {
	Fingerprint  string
	Mode         string
	Rules        []string
	EstRounds    int
	EstBytesDown int64
	EstBytesUp   int64
}

// QueryProfile is the complete stitched record of one distributed query.
type QueryProfile struct {
	QueryID string
	Start   time.Time
	Elapsed time.Duration
	// QueueTime is how long the query waited in the coordinator's admission
	// queue before execution started (zero when admission control is off or
	// a slot was free immediately). Not included in Elapsed, which covers the
	// execution span only.
	QueueTime time.Duration `json:",omitempty"`
	// Shared marks how the shared-work layer served this query: "leader" (ran
	// the distributed rounds on behalf of followers), "follower" (awaited a
	// concurrent leader's result), "cache" (super-aggregate result cache hit,
	// zero site rounds). Empty for an unshared execution.
	Shared string `json:",omitempty"`
	Err    string `json:",omitempty"`
	Plan   ProfilePlan
	Rounds []RoundProfile
}

// BytesDown returns the query's total coordinator→sites bytes (successful
// calls only — the same quantity stats.Metrics reports).
func (p *QueryProfile) BytesDown() int {
	n := 0
	for i := range p.Rounds {
		n += p.Rounds[i].BytesDown
	}
	return n
}

// BytesUp returns the query's total sites→coordinator bytes.
func (p *QueryProfile) BytesUp() int {
	n := 0
	for i := range p.Rounds {
		n += p.Rounds[i].BytesUp
	}
	return n
}
