package obs

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSpanBuildsProfile: the span writes rounds and calls into its own
// profile in the order they happen, keeps failed attempts as Failed calls,
// and counts only successful calls in the round totals.
func TestSpanBuildsProfile(t *testing.T) {
	span := StartQuery("qtest", nil)
	rs := span.StartRound("base", 0)
	rs.Fail(1, 1, SiteCall{BytesDown: 99}, errors.New("boom"), true)
	rs.Call(SiteCall{Site: 0, BytesUp: 10, RowsUp: 2, Attempt: 1})
	rs.Call(SiteCall{Site: 1, BytesUp: 20, RowsUp: 4, Attempt: 2})
	rs.ObserveMerge(time.Millisecond)
	rs.End(time.Millisecond)
	rs = span.StartRound("MD1", 6)
	rs.Fail(2, 1, SiteCall{}, errors.New("gone"), false)
	rs.End(0)
	p := span.End(errors.New("gone"))

	if p.QueryID != "qtest" || p.Start.IsZero() || p.Elapsed <= 0 || p.Err != "gone" {
		t.Errorf("profile envelope: %+v", p)
	}
	if len(p.Rounds) != 2 || p.Rounds[0].Name != "base" || p.Rounds[1].Name != "MD1" || p.Rounds[1].XRows != 6 {
		t.Fatalf("rounds: %+v", p.Rounds)
	}
	base := p.Rounds[0]
	want := []CallProfile{
		{SiteCall: SiteCall{Site: 1, Attempt: 1, BytesDown: 99}, Failed: true, Err: "boom"},
		{SiteCall: SiteCall{Site: 0, BytesUp: 10, RowsUp: 2, Attempt: 1}},
		{SiteCall: SiteCall{Site: 1, BytesUp: 20, RowsUp: 4, Attempt: 2}},
	}
	if len(base.Calls) != len(want) {
		t.Fatalf("base calls: %+v", base.Calls)
	}
	for i := range want {
		if base.Calls[i] != want[i] {
			t.Errorf("base call %d = %+v, want %+v", i, base.Calls[i], want[i])
		}
	}
	if base.BytesDown != 0 || base.BytesUp != 30 || base.RowsUp != 6 || base.CoordTime != time.Millisecond {
		t.Errorf("base totals: down %d up %d rows up %d coord %s", base.BytesDown, base.BytesUp, base.RowsUp, base.CoordTime)
	}
	if md1 := p.Rounds[1]; len(md1.Calls) != 1 || !md1.Calls[0].Failed || md1.Calls[0].Site != 2 {
		t.Errorf("final failed attempt not kept: %+v", md1.Calls)
	}
}

func TestSpanMetrics(t *testing.T) {
	id := NewQueryID()
	before := CoordActiveQueries.Value()
	span := StartQuery(id, nil)
	if CoordActiveQueries.Value() != before+1 {
		t.Error("active gauge did not rise")
	}
	rs := span.StartRound("MD1", 5)
	rs.ObserveMerge(2 * time.Millisecond)
	rs.End(2 * time.Millisecond)
	span.End(errors.New("boom"))
	if CoordActiveQueries.Value() != before {
		t.Error("active gauge did not fall")
	}
	if got := CoordRounds.With(id).Value(); got != 1 {
		t.Errorf("round counter = %d, want 1", got)
	}
	if got := CoordSyncMerge.With(id).Count(); got != 1 {
		t.Errorf("merge histogram count = %d, want 1", got)
	}
	if CoordQueries.With("error").Value() == 0 {
		t.Error("error status not counted")
	}
}

func TestTraceWriterFormat(t *testing.T) {
	var b strings.Builder
	span := StartQuery("qfmt", NewTraceWriter(&b))
	rs := span.StartRound("MD1", 7)
	rs.Fail(2, 1, SiteCall{}, errors.New("reset"), true)
	rs.Call(SiteCall{Site: 2, BytesDown: 100, RowsDown: 7, BytesUp: 50, RowsUp: 3, Compute: 120 * time.Microsecond})
	rs.Fail(3, 2, SiteCall{}, errors.New("reset"), false)
	rs.End(time.Millisecond)
	span.End(nil)
	got := b.String()
	want := "round MD1: start (X holds 7 rows)\n" +
		"round MD1: site 2 attempt 1 failed (reset), retrying\n" +
		"round MD1: site 2  down 100B/7 rows  up 50B/3 rows  compute 120µs\n" +
		"round MD1: site 3 attempt 2 failed (reset)\n" +
		"round MD1: done  100B down, 50B up, coordinator 1ms\n"
	if got != want {
		t.Errorf("line output:\n%q\nwant:\n%q", got, want)
	}
}

// TestTraceWriterConcurrent verifies the lock granularity: lines from
// interleaved spans sharing one trace writer never split.
func TestTraceWriterConcurrent(t *testing.T) {
	var mu sync.Mutex
	var b strings.Builder
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return b.Write(p)
	})
	tw := NewTraceWriter(w)
	var wg sync.WaitGroup
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			span := StartQuery(NewQueryID(), tw)
			for i := 0; i < 50; i++ {
				rs := span.StartRound("R", i)
				rs.Call(SiteCall{Site: q, BytesDown: 1, BytesUp: 1})
				rs.End(0)
			}
			span.End(nil)
		}(q)
	}
	wg.Wait()
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		if !strings.HasPrefix(line, "round ") {
			t.Fatalf("split or corrupt line: %q", line)
		}
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestNewQueryID(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := NewQueryID()
		if len(id) != 12 {
			t.Fatalf("query ID %q has length %d, want 12", id, len(id))
		}
		if seen[id] {
			t.Fatalf("duplicate query ID %q", id)
		}
		seen[id] = true
	}
}

func TestQueryIDContext(t *testing.T) {
	ctx := t.Context()
	if QueryIDFrom(ctx) != "" {
		t.Error("untagged context has a query ID")
	}
	ctx = WithQueryID(ctx, "abc")
	if QueryIDFrom(ctx) != "abc" {
		t.Error("query ID not propagated through context")
	}
}

func TestQueryLabel(t *testing.T) {
	if QueryLabel("") != "none" {
		t.Error(`QueryLabel("") != "none"`)
	}
	if QueryLabel("x") != "x" {
		t.Error("QueryLabel mangled a real ID")
	}
}

// With tracing off and the logger at its default warn level, closing a round
// builds no log line: RoundSpan.End allocates nothing.
func TestRoundSpanEndAllocatesNothing(t *testing.T) {
	SetLogger(nil)
	span := StartQuery(NewQueryID(), nil)
	defer span.End(nil)
	rs := span.StartRound("MD1", 0)
	if n := testing.AllocsPerRun(100, func() { rs.End(time.Millisecond) }); n != 0 {
		t.Errorf("RoundSpan.End allocated %v objects per call, want 0", n)
	}
}
