package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// exportProfile builds a two-round profile with a retried site call and a
// site-side breakdown — the shapes the exporter must annotate.
func exportProfile(start time.Time) *QueryProfile {
	return &QueryProfile{
		QueryID: "q-export",
		Start:   start,
		Elapsed: 5 * time.Millisecond,
		Plan:    ProfilePlan{Fingerprint: "fp123", Mode: "all", Rules: []string{"coalesce"}},
		Rounds: []RoundProfile{
			{
				Name: "base", Start: start, Elapsed: 2 * time.Millisecond,
				BytesDown: 100, BytesUp: 300,
				Calls: []CallProfile{
					{SiteCall: SiteCall{Site: 0, Attempt: 1, Start: start, Elapsed: time.Millisecond, BytesDown: 50, BytesUp: 150}},
					{SiteCall: SiteCall{Site: 1, Attempt: 1, Start: start, Elapsed: time.Microsecond}, Failed: true, Err: "injected"},
					{SiteCall: SiteCall{Site: 1, Attempt: 2, Start: start.Add(time.Millisecond), Elapsed: time.Millisecond, BytesDown: 50, BytesUp: 150}},
				},
			},
			{
				Name: "MD1", Start: start.Add(2 * time.Millisecond), Elapsed: 3 * time.Millisecond,
				XRows: 10, BytesDown: 400, BytesUp: 200, CoordTime: time.Millisecond,
				Calls: []CallProfile{
					{SiteCall: SiteCall{Site: 0, Attempt: 1, Start: start.Add(2 * time.Millisecond), Elapsed: 2 * time.Millisecond,
						BytesDown: 400, BytesUp: 200, Compute: time.Millisecond,
						Breakdown: &SiteBreakdown{EvalNS: 1e6, RowsScanned: 1000,
							SegDiskReads: 3, CodecBytes: 200, Blocks: 2}}},
				},
			},
		},
	}
}

// TestTraceExportShape pins the export's contract: valid JSON with a
// traceEvents array of metadata and complete events, coordinator on pid 0,
// sites on pid site+1, durations ≥ 1µs, retried attempts annotated.
func TestTraceExportShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTraceEvents(&buf, exportProfile(time.Now())); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if f.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", f.DisplayTimeUnit)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}

	var meta, complete, failed int
	var queryEvent, breakdownEvent bool
	tids := map[int]bool{}
	for _, e := range f.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			complete++
			if e.Dur < 1 {
				t.Errorf("event %q has dur %d, want >= 1µs", e.Name, e.Dur)
			}
			if strings.HasPrefix(e.Name, "query ") {
				queryEvent = true
				if e.Pid != 0 {
					t.Errorf("query event on pid %d, want coordinator pid 0", e.Pid)
				}
				if e.Args["fingerprint"] != "fp123" {
					t.Errorf("query args = %v, want fingerprint fp123", e.Args)
				}
			}
			if strings.Contains(e.Name, "site") && e.Pid >= 1 {
				if tids[e.Tid] {
					t.Errorf("tid %d reused: overlapping calls must get distinct tracks", e.Tid)
				}
				tids[e.Tid] = true
			}
			if strings.Contains(e.Name, "(failed)") {
				failed++
				if e.Args["err"] != "injected" {
					t.Errorf("failed call args = %v", e.Args)
				}
			}
			if _, ok := e.Args["site_rows_scanned"]; ok {
				breakdownEvent = true
			}
		default:
			t.Errorf("unexpected phase %q on %q", e.Ph, e.Name)
		}
	}
	if meta < 3 { // coordinator + sites 0 and 1
		t.Errorf("%d metadata events, want >= 3", meta)
	}
	if !queryEvent {
		t.Error("no query span event")
	}
	if failed != 1 {
		t.Errorf("%d failed-call events, want 1", failed)
	}
	if !breakdownEvent {
		t.Error("no event carries the site-side breakdown args")
	}
}
