package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Trace-event export: a QueryProfile rendered in the Chrome trace-event JSON
// format (the "JSON Array Format" with a traceEvents wrapper), which Perfetto
// and chrome://tracing load directly. The coordinator is pid 0; each site is
// pid site+1; every site call gets its own tid so overlapping calls (parallel
// sites, retried attempts) render as separate timeline tracks.

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"` // microseconds
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteTraceEvents renders p as trace-event JSON. Timestamps are relative to
// the query start; durations are clamped to at least 1µs so zero-length
// spans stay visible in viewers.
func WriteTraceEvents(w io.Writer, p *QueryProfile) error {
	us := func(d time.Duration) int64 {
		if v := d.Microseconds(); v > 0 {
			return v
		}
		return 1
	}
	since := func(t time.Time) int64 {
		if t.IsZero() || t.Before(p.Start) {
			return 0
		}
		return t.Sub(p.Start).Microseconds()
	}

	events := []traceEvent{{
		Name: "process_name", Ph: "M", Pid: 0, Tid: 0,
		Args: map[string]any{"name": "coordinator"},
	}}
	sites := map[int]bool{}
	for i := range p.Rounds {
		for _, c := range p.Rounds[i].Calls {
			if !sites[c.Site] {
				sites[c.Site] = true
				events = append(events, traceEvent{
					Name: "process_name", Ph: "M", Pid: c.Site + 1, Tid: 0,
					Args: map[string]any{"name": fmt.Sprintf("site %d", c.Site)},
				})
			}
		}
	}

	events = append(events, traceEvent{
		Name: "query " + p.QueryID, Ph: "X", Ts: 0, Dur: us(p.Elapsed), Pid: 0, Tid: 0,
		Args: map[string]any{
			"fingerprint": p.Plan.Fingerprint,
			"mode":        p.Plan.Mode,
			"rules":       p.Plan.Rules,
			"err":         p.Err,
		},
	})

	tid := 1
	for i := range p.Rounds {
		r := &p.Rounds[i]
		events = append(events, traceEvent{
			Name: "round " + r.Name, Ph: "X", Ts: since(r.Start), Dur: us(r.Elapsed),
			Pid: 0, Tid: 0,
			Args: map[string]any{
				"x_rows":     r.XRows,
				"bytes_down": r.BytesDown,
				"bytes_up":   r.BytesUp,
				"coord_us":   r.CoordTime.Microseconds(),
			},
		})
		for _, c := range r.Calls {
			name := fmt.Sprintf("%s site %d", r.Name, c.Site)
			if c.Attempt > 1 || c.Failed {
				name = fmt.Sprintf("%s attempt %d", name, c.Attempt)
			}
			if c.Failed {
				name += " (failed)"
			}
			args := map[string]any{
				"bytes_down": c.BytesDown,
				"bytes_up":   c.BytesUp,
				"rows_down":  c.RowsDown,
				"rows_up":    c.RowsUp,
				"compute_us": c.Compute.Microseconds(),
				"failed":     c.Failed,
			}
			if c.Err != "" {
				args["err"] = c.Err
			}
			if b := c.Breakdown; b != nil {
				args["site_eval_us"] = b.EvalNS / 1e3
				args["site_rows_scanned"] = b.RowsScanned
				args["site_seg_cache_reads"] = b.SegCacheReads
				args["site_seg_disk_reads"] = b.SegDiskReads
				args["site_codec_bytes"] = b.CodecBytes
				args["site_blocks"] = b.Blocks
			}
			events = append(events, traceEvent{
				Name: name, Ph: "X", Ts: since(c.Start), Dur: us(c.Elapsed),
				Pid: c.Site + 1, Tid: tid, Args: args,
			})
			tid++
		}
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(traceFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}
