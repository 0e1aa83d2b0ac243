package core

import (
	"skalla/internal/obs"
	"skalla/internal/stats"
)

// SetObserver attaches an observer to every query span this coordinator
// opens (nil detaches): obs.NewLineObserver(w) renders the rounds, site calls
// and retries as trace lines. Observation never changes plans or results.
func (c *Coordinator) SetObserver(o obs.Observer) { c.observer = o }

// obsCall converts a stats.Call to the obs span model's call record.
func obsCall(c stats.Call) obs.SiteCall {
	return obs.SiteCall{
		Site:      c.Site,
		BytesDown: c.BytesDown,
		BytesUp:   c.BytesUp,
		RowsDown:  c.RowsDown,
		RowsUp:    c.RowsUp,
		Compute:   c.Compute,
		Start:     c.Start,
		Elapsed:   c.Elapsed,
		Attempt:   c.Attempt,
		Breakdown: c.Profile,
	}
}
