// Package stats collects the cost components the paper's evaluation reports:
// bytes and groups (rows) transferred between the coordinator and the sites,
// per-round message counts, site computation time, coordinator computation
// time, and a deterministic network model that converts measured traffic into
// communication time so that response-time curves are reproducible.
package stats

import (
	"fmt"
	"strings"
	"time"

	"skalla/internal/obs"
)

// NetModel is a deterministic LAN cost model: each message pays a fixed
// latency plus size/bandwidth. The zero value means "free network" (pure
// computation timing).
type NetModel struct {
	LatencyPerMsg time.Duration
	BytesPerSec   float64
}

// DefaultLAN approximates the paper's late-90s testbed LAN: 1 ms per message
// and 10 MB/s effective bandwidth.
func DefaultLAN() NetModel {
	return NetModel{LatencyPerMsg: time.Millisecond, BytesPerSec: 10 << 20}
}

// Cost returns the modeled transfer time of one message of the given size.
func (m NetModel) Cost(bytes int) time.Duration {
	d := m.LatencyPerMsg
	if m.BytesPerSec > 0 {
		d += time.Duration(float64(bytes) / m.BytesPerSec * float64(time.Second))
	}
	return d
}

// Call is the measured cost of one coordinator→site→coordinator exchange.
type Call = obs.SiteCall

// RoundStat aggregates one evaluation round (one local-processing-then-
// synchronization step, Sect. 3.2).
type RoundStat struct {
	Name      string
	Calls     []Call
	CoordTime time.Duration // synchronization work at the coordinator
}

// BytesDown returns the round's total coordinator→sites bytes.
func (r *RoundStat) BytesDown() int {
	n := 0
	for _, c := range r.Calls {
		n += c.BytesDown
	}
	return n
}

// BytesUp returns the round's total sites→coordinator bytes.
func (r *RoundStat) BytesUp() int {
	n := 0
	for _, c := range r.Calls {
		n += c.BytesUp
	}
	return n
}

// RowsDown returns the round's total rows shipped to sites.
func (r *RoundStat) RowsDown() int {
	n := 0
	for _, c := range r.Calls {
		n += c.RowsDown
	}
	return n
}

// RowsUp returns the round's total rows returned by sites.
func (r *RoundStat) RowsUp() int {
	n := 0
	for _, c := range r.Calls {
		n += c.RowsUp
	}
	return n
}

// MaxSiteCompute returns the slowest site's computation time (sites work in
// parallel, so this is the round's compute contribution to response time).
func (r *RoundStat) MaxSiteCompute() time.Duration {
	var mx time.Duration
	for _, c := range r.Calls {
		if c.Compute > mx {
			mx = c.Compute
		}
	}
	return mx
}

// MaxSiteComm returns the slowest site's modeled communication time
// (request + response) under the network model.
func (r *RoundStat) MaxSiteComm(m NetModel) time.Duration {
	var mx time.Duration
	for _, c := range r.Calls {
		d := m.Cost(c.BytesDown) + m.Cost(c.BytesUp)
		if d > mx {
			mx = d
		}
	}
	return mx
}

// Metrics is the full cost record of one distributed query evaluation.
type Metrics struct {
	Net    NetModel
	Rounds []RoundStat
}

// NewMetrics creates an empty metrics record under a network model.
func NewMetrics(net NetModel) *Metrics { return &Metrics{Net: net} }

// MetricsOf is the metrics view of a finished query profile: one round per
// profiled round, holding that round's successful calls (failed attempts are
// retried or fail the query, so their traffic is not the plan's).
func MetricsOf(net NetModel, p *obs.QueryProfile) *Metrics {
	m := NewMetrics(net)
	for i := range p.Rounds {
		pr := &p.Rounds[i]
		r := RoundStat{Name: pr.Name, CoordTime: pr.CoordTime}
		for _, c := range pr.Calls {
			if !c.Failed {
				r.Calls = append(r.Calls, c.SiteCall)
			}
		}
		m.AddRound(r)
	}
	return m
}

// AddRound appends a completed round.
func (m *Metrics) AddRound(r RoundStat) { m.Rounds = append(m.Rounds, r) }

// NumRounds returns the number of synchronization rounds.
func (m *Metrics) NumRounds() int { return len(m.Rounds) }

// TotalBytes returns all bytes moved in both directions.
func (m *Metrics) TotalBytes() int { return m.TotalBytesDown() + m.TotalBytesUp() }

// TotalBytesDown returns coordinator→sites bytes across rounds.
func (m *Metrics) TotalBytesDown() int {
	n := 0
	for i := range m.Rounds {
		n += m.Rounds[i].BytesDown()
	}
	return n
}

// TotalBytesUp returns sites→coordinator bytes across rounds.
func (m *Metrics) TotalBytesUp() int {
	n := 0
	for i := range m.Rounds {
		n += m.Rounds[i].BytesUp()
	}
	return n
}

// TotalRows returns all base/sub-aggregate rows moved in both directions
// (the "groups transferred" unit of the paper's Sect. 5.2 analysis).
func (m *Metrics) TotalRows() int {
	n := 0
	for i := range m.Rounds {
		n += m.Rounds[i].RowsDown() + m.Rounds[i].RowsUp()
	}
	return n
}

// TotalMessages returns the number of site exchanges (one request + one
// response each).
func (m *Metrics) TotalMessages() int {
	n := 0
	for i := range m.Rounds {
		n += len(m.Rounds[i].Calls)
	}
	return n
}

// SiteTime returns the summed per-round maximum site computation time: the
// compute component of response time with sites running in parallel.
func (m *Metrics) SiteTime() time.Duration {
	var d time.Duration
	for i := range m.Rounds {
		d += m.Rounds[i].MaxSiteCompute()
	}
	return d
}

// SiteTimeTotal returns the total computation across all sites (work, not
// response time).
func (m *Metrics) SiteTimeTotal() time.Duration {
	var d time.Duration
	for i := range m.Rounds {
		for _, c := range m.Rounds[i].Calls {
			d += c.Compute
		}
	}
	return d
}

// CoordTime returns the coordinator's synchronization time across rounds.
func (m *Metrics) CoordTime() time.Duration {
	var d time.Duration
	for i := range m.Rounds {
		d += m.Rounds[i].CoordTime
	}
	return d
}

// CommTime returns the modeled communication component of response time:
// per round, the slowest site's request+response transfer.
func (m *Metrics) CommTime() time.Duration {
	var d time.Duration
	for i := range m.Rounds {
		d += m.Rounds[i].MaxSiteComm(m.Net)
	}
	return d
}

// ResponseTime is the modeled end-to-end query evaluation time: per round,
// communication and the slowest site run back-to-back, then the coordinator
// synchronizes. This is the quantity the paper's time figures plot.
func (m *Metrics) ResponseTime() time.Duration {
	return m.CommTime() + m.SiteTime() + m.CoordTime()
}

// String renders a per-round breakdown table.
func (m *Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %10s %10s %8s %8s %12s %12s\n",
		"round", "bytesDown", "bytesUp", "rowsDn", "rowsUp", "siteMax", "coord")
	for i := range m.Rounds {
		r := &m.Rounds[i]
		fmt.Fprintf(&b, "%-14s %10d %10d %8d %8d %12s %12s\n",
			r.Name, r.BytesDown(), r.BytesUp(), r.RowsDown(), r.RowsUp(),
			r.MaxSiteCompute().Round(time.Microsecond), r.CoordTime.Round(time.Microsecond))
	}
	fmt.Fprintf(&b, "total: %d bytes, %d rows, %d msgs, response %s (site %s, coord %s, comm %s)\n",
		m.TotalBytes(), m.TotalRows(), m.TotalMessages(),
		m.ResponseTime().Round(time.Microsecond), m.SiteTime().Round(time.Microsecond),
		m.CoordTime().Round(time.Microsecond), m.CommTime().Round(time.Microsecond))
	return b.String()
}
