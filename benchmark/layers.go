package main

import (
	"context"
	"sort"
	"time"

	"skalla"
	"skalla/internal/relation"
)

// roundTraffic is one round of a template's cold execution: measured bytes
// (all sites and the busiest site — the per-round maximum per-site load is
// what bounds a round) next to the plan's cost-model estimate.
type roundTraffic struct {
	Name          string `json:"name"`
	Bytes         int    `json:"bytes"`
	MaxSiteBytes  int    `json:"max_site_bytes"`
	EstimateBytes int64  `json:"estimate_bytes"`
}

// templateTraffic is the rounds/bytes table of one template.
type templateTraffic struct {
	Template string         `json:"template"`
	Weight   float64        `json:"weight"`
	Bytes    int            `json:"bytes"`
	Rounds   []roundTraffic `json:"rounds"`
}

// measureTraffic executes every template once, sequentially and cold — the
// cluster has no caches before Serve installs them — so the bytes are the
// plan's traffic, which a cache hit would report as 0.
func measureTraffic(ctx context.Context, cl *skalla.Cluster, w workload) ([]templateTraffic, error) {
	weights := w.weights()
	out := make([]templateTraffic, len(w.templates))
	for i, t := range w.templates {
		q, err := parse(t.at(fixedLiteral))
		if err != nil {
			return nil, err
		}
		res, err := cl.ExecuteSelected(ctx, q)
		if err != nil {
			return nil, err
		}
		tt := templateTraffic{Template: t.name, Weight: weights[i], Bytes: res.Metrics.TotalBytes()}
		for k := range res.Metrics.Rounds {
			r := &res.Metrics.Rounds[k]
			rt := roundTraffic{Name: r.Name, Bytes: r.BytesDown() + r.BytesUp()}
			for _, c := range r.Calls {
				if b := c.BytesDown + c.BytesUp; b > rt.MaxSiteBytes {
					rt.MaxSiteBytes = b
				}
			}
			if est := res.Plan.Estimate.PerRound; k < len(est) {
				rt.EstimateBytes = est[k].BytesDown + est[k].BytesUp
			}
			tt.Rounds = append(tt.Rounds, rt)
		}
		out[i] = tt
	}
	return out, nil
}

// wireBytesPerQuery averages the table over the statement stream's template
// weights.
func wireBytesPerQuery(table []templateTraffic) float64 {
	sum := 0.0
	for _, t := range table {
		sum += t.Weight * float64(t.Bytes)
	}
	return sum
}

// Iteration counts of the direct-call pass: fixed, so the pass costs the
// same work on every commit, and small enough to stay near two seconds.
const (
	parseIters   = 2000
	compileIters = 40 // per template
	codecRows    = 400_000
)

// directCalls measures the layers that have a public entry point of their
// own by calling it: egil parse, plan compile, and the relation codec over
// the X and H_i payloads the site wrappers kept from this workload.
func directCalls(ctx context.Context, w workload, sys *system, seed int64, payloads []*relation.Relation, m map[string]float64) error {
	gen := newStmtGen(w, seed, numClients) // a stream no client used
	stmts := make([]string, 64)
	for i := range stmts {
		_, stmts[i] = gen.Next()
	}
	t0 := time.Now()
	for i := 0; i < parseIters; i++ {
		if _, err := parse(stmts[i%len(stmts)]); err != nil {
			return err
		}
	}
	m["egil.parse_us"] = float64(time.Since(t0).Microseconds()) / parseIters

	weights := w.weights()
	var total, worst, rounds float64
	for i, t := range w.templates {
		q, err := parse(t.at(fixedLiteral))
		if err != nil {
			return err
		}
		var pl *skalla.Plan
		t0 := time.Now()
		for k := 0; k < compileIters; k++ {
			if pl, err = sys.plan.PlanWith(ctx, q, skalla.SelectAll()); err != nil {
				return err
			}
		}
		us := float64(time.Since(t0).Microseconds()) / compileIters
		total += weights[i] * us
		if us > worst {
			worst = us
		}
		rounds += weights[i] * float64(pl.Rounds())
	}
	m["plan.compile_us"] = total
	m["plan.compile_max_us"] = worst
	m["plan.rounds_per_query"] = rounds

	// Largest payloads first: they are what the workload's wire time is made
	// of, and a fixed row budget then measures the same relations each run.
	sort.SliceStable(payloads, func(i, j int) bool { return payloads[i].Len() > payloads[j].Len() })
	var encNS, decNS time.Duration
	var rowsDone, bytesDone int
	for rowsDone < codecRows && len(payloads) > 0 {
		for _, rel := range payloads {
			t0 := time.Now()
			b, err := relation.Marshal(rel)
			if err != nil {
				return err
			}
			t1 := time.Now()
			if _, err := relation.Unmarshal(b); err != nil {
				return err
			}
			encNS += t1.Sub(t0)
			decNS += time.Since(t1)
			rowsDone += rel.Len()
			bytesDone += len(b)
		}
	}
	if rowsDone > 0 {
		m["relation.encode_ns_per_row"] = float64(encNS) / float64(rowsDone)
		m["relation.decode_ns_per_row"] = float64(decNS) / float64(rowsDone)
		m["relation.wire_bytes_per_row"] = float64(bytesDone) / float64(rowsDone)
	}
	return nil
}
