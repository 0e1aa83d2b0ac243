package main

import "sort"

// link resolves the parents that could not be known when a span was
// recorded, and returns the number of orphan engine spans.
//
// A server.handle span belongs under the client's server.query span of the
// same statement id. An engine span crossed the TCP hop without an id, so it
// attaches to the transport.call on the same site that held the connection
// around it. Calls queue for a site's connection inside the client, so their
// spans overlap, but the intervals in which they hold it are serial: exactly
// one contains the engine span. An engine span with no such call, or a call
// claimed twice, is an orphan and means the wrappers miss a path.
func link(spans []span) (orphans int) {
	queryOf := make(map[string]int64)
	callsAt := make(map[int][]int) // site → indexes of its transport.call spans
	for i, s := range spans {
		switch s.Name {
		case spanQuery:
			queryOf[s.Stmt] = s.ID
		case spanCall:
			callsAt[s.Site] = append(callsAt[s.Site], i)
		}
	}
	claimed := make(map[int]bool)
	for i := range spans {
		s := &spans[i]
		switch {
		case s.Name == spanHandle:
			s.Parent = queryOf[s.Stmt]
		case isEngine(s.Name):
			found := -1
			for _, ci := range callsAt[s.Site] {
				if c := spans[ci]; c.HoldStart <= s.Start && s.End <= c.HoldEnd {
					found = ci
					break
				}
			}
			if found < 0 || claimed[found] {
				orphans++
				continue
			}
			claimed[found] = true
			s.Parent, s.Stmt = spans[found].ID, spans[found].Stmt
		}
	}
	return orphans
}

// covered returns the length of the union of the children's intervals,
// clipped to [start, end).
func covered(start, end int64, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, start), min(c.End, end)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, hi int64
	hi = start
	for _, x := range iv {
		if x[1] <= hi {
			continue
		}
		total += x[1] - max(x[0], hi)
		hi = x[1]
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(s span, children []span) int64 {
	return s.dur() - covered(s.Start, s.End, children)
}

func isEngine(name string) bool { return name == spanBase || name == spanOp || name == spanLocal }

// layerMetrics derives the per-layer numbers of one window from its linked
// spans and the clients' replies, and returns the blocking path: per
// statement, in ms, everything between the client's send and the reply that
// is not waiting for a site's connection.
//
// Every per-statement figure is a mean over the window's statements that
// succeeded; a statement served from the result cache contributes zeros to
// the site-side figures, which is the point of reporting them per query.
func layerMetrics(spans []span, w *window, partRows []int, m map[string]float64) (pathMS float64) {
	byID := make(map[int64]span, len(spans))
	children := make(map[int64][]span)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	ok := make(map[string]bool, len(w.replies))
	var rows, planHits, queueNS, latencyNS float64
	for _, r := range w.replies {
		if r.failed {
			continue
		}
		ok[r.qid] = true
		rows += float64(r.rows)
		queueNS += float64(r.queueNS)
		latencyNS += float64(r.latency)
		if r.cacheHit {
			planHits++
		}
	}
	n := float64(len(ok))
	if n == 0 {
		return 0
	}

	var frameNS, coreSelfNS, waitNS, heldNS, wireNS, evalNS, emitNS, busyNS float64
	var calls, callNS, localCalls, retries, zeroCall float64
	var bytesDown, bytesUp, rowsDown, rowsUp, maxSiteBytes, scanned float64
	for _, s := range spans {
		if !ok[s.Stmt] {
			continue
		}
		switch s.Name {
		case spanHandle:
			if q, found := byID[s.Parent]; found {
				frameNS += float64(q.dur() - s.dur())
			}
		case spanExecute:
			coreSelfNS += float64(selfTime(s, children[s.ID]))
			// A round waits for its slowest site. The parts of a call — wire,
			// evaluation, emit — each count with their maximum over the
			// round's sites; the blocking path takes the call that ended
			// last, split into its wait for the connection and the rest.
			type round struct {
				wire, eval, emit int64
				end, wait, held  int64
			}
			rounds := make(map[string]*round)
			stmtCalls := 0
			for _, c := range children[s.ID] {
				if c.Name != spanCall {
					continue
				}
				stmtCalls++
				callNS += float64(c.dur())
				bytesDown += float64(c.BytesDown)
				bytesUp += float64(c.BytesUp)
				rowsDown += float64(c.RowsDown)
				rowsUp += float64(c.RowsUp)
				maxSiteBytes = max(maxSiteBytes, float64(c.BytesDown+c.BytesUp))
				if c.Attempt > 1 {
					retries++
				}
				var engNS, engEmit int64
				for _, e := range children[c.ID] { // the engine span link attached
					engNS += e.dur()
					engEmit += e.EmitNS
					scanned += float64(partRows[e.Site])
					if e.Name == spanLocal {
						localCalls++
					}
				}
				busyNS += float64(engNS - engEmit)
				r := rounds[c.Round]
				if r == nil {
					r = &round{}
					rounds[c.Round] = r
				}
				wait := max(0, c.HoldStart-c.Start)
				r.wire = max(r.wire, c.dur()-wait-engNS)
				r.eval = max(r.eval, engNS-engEmit)
				r.emit = max(r.emit, engEmit)
				if c.End > r.end {
					r.end, r.wait, r.held = c.End, wait, c.dur()-wait
				}
			}
			for _, r := range rounds {
				wireNS += float64(r.wire)
				evalNS += float64(r.eval)
				emitNS += float64(r.emit)
				waitNS += float64(r.wait)
				heldNS += float64(r.held)
			}
			calls += float64(stmtCalls)
			if stmtCalls == 0 {
				zeroCall++
			}
		}
	}

	m["server.frame_ms"] = frameNS / n / 1e6
	m["server.result_rows_per_query"] = rows / n
	m["core.self_ms"] = coreSelfNS / n / 1e6
	m["core.plan_cache_hit_ratio"] = planHits / n
	m["core.result_cache_hit_ratio"] = zeroCall / n
	m["core.admission_wait_ms"] = queueNS / n / 1e6
	m["core.site_calls_per_query"] = calls / n
	if calls > 0 {
		m["transport.call_ms"] = callNS / calls / 1e6
		m["engine.local_call_share"] = localCalls / calls
	}
	m["transport.conn_wait_ms"] = waitNS / n / 1e6
	m["transport.wire_ms"] = wireNS / n / 1e6
	m["transport.emit_ms"] = emitNS / n / 1e6
	m["transport.bytes_down_per_query"] = bytesDown / n
	m["transport.bytes_up_per_query"] = bytesUp / n
	m["transport.rows_down_per_query"] = rowsDown / n
	m["transport.rows_up_per_query"] = rowsUp / n
	m["transport.max_site_bytes_per_round"] = maxSiteBytes
	m["transport.retries"] = retries
	m["engine.eval_ms"] = evalNS / n / 1e6
	m["engine.busy_ms_per_query"] = busyNS / n / 1e6
	if busyNS > 0 {
		m["engine.rows_scanned_per_s"] = scanned / (busyNS / 1e9)
	}
	// What the path and the connection wait leave of the client's latency:
	// the handler around core.execute, and calls of a round starting apart.
	m["trace.unattributed_ms"] = (latencyNS - frameNS - coreSelfNS - heldNS - waitNS) / n / 1e6
	return (frameNS + coreSelfNS + heldNS) / n / 1e6
}

// ownTimes are the layer times reported from the quiet pass.
var ownTimes = []string{"server.frame_ms", "core.self_ms", "transport.wire_ms", "transport.emit_ms", "engine.eval_ms"}

// splitSchedWait replaces the loaded window's layer times in m with the
// quiet pass's, and reports as process.sched_wait_ms what the loaded
// window's blocking path is longer than their sum. Under the two-client load
// eight engine workers and two statements share two cores, so a goroutine
// woken by the network waits milliseconds for a processor; the loaded spans
// cannot tell that wait from the layer's own work, the quiet pass — the same
// statements with one site call at a time — has none of it.
func splitSchedWait(m map[string]float64, loadedPathMS float64, quiet map[string]float64) {
	wait := loadedPathMS
	for _, name := range ownTimes {
		wait -= quiet[name]
		m[name] = quiet[name]
	}
	m["process.sched_wait_ms"] = wait
}
