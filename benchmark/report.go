package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// printResult prints every metric of a run by name, with its unit and the
// sample count behind it.
func printResult(out io.Writer, r *runResult) {
	kind, defs := "untraced", endToEnd
	if r.Traced {
		kind, defs = "traced", perLayer
	}
	fmt.Fprintf(out, "== %s  seed %d  %s  samples %d  attempted %d  failed %d  check_s %.3f\n",
		r.Workload, r.Seed, kind, r.Samples, r.Attempted, r.Failed, r.CheckS)
	if !r.Traced {
		defs = append(defs[:len(defs):len(defs)], failRatio)
	}
	for _, d := range defs {
		fmt.Fprintf(out, "  %-36s %16.6g %s\n", d.Name, r.Metrics[d.Name], d.Unit)
	}
	if r.P99ms > 0 {
		fmt.Fprintf(out, "  %-36s %16.6g ms (informational)\n", "latency_p99_ms", r.P99ms)
	}
	if len(r.Traffic) > 0 {
		fmt.Fprintf(out, "  %-24s %-16s %10s %10s %10s\n", "template", "round", "bytes", "max/site", "estimate")
		for _, t := range r.Traffic {
			for _, rd := range t.Rounds {
				fmt.Fprintf(out, "  %-24s %-16s %10d %10d %10d\n", t.Template, rd.Name, rd.Bytes, rd.MaxSiteBytes, rd.EstimateBytes)
			}
		}
	}
}

// quartiles returns the three cut points of sorted values the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method); it needs at
// least two values.
func quartiles(sorted []float64) (q [3]float64) {
	n := len(sorted)
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return q
}

// summary is the median of a (metric, workload) pair's runs and their
// spread: the distance between the quartiles as a share of the median, known
// only from four runs up.
type summary struct {
	n      int
	median float64
	spread float64
}

func summarize(values []float64) summary {
	s := summary{n: len(values), spread: -1}
	if s.n == 0 {
		return s
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	s.median = percentile(sorted, 0.5)
	if s.n >= 4 && s.median != 0 {
		q := quartiles(sorted)
		s.spread = (q[2] - q[0]) / s.median
	}
	return s
}

// verdict applies a metric's bound to the two sides of a comparison. A change
// regresses when the second median is worse than the first by more than the
// bound and by more than either side's own spread; when the spread is wider
// than the bound the pair is unresolved, not unchanged.
func verdict(d metricDef, a, b summary) (worse float64, status string) {
	if a.median != 0 {
		worse = (b.median - a.median) / a.median
		if d.Better == "higher" {
			worse = -worse
		}
	}
	spread := max(a.spread, b.spread)
	switch {
	case worse > d.Bound && worse > spread:
		return worse, "regressed"
	case spread > d.Bound:
		return worse, "unresolved"
	}
	return worse, "ok"
}

func loadDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// values collects one end-to-end metric of one workload over a document's
// untraced runs.
func (d *document) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range d.Runs {
		if r.Workload == workload && !r.Traced {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// compareFiles prints one row per (end-to-end metric, workload) with both
// medians, the ratio with its base, and the verdict; it returns 1 when any
// pair regressed.
func compareFiles(out, errOut io.Writer, pathA, pathB string) int {
	var docs [2]*document
	for i, path := range []string{pathA, pathB} {
		d, err := loadDocument(path)
		if err != nil {
			fmt.Fprintf(errOut, "benchmark: %v\n", err)
			return 2
		}
		docs[i] = d
	}
	return compareDocuments(out, docs[0], docs[1])
}

// failures sums a workload's failed and attempted statements over all of a
// document's runs, and counts the runs that were not correct.
func (d *document) failures(workload string) (failed, attempted, incorrect int) {
	for _, r := range d.Runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
			if !r.Correct {
				incorrect++
			}
		}
	}
	return failed, attempted, incorrect
}

// compareDocuments returns 2 without comparing when the documents were not
// measured the same way: run length is set by the benchmark and is the same
// on both sides.
func compareDocuments(out io.Writer, a, b *document) int {
	if a.WindowS != b.WindowS || a.WarmupS != b.WarmupS || a.Smoke != b.Smoke {
		fmt.Fprintf(out, "not comparable: window_s %v vs %v, warmup_s %v vs %v, smoke %v vs %v\n",
			a.WindowS, b.WindowS, a.WarmupS, b.WarmupS, a.Smoke, b.Smoke)
		return 2
	}
	code := 0
	fmt.Fprintf(out, "%-22s %-17s %12s %12s  %-22s %7s %8s %8s  %s\n",
		"metric", "workload", "a", "b", "b/a", "bound", "spread_a", "spread_b", "verdict")
	spread := func(s summary) string {
		if s.spread < 0 {
			return fmt.Sprintf("n=%d", s.n)
		}
		return fmt.Sprintf("%.1f%%", 100*s.spread)
	}
	for _, d := range endToEnd {
		for _, w := range workloads {
			sa, sb := summarize(a.values(w.name, d.Name)), summarize(b.values(w.name, d.Name))
			if sa.n == 0 || sb.n == 0 {
				continue
			}
			_, status := verdict(d, sa, sb)
			if status == "regressed" {
				code = 1
			}
			ratio := "-"
			if sa.median != 0 {
				ratio = fmt.Sprintf("%.3f of %.4g %s", sb.median/sa.median, sa.median, d.Unit)
			}
			fmt.Fprintf(out, "%-22s %-17s %12.5g %12.5g  %-22s %6.0f%% %8s %8s  %s\n",
				d.Name, w.name, sa.median, sb.median, ratio, 100*d.Bound, spread(sa), spread(sb), status)
		}
	}
	// fail_ratio is 0 when all is well, so its bound is not a share of the
	// median: any increase, or any more incorrect runs, is a regression.
	for _, w := range workloads {
		fa, na, ia := a.failures(w.name)
		fb, nb, ib := b.failures(w.name)
		if na == 0 || nb == 0 {
			continue
		}
		ra, rb := float64(fa)/float64(na), float64(fb)/float64(nb)
		status := "ok"
		if rb > ra || ib > ia {
			status, code = "regressed", 1
		}
		fmt.Fprintf(out, "%-22s %-17s %12.5g %12.5g  %-22s %7s %8s %8s  %s\n",
			failRatio.Name, w.name, ra, rb, fmt.Sprintf("%d/%d vs %d/%d", fa, na, fb, nb), "any", "-", "-", status)
	}
	return code
}
