package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

func TestPercentile(t *testing.T) {
	v := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {0.5, 30}, {0.95, 48}, {1, 50}, {0.125, 15}} {
		if got := percentile(v, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 || percentile([]float64{7}, 0.95) != 7 {
		t.Error("percentile of empty or single sample")
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	q := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", q)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	if q := quartiles([]float64{1, 2, 4, 8}); q != [3]float64{1.25, 3, 7} {
		t.Errorf("quartiles = %v", q)
	}
}

func TestSelfTimeIsSpanMinusUnionOfChildren(t *testing.T) {
	parent := span{Start: 100, End: 200}
	children := []span{
		{Start: 110, End: 130},
		{Start: 120, End: 150}, // overlaps the first: union 110..150
		{Start: 125, End: 140}, // inside the union
		{Start: 170, End: 180},
		{Start: 190, End: 260}, // clipped at the parent's end
		{Start: 50, End: 90},   // outside
	}
	if got := covered(parent.Start, parent.End, children); got != 40+10+10 {
		t.Errorf("covered = %d, want 60", got)
	}
	if got := selfTime(parent, children); got != 40 {
		t.Errorf("selfTime = %d, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d", got)
	}
}

func TestLinkAttachesEngineSpansAndCountsOrphans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spanQuery, Stmt: "s1-1", Start: 0, End: 100},
		{ID: 2, Name: spanHandle, Stmt: "s1-1", Start: 5, End: 95},
		// Two calls queue on site 0: their spans overlap, their holds do not.
		{ID: 3, Name: spanCall, Stmt: "s1-1", Site: 0, Start: 10, End: 42, HoldStart: 11, HoldEnd: 40},
		{ID: 4, Name: spanCall, Stmt: "s2-1", Site: 0, Start: 12, End: 80, HoldStart: 41, HoldEnd: 78},
		{ID: 5, Name: spanOp, Site: 0, Start: 15, End: 35},
		{ID: 6, Name: spanBase, Site: 0, Start: 45, End: 70},
		// Site 1 has a call, but this engine span lies outside its hold.
		{ID: 7, Name: spanCall, Stmt: "s1-1", Site: 1, Start: 10, End: 30, HoldStart: 10, HoldEnd: 29},
		{ID: 8, Name: spanLocal, Site: 1, Start: 50, End: 60},
		// A second engine span inside call 3's hold: the call is taken.
		{ID: 9, Name: spanOp, Site: 0, Start: 36, End: 39},
	}
	if got := link(spans); got != 2 {
		t.Fatalf("orphans = %d, want 2", got)
	}
	if spans[1].Parent != 1 {
		t.Errorf("handler parent = %d, want the client span", spans[1].Parent)
	}
	if spans[4].Parent != 3 || spans[4].Stmt != "s1-1" {
		t.Errorf("engine span 5 attached to %d (%s)", spans[4].Parent, spans[4].Stmt)
	}
	if spans[5].Parent != 4 || spans[5].Stmt != "s2-1" {
		t.Errorf("engine span 6 attached to %d (%s)", spans[5].Parent, spans[5].Stmt)
	}
	if spans[7].Parent != 0 || spans[8].Parent != 0 {
		t.Error("orphans must stay unattached")
	}
}

var literalRE = regexp.MustCompile(`Discount >= (0\.00\d{10})`)

func TestStatementStreamIsSeeded(t *testing.T) {
	list := func(w workload, seed int64) []string {
		g := newStmtGen(w, seed, 0)
		out := make([]string, 50)
		for i := range out {
			_, out[i] = g.Next()
		}
		return out
	}
	for _, w := range workloads {
		a, b, c := list(w, 7), list(w, 7), list(w, 8)
		same := true
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: same seed, different statement %d", w.name, i)
			}
			same = same && a[i] == c[i]
		}
		if same {
			t.Errorf("%s: different seeds gave the same statements", w.name)
		}
		if w.zipf {
			continue
		}
		seen := map[string]bool{}
		for _, stmt := range a {
			m := literalRE.FindStringSubmatch(stmt)
			if m == nil {
				t.Fatalf("%s: no unique literal in %q", w.name, stmt)
			}
			x, err := strconv.ParseFloat(m[1], 64)
			if err != nil || x <= 0 || x >= 0.01 {
				t.Errorf("%s: literal %s outside (0, 0.01)", w.name, m[1])
			}
			if seen[m[1]] {
				t.Errorf("%s: literal %s repeats", w.name, m[1])
			}
			seen[m[1]] = true
		}
	}
}

func TestDashboardWorkingSetFitsTheCaches(t *testing.T) {
	w, _ := findWorkload("dashboard_repeat")
	if n := len(w.templates); n != 16 {
		t.Fatalf("dashboard_repeat has %d statements, want 16", n)
	}
	sum := 0.0
	for _, p := range w.weights() {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %v", sum)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "qps", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d    metricDef
		a, b summary
		want string
	}{
		{lower, summary{n: 10, median: 100, spread: 0.02}, summary{n: 10, median: 105, spread: 0.02}, "ok"},
		{lower, summary{n: 10, median: 100, spread: 0.02}, summary{n: 10, median: 115, spread: 0.02}, "regressed"},
		{lower, summary{n: 10, median: 100, spread: 0.02}, summary{n: 10, median: 80, spread: 0.02}, "ok"},
		{higher, summary{n: 10, median: 100, spread: 0.02}, summary{n: 10, median: 85, spread: 0.02}, "regressed"},
		{higher, summary{n: 10, median: 100, spread: 0.02}, summary{n: 10, median: 120, spread: 0.02}, "ok"},
		{lower, summary{n: 10, median: 100, spread: 0.30}, summary{n: 10, median: 105, spread: 0.02}, "unresolved"},
		{lower, summary{n: 10, median: 100, spread: 0.30}, summary{n: 10, median: 115, spread: 0.02}, "unresolved"},
		{lower, summary{n: 1, median: 100, spread: -1}, summary{n: 1, median: 115, spread: -1}, "regressed"},
	} {
		if _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v → %v: %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONMatches(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q", i, bj.Workloads[i].Name, bj.Workloads[i].Why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program has %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", bj.Paths)
	}
	if float64(bj.RunSeconds) != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default window is %v", bj.RunSeconds, defaultSeconds)
	}
}

// TestSmoke runs every workload end to end, untraced and traced, over tiny
// instances, and checks that every metric and workload BENCHMARK.json names
// comes out and that the result passes the oracle.
func TestSmoke(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	out := filepath.Join(t.TempDir(), "smoke.json")
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-smoke", "-seconds", "0.2", "-out", out, "-trace-out", spans}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	doc, err := loadDocument(out)
	if err != nil {
		t.Fatal(err)
	}
	if !doc.Smoke || doc.GoVersion == "" || doc.GOMAXPROCS == 0 || len(doc.Workloads) != len(bj.Workloads) {
		t.Errorf("document header incomplete: %+v", doc)
	}
	for _, w := range bj.Workloads {
		for _, traced := range []bool{false, true} {
			var run *runResult
			for _, r := range doc.Runs {
				if r.Workload == w.Name && r.Traced == traced {
					run = r
				}
			}
			if run == nil {
				t.Errorf("%s traced=%v: no run", w.Name, traced)
				continue
			}
			if !run.Correct || run.Failed != 0 || run.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %s", w.Name, traced, run.Correct, run.Attempted, run.Failed, run.Problem)
			}
			defs := bj.EndToEnd
			if traced {
				defs = bj.PerLayer
			}
			for _, d := range defs {
				v, ok := run.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, d.Name)
				}
				if !traced && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, v)
				}
				if !bytes.Contains(stdout.Bytes(), []byte(d.Name)) {
					t.Errorf("metric %s not printed", d.Name)
				}
			}
			if !traced && len(run.Traffic) == 0 {
				t.Errorf("%s: no rounds/bytes table", w.Name)
			}
		}
	}
	if fi, err := os.Stat(spans + ".paper_mix"); err != nil || fi.Size() == 0 {
		t.Errorf("span file: %v", err)
	}

	// The design of the layer split, visible even at smoke size.
	layer := func(w, m string) float64 {
		for _, r := range doc.Runs {
			if r.Workload == w && r.Traced {
				return r.Metrics[m]
			}
		}
		return math.NaN()
	}
	if v := layer("dashboard_repeat", "core.result_cache_hit_ratio"); v < 0.95 {
		t.Errorf("dashboard_repeat result-cache hit ratio = %v", v)
	}
	for _, w := range []string{"scan_heavy", "group_heavy", "paper_mix"} {
		if v := layer(w, "core.result_cache_hit_ratio"); v != 0 {
			t.Errorf("%s result-cache hit ratio = %v, want 0", w, v)
		}
		if v := layer(w, "engine.local_call_share"); (v > 0) != (w == "paper_mix") {
			t.Errorf("%s local call share = %v", w, v)
		}
	}

	if !bytes.Contains(stdout.Bytes(), []byte(failRatio.Name)) {
		t.Errorf("metric %s not printed", failRatio.Name)
	}

	// Comparing the document with itself regresses nothing.
	var cmp bytes.Buffer
	if code := compareDocuments(&cmp, doc, doc); code != 0 {
		t.Errorf("self-compare exit %d\n%s", code, cmp.String())
	}
	// One failed statement more is a regression, whatever the times say.
	worse := *doc
	worse.Runs = append([]*runResult(nil), doc.Runs...)
	failing := *worse.Runs[0]
	failing.Failed++
	worse.Runs[0] = &failing
	cmp.Reset()
	if code := compareDocuments(&cmp, doc, &worse); code != 1 || !bytes.Contains(cmp.Bytes(), []byte("regressed")) {
		t.Errorf("compare with a failed statement: exit %d\n%s", code, cmp.String())
	}
	// Documents measured over different windows are not compared.
	longer := *doc
	longer.WindowS *= 2
	if code := compareDocuments(&cmp, doc, &longer); code != 2 {
		t.Errorf("compare across window lengths: exit %d", code)
	}
}

// The single-workload form ends with the contract's result line.
func TestResultLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-smoke", "--workload", "paper_mix", "--seed", "3", "--seconds", "0.2", "--trace", "0"}
	if code := realMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var line struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(bytes.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line: %v\n%s", err, lines[len(lines)-1])
	}
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != len(endToEnd) {
		t.Errorf("result line: %+v", line)
	}
	for _, d := range endToEnd {
		if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("result line metric %s: %+v", d.Name, m)
		}
	}
}
