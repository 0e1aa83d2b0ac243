// Command benchmark measures the served Skalla system — client sessions →
// query server → coordinator → four TCP sites — over loopback sockets: what a
// user sees (throughput, latency, wire bytes, allocation, set-up time) with
// tracing off, and where the time goes, layer by layer, from spans recorded
// around the calls into each package. See README.md.
//
//	sh benchmark/run.sh                        every workload, both runs, all metrics
//	sh benchmark/run.sh --workload scan_heavy --seed 1 --seconds 20 --trace 0
//	sh benchmark/run.sh -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// defaultSeconds is the measured window; BENCHMARK.json's run_seconds is the
// same number.
const defaultSeconds = 30

// The untimed warm-up before each measured window is fixed, so that two
// documents cannot differ in it: long enough for the caches, the schema
// lookups and the heap to settle (every template already ran once in
// set-up's cold pass), short enough that 92 driver runs fit their time cap.
const (
	warmup      = time.Second
	smokeWarmup = 50 * time.Millisecond
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run once, printing the result line last; empty runs every workload untraced and traced")
		seed     = fs.Int64("seed", 1, "seed of the generated instance and statement streams")
		seconds  = fs.Float64("seconds", defaultSeconds, "length of the measured window")
		trace    = fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		traceOut = fs.String("trace-out", "", "write the traced window's spans to this file as JSON lines")
		out      = fs.String("out", "", "write the runs as one JSON document to this file")
		repeat   = fs.Int("repeat", 1, "without -workload: runs per workload, seeds seed, seed+1, ...")
		smoke    = fs.Bool("smoke", false, "tiny instances, for tests")
		compare  = fs.Bool("compare", false, "compare two -out documents given as arguments and exit non-zero on a regression")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two documents")
			return 2
		}
		return compareFiles(stdout, stderr, fs.Arg(0), fs.Arg(1))
	}
	if *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: bad -seconds, -repeat or -trace")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), warmup: warmup, traceOut: *traceOut}
	if *smoke {
		cfg.warmup = smokeWarmup
	}
	ctx := context.Background()

	doc := newDocument(cfg, *smoke)
	code := 0
	one := func(w workload, seed int64, traced bool) {
		c := cfg
		c.w, c.seed, c.traced = w, seed, traced
		if *smoke {
			c.w = w.smokeSized()
		}
		if *name == "" && c.traceOut != "" {
			c.traceOut += "." + w.name // one span file per workload
		}
		res, err := run(ctx, c)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			code = 1
			return
		}
		printResult(stdout, res)
		if !res.Correct {
			fmt.Fprintf(stderr, "benchmark: %s: %s\n", w.name, res.Problem)
			code = 1
		}
		doc.Runs = append(doc.Runs, res)
	}

	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		one(w, *seed, *trace == 1)
		if len(doc.Runs) == 1 {
			// The result line is the last line of standard output.
			if err := json.NewEncoder(stdout).Encode(resultLine(doc.Runs[0])); err != nil {
				return 1
			}
		}
	} else {
		for _, w := range workloads {
			for k := 0; k < *repeat; k++ {
				one(w, *seed+int64(k), false)
				one(w, *seed+int64(k), true)
			}
		}
	}
	if *out != "" {
		if err := doc.write(*out); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return code
}

// document is the JSON file of one invocation: where and how it ran, the
// frozen workload sizes, and every run with its metrics and its per-template
// rounds/bytes table.
type document struct {
	GitSHA     string         `json:"git_sha"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	Clients    int            `json:"clients"`
	Sites      int            `json:"sites"`
	Seed       int64          `json:"seed"`
	WindowS    float64        `json:"window_s"`
	WarmupS    float64        `json:"warmup_s"`
	Smoke      bool           `json:"smoke,omitempty"`
	Workloads  []workloadSize `json:"workloads"`
	Runs       []*runResult   `json:"runs"`
}

type workloadSize struct {
	Name      string `json:"name"`
	Rows      int    `json:"rows"`
	Customers int    `json:"customers"`
	Clerks    int    `json:"clerks"`
	Templates int    `json:"templates"`
}

func newDocument(cfg runConfig, smoke bool) *document {
	d := &document{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Clients:    numClients,
		Sites:      numSites,
		Seed:       cfg.seed,
		WindowS:    cfg.seconds.Seconds(),
		WarmupS:    cfg.warmup.Seconds(),
		Smoke:      smoke,
	}
	for _, w := range workloads {
		if smoke {
			w = w.smokeSized()
		}
		d.Workloads = append(d.Workloads, workloadSize{w.name, w.rows, w.customers, w.clerks, len(w.templates)})
	}
	return d
}

func (d *document) write(path string) error {
	d.GitSHA = gitSHA()
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// gitSHA names the commit when the benchmark runs inside a work tree; a bare
// checkout has none.
func gitSHA() string {
	b, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// resultLine is the one JSON object a single-workload run ends with.
func resultLine(r *runResult) any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	m := make(map[string]value, len(defs))
	for _, d := range defs {
		m[d.Name] = value{r.Metrics[d.Name], d.Unit}
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, m}
}
