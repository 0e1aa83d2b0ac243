package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"skalla"
	"skalla/internal/engine"
	"skalla/internal/flow"
	"skalla/internal/manifest"
	"skalla/internal/transport"
)

// startCluster serves a generated flow dataset on two ephemeral TCP ports
// and returns the dataset directory and the joined site address list.
func startCluster(t *testing.T) (dir, sites string) {
	t.Helper()
	dir = t.TempDir()
	cfg := flow.Config{Rows: 400, Routers: 2, SourceAS: 10, DestAS: 4, Seed: 2}
	d, err := flow.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := manifest.Manifest{Kind: manifest.KindFlow, NumSites: 2, Flow: &cfg}
	if err := m.Save(dir); err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for i, part := range d.Parts {
		es := engine.NewSite(i)
		if err := es.Load(context.Background(), flow.RelationName, part); err != nil {
			t.Fatal(err)
		}
		srv, err := transport.Serve(es, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, srv.Addr())
	}
	return dir, strings.Join(addrs, ",")
}

const testQuery = `
base Flow key SourceAS
op B.SourceAS = R.SourceAS :: count(*) as flows, avg(NumBytes) as avgBytes
op B.SourceAS = R.SourceAS && R.NumBytes >= B.avgBytes :: count(*) as big
`

func TestCoordinatorExecutes(t *testing.T) {
	dir, sites := startCluster(t)
	var out bytes.Buffer
	err := run([]string{
		"-sites", sites, "-data", dir, "-q", testQuery, "-net", "lan",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, frag := range []string{"group(s):", "flows", "avgBytes", "plan ", "rounds: 1", "total:"} {
		if !strings.Contains(s, frag) {
			t.Errorf("output missing %q:\n%s", frag, s)
		}
	}
}

func TestCoordinatorExplain(t *testing.T) {
	dir, sites := startCluster(t)
	var out bytes.Buffer
	err := run([]string{
		"-sites", sites, "-data", dir, "-q", testQuery, "-plan-mode", "rules=local-prefix,sync-skip", "-explain",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "full local evaluation") {
		t.Errorf("explain output:\n%s", out.String())
	}
	// No result table in explain mode.
	if strings.Contains(out.String(), "group(s):") {
		t.Error("explain must not execute")
	}
}

// A single-operator query on a key no site partitions on plans as one
// base+MD1 round: no X fragment is shipped, so neither group reduction
// applies, and the plan's rule list is sync-skip alone.
func TestCoordinatorExplainBaseMD1Only(t *testing.T) {
	dir, sites := startCluster(t)
	const q = "base Flow key DestAS\nop B.DestAS = R.DestAS :: count(*) as flows\n"
	var out bytes.Buffer
	if err := run([]string{"-sites", sites, "-data", dir, "-q", q, "-explain"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"sync reduction: base sync folded into MD1 (Prop. 2)",
		"rule group-reduce-coord skipped: no coordinator-driven operator rounds to reduce",
		"rule group-reduce-site  skipped: no coordinator-driven operator rounds to guard",
		"rule group-reduce-observed skipped: no coordinator-driven operator rounds to reduce",
	} {
		if !strings.Contains(out.String(), frag) {
			t.Errorf("explain output missing %q:\n%s", frag, out.String())
		}
	}
	path := filepath.Join(t.TempDir(), "stats.json")
	if err := run([]string{"-sites", sites, "-data", dir, "-q", q, "-stats-json", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var export struct {
		Plan struct {
			Rules []string `json:"rules"`
		} `json:"plan"`
	}
	if err := json.Unmarshal(data, &export); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(export.Plan.Rules, ","); got != "sync-skip" {
		t.Errorf("plan rules = %q, want sync-skip", got)
	}
}

func TestCoordinatorQueryFile(t *testing.T) {
	dir, sites := startCluster(t)
	qf := filepath.Join(t.TempDir(), "q.skalla")
	if err := os.WriteFile(qf, []byte(testQuery), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-sites", sites, "-data", dir, "-query", qf, "-plan-mode", "none"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "rounds: 3") {
		t.Errorf("baseline should use 3 rounds:\n%s", out.String())
	}
}

func TestCoordinatorErrors(t *testing.T) {
	dir, sites := startCluster(t)
	var out bytes.Buffer
	cases := [][]string{
		{},                               // missing sites
		{"-sites", sites},                // missing query
		{"-sites", sites, "-q", "bogus"}, // bad query text
		{"-sites", sites, "-q", testQuery, "-plan-mode", "frob"},                     // bad plan mode
		{"-sites", sites, "-q", testQuery, "-data", "/nope"},                         // bad data dir
		{"-sites", "127.0.0.1:1", "-q", testQuery},                                   // unreachable site
		{"-sites", sites, "-query", "/nope/q.skalla"},                                // missing file
		{"-sites", sites, "-q", "base Missing key x\nop B.x = R.x :: count(*) as c"}, // unknown relation
	}
	_ = dir
	for _, args := range cases {
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v): expected error", args)
		}
	}
}

// Conflicting modes and out-of-domain flag values must fail fast, before any
// site is dialed (the bogus -sites value would hang a dial). -q/-query/-sql
// with -repl used to be silently ignored; they are flag errors now.
func TestFlagConflictsAndDomains(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"repl with -q", []string{"-sites", "x", "-repl", "-q", testQuery}},
		{"repl with -query", []string{"-sites", "x", "-repl", "-query", "q.skalla"}},
		{"repl with -sql", []string{"-sites", "x", "-repl", "-sql", "SELECT 1"}},
		{"repl with -explain", []string{"-sites", "x", "-repl", "-explain"}},
		{"serve with -repl", []string{"-sites", "x", "-serve", ":0", "-repl"}},
		{"serve with -q", []string{"-sites", "x", "-serve", ":0", "-q", testQuery}},
		{"serve with -sql", []string{"-sites", "x", "-serve", ":0", "-sql", "SELECT 1"}},
		{"serve with -explain", []string{"-sites", "x", "-serve", ":0", "-explain"}},
		{"negative block-rows", []string{"-sites", "x", "-q", testQuery, "-block-rows", "-1"}},
		{"negative max-rows", []string{"-sites", "x", "-q", testQuery, "-max-rows", "-1"}},
		{"zero site-retries", []string{"-sites", "x", "-q", testQuery, "-site-retries", "0"}},
		{"negative site-retries", []string{"-sites", "x", "-q", testQuery, "-site-retries", "-2"}},
		{"negative site-timeout", []string{"-sites", "x", "-q", testQuery, "-site-timeout", "-1s"}},
		{"negative slow-query", []string{"-sites", "x", "-q", testQuery, "-slow-query", "-1s"}},
		{"negative max-concurrent", []string{"-sites", "x", "-serve", ":0", "-max-concurrent", "-1"}},
		{"negative plan-cache", []string{"-sites", "x", "-serve", ":0", "-plan-cache", "-1"}},
		{"negative query-mem-budget", []string{"-sites", "x", "-serve", ":0", "-query-mem-budget", "-1"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, &out); err == nil {
				t.Errorf("run(%v): expected flag error", tc.args)
			}
		})
	}
}

// -opts and -workers are gone: an old script passing either fails loudly
// instead of running under settings other than it asked for.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, flag := range [][]string{{"-opts", "none"}, {"-workers", "2"}} {
		for _, mode := range [][]string{{"-q", testQuery}, {"-repl"}, {"-serve", ":0"}} {
			args := append(append([]string{"-sites", "x"}, flag...), mode...)
			if err := run(args, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+flag[0]) {
				t.Errorf("run(%v) = %v, want undefined-flag error", args, err)
			}
		}
	}
}

// -plan-mode governs the REPL: \explain there describes an auto plan.
func TestReplHonorsPlanMode(t *testing.T) {
	dir, sites := startCluster(t)
	in := filepath.Join(t.TempDir(), "stdin")
	if err := os.WriteFile(in, []byte("\\explain\n"+testQuery+";\n\\q\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(in)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdin := os.Stdin
	os.Stdin = f
	defer func() { os.Stdin = stdin }()
	var out bytes.Buffer
	if err := run([]string{"-sites", sites, "-data", dir, "-repl", "-plan-mode", "auto"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "mode auto") {
		t.Errorf("REPL explain did not plan under -plan-mode auto:\n%s", out.String())
	}
}

// -plan-mode governs -serve: under "none" a served statement applies no rule.
func TestServeHonorsPlanMode(t *testing.T) {
	dir, sites := startCluster(t)
	addr, done := startServe(t, "-sites", sites, "-data", dir, "-plan-mode", "none")
	c, err := skalla.DialQueryServer(addr)
	if err != nil {
		t.Fatal(err)
	}
	_, info, err := c.Query(context.Background(), "SELECT SourceAS, COUNT(*) AS flows FROM Flow GROUP BY SourceAS")
	c.Close()
	if err != nil {
		t.Fatal(err)
	}
	var prof *skalla.QueryProfile
	for _, p := range skalla.LastProfiles(0) {
		if p.QueryID == info.QueryID {
			prof = p
		}
	}
	if prof == nil || prof.Plan.Mode != "none" || len(prof.Plan.Rules) != 0 {
		t.Errorf("served plan under -plan-mode none: %+v", prof)
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve returned %v", err)
	}
}

func TestCoordinatorSQLWithOrderLimit(t *testing.T) {
	dir, sites := startCluster(t)
	var out bytes.Buffer
	err := run([]string{
		"-sites", sites, "-data", dir,
		"-sql", "SELECT SourceAS, COUNT(*) AS flows FROM Flow GROUP BY SourceAS ORDER BY flows DESC LIMIT 3",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "3 group(s)") {
		t.Errorf("LIMIT 3 not applied:\n%s", s)
	}
	// Descending: first data line has the max count.
	lines := strings.Split(s, "\n")
	var counts []int
	for _, ln := range lines {
		var as, c int
		if n, _ := fmt.Sscanf(ln, "%d %d", &as, &c); n == 2 {
			counts = append(counts, c)
		}
	}
	if len(counts) != 3 || counts[0] < counts[1] || counts[1] < counts[2] {
		t.Errorf("not descending: %v\n%s", counts, s)
	}
}

func TestCoordinatorStatsJSON(t *testing.T) {
	dir, sites := startCluster(t)
	path := filepath.Join(t.TempDir(), "stats.json")
	var out bytes.Buffer
	err := run([]string{
		"-sites", sites, "-data", dir, "-q", testQuery, "-plan-mode", "none", "-stats-json", path,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	rounds, ok := m["Rounds"].([]any)
	if !ok || len(rounds) != 3 {
		t.Errorf("stats JSON rounds = %v", m["Rounds"])
	}
}

// The -stats-json write is atomic: a failing run never truncates an existing
// stats file, and a successful run replaces it whole (no temp files left).
func TestCoordinatorStatsJSONAtomic(t *testing.T) {
	dir, sites := startCluster(t)
	tmp := t.TempDir()
	path := filepath.Join(tmp, "stats.json")
	if err := os.WriteFile(path, []byte("old-content"), 0o644); err != nil {
		t.Fatal(err)
	}

	// A failing query must leave the previous stats file untouched.
	var out bytes.Buffer
	if err := run([]string{"-sites", sites, "-q", "bogus", "-stats-json", path}, &out); err == nil {
		t.Fatal("bogus query succeeded")
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "old-content" {
		t.Fatalf("failed run clobbered stats file: %q, %v", data, err)
	}

	// A successful run replaces it with valid JSON and cleans up its temp.
	if err := run([]string{"-sites", sites, "-data", dir, "-q", testQuery, "-stats-json", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("stats file is not JSON after rewrite: %v", err)
	}
	entries, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "stats.json" {
			t.Errorf("leftover file %q next to stats.json", e.Name())
		}
	}

	// A stats path in a missing directory fails the run cleanly.
	bad := filepath.Join(tmp, "nope", "stats.json")
	if err := run([]string{"-sites", sites, "-data", dir, "-q", testQuery, "-stats-json", bad}, &out); err == nil {
		t.Error("missing stats directory: expected error")
	}
}

func TestCoordinatorTrace(t *testing.T) {
	dir, sites := startCluster(t)
	var out bytes.Buffer
	err := run([]string{
		"-sites", sites, "-data", dir, "-q", testQuery, "-plan-mode", "none", "-trace",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, frag := range []string{"round base: start", "round MD2: done", "site 1"} {
		if !strings.Contains(s, frag) {
			t.Errorf("trace missing %q:\n%s", frag, s)
		}
	}
}

// -plan-mode drives the Egil v2 selection path: auto compiles through the
// cost model, -explain prints the rule trace, and the -stats-json export
// gains the plan section with estimated-vs-actual bytes per round.
func TestCoordinatorPlanMode(t *testing.T) {
	dir, sites := startCluster(t)
	var out bytes.Buffer
	err := run([]string{
		"-sites", sites, "-data", dir, "-q", testQuery, "-plan-mode", "auto", "-explain",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, frag := range []string{"mode auto", "rule ", "estimated cost:"} {
		if !strings.Contains(s, frag) {
			t.Errorf("explain output missing %q:\n%s", frag, s)
		}
	}

	path := filepath.Join(t.TempDir(), "stats.json")
	out.Reset()
	err = run([]string{
		"-sites", sites, "-data", dir, "-q", testQuery,
		"-plan-mode", "rules=local-prefix", "-stats-json", path,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var export struct {
		Plan struct {
			Fingerprint string   `json:"fingerprint"`
			Mode        string   `json:"mode"`
			Rules       []string `json:"rules"`
			Rounds      []struct {
				Name            string `json:"Name"`
				EstBytesUp      int64  `json:"EstBytesUp"`
				ActualBytesUp   int64  `json:"ActualBytesUp"`
				ActualBytesDown int64  `json:"ActualBytesDown"`
			} `json:"rounds"`
		} `json:"plan"`
	}
	if err := json.Unmarshal(data, &export); err != nil {
		t.Fatal(err)
	}
	p := export.Plan
	if p.Fingerprint == "" || len(p.Rules) != 1 || p.Rules[0] != "local-prefix" {
		t.Errorf("plan section = %+v", p)
	}
	if len(p.Rounds) != 1 || p.Rounds[0].EstBytesUp <= 0 || p.Rounds[0].ActualBytesUp <= 0 {
		t.Errorf("round comparison = %+v", p.Rounds)
	}

	// Bad selections fail before dialing any site.
	if err := run([]string{"-sites", sites, "-q", testQuery, "-plan-mode", "frob"}, &out); err == nil {
		t.Error("bad -plan-mode: expected error")
	}
}
