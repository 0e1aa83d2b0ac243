package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strconv"
	"strings"
	"testing"
)

// tiny keeps the experiment sweeps fast enough for unit testing.
func tiny(extra ...string) []string {
	args := []string{
		"-sites", "3", "-rows", "900", "-customers", "300",
		"-cities-per-nation", "4", "-clerks", "30", "-net", "none",
	}
	return append(args, extra...)
}

func TestBenchFig2(t *testing.T) {
	var out bytes.Buffer
	if err := run(tiny("-fig", "2"), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, frag := range []string{"Fig. 2", "no-reduction", "site-reduction", "coord-reduction", "both-reductions"} {
		if !strings.Contains(s, frag) {
			t.Errorf("missing %q in:\n%s", frag, s)
		}
	}
}

func TestBenchFig3And4(t *testing.T) {
	var out bytes.Buffer
	if err := run(tiny("-fig", "3"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "coalesced") {
		t.Errorf("fig 3 output:\n%s", out.String())
	}
	out.Reset()
	if err := run(tiny("-fig", "4"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "sync-reduction") {
		t.Errorf("fig 4 output:\n%s", out.String())
	}
}

func TestBenchFig5(t *testing.T) {
	var out bytes.Buffer
	if err := run(tiny("-fig", "5", "-scale", "2"), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "optimized") || !strings.Contains(s, "unoptimized") {
		t.Errorf("fig 5 output:\n%s", s)
	}
	out.Reset()
	if err := run(tiny("-fig", "5", "-scale", "2", "-constant-groups"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "constant groups") {
		t.Errorf("constant-groups title missing:\n%s", out.String())
	}
}

func TestBenchFormula(t *testing.T) {
	var out bytes.Buffer
	if err := run(tiny("-fig", "formula"), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "(2c+2n+1)/(4n+1)") {
		t.Errorf("formula output:\n%s", s)
	}
	// Every printed data row must be within the paper's 5% tolerance.
	rows := 0
	for _, line := range strings.Split(s, "\n") {
		fields := strings.Fields(line)
		if len(fields) != 5 || !strings.HasSuffix(fields[4], "%") || fields[4] == "err%" {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(fields[4], "%"), 64)
		if err != nil {
			t.Fatalf("unparseable error column in %q", line)
		}
		if pct > 5.0 {
			t.Errorf("formula error out of tolerance: %s", line)
		}
		rows++
	}
	if rows < 2 {
		t.Errorf("expected at least 2 formula rows, got %d:\n%s", rows, s)
	}
}

func TestBenchErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(tiny("-fig", "99"), &out); err == nil {
		t.Error("unknown figure must error")
	}
	if err := run([]string{"-rows", "0", "-fig", "2"}, &out); err == nil {
		t.Error("invalid config must error")
	}
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Error("flag error must propagate")
	}
	// -workers is gone: a script still passing it fails loudly.
	if err := run(tiny("-fig", "2", "-workers", "2"), &out); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -workers") {
		t.Errorf("-workers: %v, want undefined-flag error", err)
	}
}

func TestBenchJSONExport(t *testing.T) {
	path := t.TempDir() + "/rows.json"
	var out bytes.Buffer
	if err := run(tiny("-fig", "4", "-json", path), &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string][]map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m["fig4"]) == 0 {
		t.Errorf("fig4 rows missing: %v", m)
	}
	if _, ok := m["fig4"][0]["Series"]; !ok {
		t.Error("row fields missing")
	}
}

// TestFigAllBytesRepeat: what a run ships is a pure function of its queries,
// so two runs of -fig all export the same value in every byte field.
func TestFigAllBytesRepeat(t *testing.T) {
	var runs [2]map[string]any
	for i := range runs {
		path := t.TempDir() + "/all.json"
		if err := run(tiny("-fig", "all", "-json", path), io.Discard); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc any
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		runs[i] = map[string]any{}
		byteFields(doc, "", runs[i])
	}
	if len(runs[0]) == 0 {
		t.Fatal("the export has no byte fields")
	}
	for k, v := range runs[0] {
		if runs[1][k] != v {
			t.Errorf("%s: %v, then %v", k, v, runs[1][k])
		}
	}
}

// byteFields collects, by path, the leaves of v whose field name mentions
// bytes.
func byteFields(v any, path string, out map[string]any) {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			byteFields(e, path+"/"+k, out)
		}
	case []any:
		for i, e := range x {
			byteFields(e, path+"/"+strconv.Itoa(i), out)
		}
	default:
		if strings.Contains(strings.ToLower(path[strings.LastIndex(path, "/")+1:]), "bytes") {
			out[path] = x
		}
	}
}
