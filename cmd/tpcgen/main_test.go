package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"skalla/internal/manifest"
)

func TestGenerateTPCDataset(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-out", dir, "-kind", "tpc", "-sites", "3",
		"-rows", "600", "-customers", "100", "-nations", "25",
		"-cities-per-nation", "4", "-clerks", "10", "-csv",
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := manifest.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != manifest.KindTPC || m.NumSites != 3 || m.TPC.Rows != 600 {
		t.Errorf("manifest = %+v", m)
	}
	total := 0
	for site := 0; site < 3; site++ {
		rel, err := manifest.ReadPartition(manifest.SitePath(dir, site, "TPCR"))
		if err != nil {
			t.Fatalf("site %d: %v", site, err)
		}
		total += rel.Len()
		// CSV was requested too.
		csvPath := manifest.SitePath(dir, site, "TPCR")
		csvPath = strings.TrimSuffix(csvPath, ".frame") + ".csv"
		if _, err := os.Stat(csvPath); err != nil {
			t.Errorf("missing CSV: %v", err)
		}
	}
	if total != 600 {
		t.Errorf("total rows = %d", total)
	}
	// The manifest rebuilds a catalog.
	if _, err := m.Catalog(3); err != nil {
		t.Errorf("catalog: %v", err)
	}
}

func TestGenerateFlowDataset(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-out", dir, "-kind", "flow", "-sites", "2",
		"-rows", "300", "-source-as", "10", "-dest-as", "4",
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := manifest.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != manifest.KindFlow || m.Flow.Routers != 2 {
		t.Errorf("manifest = %+v", m)
	}
	if _, err := manifest.ReadPartition(manifest.SitePath(dir, 1, "Flow")); err != nil {
		t.Error(err)
	}
}

func TestGenerateErrors(t *testing.T) {
	cases := [][]string{
		{},                                  // missing -out
		{"-out", t.TempDir(), "-kind", "x"}, // unknown kind
		{"-out", t.TempDir(), "-rows", "0"}, // invalid config
		{"-bogus-flag"},                     // flag error
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v): expected error", args)
		}
	}
	// Unwritable output directory.
	if err := run([]string{"-out", string(filepath.Separator) + "proc/nope/zzz", "-rows", "10", "-customers", "5", "-clerks", "2", "-cities-per-nation", "2"}); err == nil {
		t.Error("unwritable output must error")
	}
}
