package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"skalla/internal/flow"
	"skalla/internal/gmdj"
	"skalla/internal/manifest"
	"skalla/internal/relation"
	"skalla/internal/transport"
)

// writeFlowDataset generates a tiny flow dataset directory.
func writeFlowDataset(t *testing.T, sites int) string {
	t.Helper()
	dir := t.TempDir()
	cfg := flow.Config{Rows: 200, Routers: sites, SourceAS: 8, DestAS: 4, Seed: 1}
	d, err := flow.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, part := range d.Parts {
		path := manifest.SitePath(dir, i, flow.RelationName)
		if err := mkdirAndSave(path, part); err != nil {
			t.Fatal(err)
		}
	}
	m := manifest.Manifest{Kind: manifest.KindFlow, NumSites: sites, Flow: &cfg}
	if err := m.Save(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestStartServesLoadedData(t *testing.T) {
	dir := writeFlowDataset(t, 2)
	srv, err := start([]string{"-addr", "127.0.0.1:0", "-site", "1", "-data", dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := transport.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if cli.ID() != 1 {
		t.Errorf("site ID = %d", cli.ID())
	}
	b, _, err := cli.EvalBase(context.Background(), gmdj.BaseQuery{Detail: "Flow", Cols: []string{"SourceAS"}})
	if err != nil || b.Len() == 0 {
		t.Errorf("loaded data not queryable: %v %v", b, err)
	}
}

func TestStartEmptySite(t *testing.T) {
	srv, err := start([]string{"-addr", "127.0.0.1:0", "-site", "0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := transport.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.DetailSchema(context.Background(), "Flow"); err == nil {
		t.Error("empty site must have no relations")
	}
}

func TestStartErrors(t *testing.T) {
	dir := writeFlowDataset(t, 2)
	cases := []struct {
		args []string
		want string // in the error; "" takes any
	}{
		{[]string{"-data", "/nonexistent/dir", "-addr", "127.0.0.1:0"}, ""},
		{[]string{"-data", dir, "-site", "9", "-addr", "127.0.0.1:0"}, ""},
		{[]string{"-data", dir, "-site", "-1", "-addr", "127.0.0.1:0"}, ""},
		{[]string{"-addr", "256.0.0.1:99999"}, ""},
		{[]string{"-bogus"}, ""},
		// -workers is gone: a script still passing it fails loudly.
		{[]string{"-workers", "2", "-addr", "127.0.0.1:0"}, "flag provided but not defined: -workers"},
	}
	for _, c := range cases {
		srv, err := start(c.args)
		if err == nil {
			srv.Close()
			t.Errorf("start(%v): expected error", c.args)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("start(%v) = %v, want an error containing %q", c.args, err, c.want)
		}
	}
}

func mkdirAndSave(path string, rel *relation.Relation) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	frame, err := relation.Marshal(rel)
	if err != nil {
		return err
	}
	return os.WriteFile(path, frame, 0o644)
}

func TestStartDiskBacked(t *testing.T) {
	dir := writeFlowDataset(t, 2)
	// First start converts to segments; second start reopens them.
	for pass := 0; pass < 2; pass++ {
		srv, err := start([]string{"-addr", "127.0.0.1:0", "-site", "0", "-data", dir, "-disk"})
		if err != nil {
			t.Fatal(err)
		}
		cli, err := transport.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := cli.EvalBase(context.Background(), gmdj.BaseQuery{Detail: "Flow", Cols: []string{"SourceAS"}})
		if err != nil || b.Len() == 0 {
			t.Errorf("pass %d: disk-backed site not queryable: %v %v", pass, b, err)
		}
		cli.Close()
		srv.Close()
	}
	// The store directory exists beside the partition file.
	if _, err := os.Stat(filepath.Join(dir, "site00", "Flow.store", "table.json")); err != nil {
		t.Errorf("store dir missing: %v", err)
	}
}
