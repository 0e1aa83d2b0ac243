package manifest

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"skalla/internal/flow"
	"skalla/internal/relation"
	"skalla/internal/tpc"
)

func tpcManifest() *Manifest {
	c := tpc.Config{Rows: 100, Customers: 50, Nations: 25, CitiesPerNation: 4, Clerks: 10, Seed: 1}
	return &Manifest{Kind: KindTPC, NumSites: 4, TPC: &c}
}

func flowManifest() *Manifest {
	c := flow.Config{Rows: 100, Routers: 3, SourceAS: 10, DestAS: 5, Seed: 1}
	return &Manifest{Kind: KindFlow, NumSites: 3, Flow: &c}
}

func TestValidate(t *testing.T) {
	if err := tpcManifest().Validate(); err != nil {
		t.Errorf("tpc manifest: %v", err)
	}
	if err := flowManifest().Validate(); err != nil {
		t.Errorf("flow manifest: %v", err)
	}
	bad := []*Manifest{
		{Kind: "weird", NumSites: 1},
		{Kind: KindTPC, NumSites: 1},                             // missing config
		{Kind: KindFlow, NumSites: 1},                            // missing config
		{Kind: KindTPC, NumSites: 0, TPC: tpcManifest().TPC},     // bad sites
		{Kind: KindFlow, NumSites: 2, Flow: flowManifest().Flow}, // router mismatch
		{Kind: KindTPC, NumSites: 2, TPC: &tpc.Config{}},         // invalid config
		{Kind: KindFlow, NumSites: 0, Flow: &flow.Config{}},      // invalid config
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad manifest %d accepted", i)
		}
	}
}

func TestRelationName(t *testing.T) {
	if n, err := tpcManifest().RelationName(); err != nil || n != tpc.RelationName {
		t.Errorf("tpc relation: %q %v", n, err)
	}
	if n, err := flowManifest().RelationName(); err != nil || n != flow.RelationName {
		t.Errorf("flow relation: %q %v", n, err)
	}
	if _, err := (&Manifest{Kind: "zz"}).RelationName(); err == nil {
		t.Error("unknown kind must error")
	}
}

func TestCatalog(t *testing.T) {
	cat, err := tpcManifest().Catalog(2)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Distribution(tpc.RelationName) == nil {
		t.Error("tpc catalog missing distribution")
	}
	if _, err := tpcManifest().Catalog(9); err == nil {
		t.Error("out-of-range subcluster must error")
	}
	fcat, err := flowManifest().Catalog(3)
	if err != nil {
		t.Fatal(err)
	}
	if fcat.Distribution(flow.RelationName) == nil {
		t.Error("flow catalog missing distribution")
	}
	if _, err := flowManifest().Catalog(2); err == nil {
		t.Error("flow subclusters are unsupported and must error")
	}
	if _, err := (&Manifest{Kind: "zz", NumSites: 1}).Catalog(1); err == nil {
		t.Error("unknown kind must error")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := tpcManifest()
	if err := m.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != m.Kind || got.NumSites != m.NumSites || *got.TPC != *m.TPC {
		t.Errorf("round trip: %+v vs %+v", got, m)
	}
	// Invalid manifests are rejected on save and load.
	if err := (&Manifest{Kind: "zz"}).Save(dir); err == nil {
		t.Error("invalid manifest must not save")
	}
	if _, err := Load(t.TempDir()); err == nil {
		t.Error("missing manifest must error")
	}
}

func TestSitePath(t *testing.T) {
	got := SitePath("/data", 3, "TPCR")
	want := filepath.Join("/data", "site03", "TPCR.frame")
	if got != want {
		t.Errorf("SitePath = %q, want %q", got, want)
	}
}

// TestPartitionFileRoundTrip: a partition file is the relation's codec frame,
// and ReadPartition reads it back.
func TestPartitionFileRoundTrip(t *testing.T) {
	rel := relation.New(relation.MustSchema(relation.Column{Name: "k", Kind: relation.KindInt}, relation.Column{Name: "s", Kind: relation.KindString}))
	rel.MustAppend(relation.Tuple{relation.NewInt(1), relation.NewString("a")})
	rel.MustAppend(relation.Tuple{relation.Null, relation.NewString("b")})
	path := SitePath(t.TempDir(), 0, "R")
	frame, err := relation.Marshal(rel)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, frame, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPartition(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualMultiset(rel) {
		t.Errorf("partition file round trip changed the relation:\n%s\nvs\n%s", got, rel)
	}
	if _, err := ReadPartition(filepath.Join(t.TempDir(), "missing.frame")); err == nil {
		t.Error("missing file must error")
	}
}

// TestLegacyGobPartitionRejected: a dataset from before partition files were
// codec frames fails with an error naming the gob file and saying to rerun
// tpcgen, whether the gob file sits under its old name or the new one.
func TestLegacyGobPartitionRejected(t *testing.T) {
	dir := t.TempDir()
	path := SitePath(dir, 0, "R")
	legacy := strings.TrimSuffix(path, ".frame") + ".gob"
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(legacy, []byte("\x1f\xff\x81gob bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ read, named string }{{path, legacy}, {legacy, legacy}} {
		_, err := ReadPartition(tc.read)
		if err == nil || !strings.Contains(err.Error(), tc.named) || !strings.Contains(err.Error(), "rerun tpcgen") {
			t.Errorf("ReadPartition(%s) = %v, want an error naming %s and saying to rerun tpcgen", tc.read, err, tc.named)
		}
	}
}

// olderFrames are frames older builds wrote, each with the rows they hold:
// an INT column k holding 1 to 16 and a FLOAT column p holding 100 to 103.75
// in steps of 0.25, both uniform, one varint or eight bytes a value. This
// codec packs both, and so refuses them uniform.
func olderFrames() map[string]struct {
	frame []byte
	rows  *relation.Relation
} {
	frames := map[string]struct {
		frame []byte
		rows  *relation.Relation
	}{}
	for _, kind := range []relation.Kind{relation.KindInt, relation.KindFloat} {
		schema := relation.MustSchema(relation.Column{Name: "k", Kind: kind})
		rows := relation.New(schema)
		body := relation.AppendSchema([]byte{0x01}, schema)
		body = append(binary.AppendUvarint(body, 16), 0, 0, 0) // rows, a bitmap with no NULL, uniform
		for k := int64(1); k <= 16; k++ {
			if kind == relation.KindInt {
				body = binary.AppendVarint(body, k)
				rows.MustAppend(relation.Tuple{relation.NewInt(k)})
			} else {
				p := 100 + float64(k-1)/4
				body = binary.LittleEndian.AppendUint64(body, math.Float64bits(p))
				rows.MustAppend(relation.Tuple{relation.NewFloat(p)})
			}
		}
		frames[kind.String()] = struct {
			frame []byte
			rows  *relation.Relation
		}{append(binary.AppendUvarint(nil, uint64(len(body))), body...), rows}
	}
	return frames
}

// TestOlderPartitionFileRejected: a partition file an older tpcgen wrote with
// a column this codec packs, INT or FLOAT, fails with an error naming the
// file and saying to rerun tpcgen, while the same rows as this build writes
// them read back.
func TestOlderPartitionFileRejected(t *testing.T) {
	for name, older := range olderFrames() {
		t.Run(name, func(t *testing.T) {
			path := SitePath(t.TempDir(), 0, "R")
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, older.frame, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := ReadPartition(path)
			if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "rerun tpcgen") {
				t.Fatalf("ReadPartition of an older frame = %v, want an error naming %s and saying to rerun tpcgen", err, path)
			}
			frame, err := relation.Marshal(older.rows)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, frame, 0o644); err != nil {
				t.Fatal(err)
			}
			if got, err := ReadPartition(path); err != nil || !got.EqualMultiset(older.rows) {
				t.Errorf("the regenerated partition: %v", err)
			}
		})
	}
}
