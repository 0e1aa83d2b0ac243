package flow

import (
	"strings"
	"testing"

	"skalla/internal/relation"
)

func smallConfig() Config {
	return Config{Rows: 1500, Routers: 3, SourceAS: 30, DestAS: 10, Seed: 5}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []Config{
		{Rows: 0, Routers: 1, SourceAS: 1, DestAS: 1},
		{Rows: 1, Routers: 0, SourceAS: 1, DestAS: 1},
		{Rows: 1, Routers: 1, SourceAS: 0, DestAS: 1},
		{Rows: 1, Routers: 1, SourceAS: 1, DestAS: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := Generate(bad[0]); err == nil {
		t.Error("Generate with invalid config must error")
	}
}

func TestGenerateShape(t *testing.T) {
	d, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range d.Parts {
		total += p.Len()
	}
	if total != 1500 {
		t.Errorf("rows = %d", total)
	}
	g := d.Global()
	if g.Len() != 1500 || !g.Schema.Equal(Schema()) {
		t.Errorf("global shape wrong")
	}
}

func TestDeterminism(t *testing.T) {
	d1, _ := Generate(smallConfig())
	d2, _ := Generate(smallConfig())
	if !d1.Global().EqualMultiset(d2.Global()) {
		t.Error("same seed must generate identical traces")
	}
}

// Each partition must hold exactly the flows of its router, and SourceAS →
// RouterId must hold (the Example 2/5 assumption).
func TestPartitioningInvariants(t *testing.T) {
	d, _ := Generate(smallConfig())
	dist := d.Distribution()
	if err := dist.Validate(); err != nil {
		t.Fatalf("distribution invalid: %v", err)
	}
	for site, p := range d.Parts {
		if err := dist.CheckData(site, p); err != nil {
			t.Errorf("site %d: %v", site, err)
		}
	}
	pa := dist.PartitionAttrs()
	if _, ok := pa["RouterId"]; !ok {
		t.Error("RouterId must be a partition attribute")
	}
	if _, ok := pa["SourceAS"]; !ok {
		t.Error("SourceAS must be a partition attribute")
	}
	if _, ok := pa["DestAS"]; ok {
		t.Error("DestAS must not be a partition attribute")
	}
	if d.Catalog().Distribution(RelationName) == nil {
		t.Error("catalog must expose Flow")
	}
}

func TestFlowValueRanges(t *testing.T) {
	d, _ := Generate(smallConfig())
	g := d.Global()
	s := g.Schema
	st, et := s.MustIndex("StartTime"), s.MustIndex("EndTime")
	np, nb := s.MustIndex("NumPackets"), s.MustIndex("NumBytes")
	ip := s.MustIndex("SourceIP")
	for _, row := range g.Rows()[:200] {
		if row[et].Int < row[st].Int {
			t.Fatal("EndTime before StartTime")
		}
		if row[np].Int < 1 || row[nb].Int < row[np].Int*40 {
			t.Fatalf("packet/byte counts implausible: %v / %v", row[np], row[nb])
		}
		if strings.Count(row[ip].Str, ".") != 3 {
			t.Fatalf("malformed IP %q", row[ip].Str)
		}
	}
}

func TestModFilter(t *testing.T) {
	f := ModFilter{Mod: 4, Rem: 1}
	if !f.Contains(relation.NewInt(5)) || f.Contains(relation.NewInt(4)) {
		t.Error("mod membership")
	}
	if !f.Contains(relation.NewInt(-3)) { // -3 mod 4 = 1
		t.Error("negative values must use positive residue")
	}
	if f.Contains(relation.NewString("5")) {
		t.Error("non-int excluded")
	}
	if (ModFilter{Mod: 0}).Contains(relation.NewInt(1)) {
		t.Error("zero modulus must match nothing")
	}
	if _, _, ok := f.Bounds(); ok {
		t.Error("no bounds")
	}
	if !f.DisjointWith(ModFilter{Mod: 4, Rem: 2}) {
		t.Error("different residues must be disjoint")
	}
	if f.DisjointWith(ModFilter{Mod: 5, Rem: 2}) {
		t.Error("different moduli cannot be proven disjoint")
	}
	if f.String() != "x % 4 == 1" {
		t.Errorf("String = %q", f.String())
	}
}
