package tpc

import (
	"testing"

	"skalla/internal/relation"
)

func smallConfig() Config {
	return Config{Rows: 2000, Customers: 500, Nations: 25, CitiesPerNation: 8, Clerks: 60, Seed: 7}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []Config{
		{Rows: 0, Customers: 1, Nations: 1, CitiesPerNation: 1, Clerks: 1},
		{Rows: 1, Customers: 0, Nations: 1, CitiesPerNation: 1, Clerks: 1},
		{Rows: 1, Customers: 1, Nations: 0, CitiesPerNation: 1, Clerks: 1},
		{Rows: 1, Customers: 1, Nations: 1, CitiesPerNation: 0, Clerks: 1},
		{Rows: 1, Customers: 1, Nations: 1, CitiesPerNation: 1, Clerks: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestGenerateShape(t *testing.T) {
	d, err := Generate(smallConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range d.Parts {
		total += p.Len()
	}
	if total != 2000 {
		t.Errorf("total rows = %d", total)
	}
	g := d.Global()
	if g.Len() != 2000 || !g.Schema.Equal(Schema()) {
		t.Errorf("global: %d rows, schema %s", g.Len(), g.Schema)
	}
	// Balanced-ish partitions (25 nations round-robin over 4 sites: 7,6,6,6).
	for i, p := range d.Parts {
		if p.Len() == 0 {
			t.Errorf("site %d empty", i)
		}
	}
	if _, err := Generate(smallConfig(), 0); err == nil {
		t.Error("zero sites must error")
	}
	c := smallConfig()
	c.Rows = 0
	if _, err := Generate(c, 2); err == nil {
		t.Error("invalid config must error")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	d1, _ := Generate(smallConfig(), 4)
	d2, _ := Generate(smallConfig(), 4)
	if !d1.Global().EqualMultiset(d2.Global()) {
		t.Error("same seed must generate identical data")
	}
	c := smallConfig()
	c.Seed = 8
	d3, _ := Generate(c, 4)
	if d1.Global().EqualMultiset(d3.Global()) {
		t.Error("different seeds should differ")
	}
}

// The functional dependencies the distribution knowledge declares must hold
// in the data: CustName→CustKey→NationKey and CityKey→NationKey.
func TestFunctionalDependencies(t *testing.T) {
	d, _ := Generate(smallConfig(), 4)
	g := d.Global()
	s := g.Schema
	ck, cn, nk, city := s.MustIndex("CustKey"), s.MustIndex("CustName"), s.MustIndex("NationKey"), s.MustIndex("CityKey")
	custNation := map[int64]int64{}
	cityNation := map[int64]int64{}
	for _, row := range g.Rows() {
		if CustKeyOfName(row[cn].Str) != row[ck].Int {
			t.Fatalf("CustName %q does not encode CustKey %d", row[cn].Str, row[ck].Int)
		}
		if prev, ok := custNation[row[ck].Int]; ok && prev != row[nk].Int {
			t.Fatalf("CustKey %d maps to nations %d and %d", row[ck].Int, prev, row[nk].Int)
		}
		custNation[row[ck].Int] = row[nk].Int
		if prev, ok := cityNation[row[city].Int]; ok && prev != row[nk].Int {
			t.Fatalf("CityKey %d maps to nations %d and %d", row[city].Int, prev, row[nk].Int)
		}
		cityNation[row[city].Int] = row[nk].Int
	}
}

// Every partition's rows must satisfy the declared per-site filters — the
// precondition for Thm. 4 optimizations to be sound.
func TestPartitionsMatchDistribution(t *testing.T) {
	d, _ := Generate(smallConfig(), 4)
	dist, err := d.Distribution(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := dist.Validate(); err != nil {
		t.Fatalf("distribution invalid: %v", err)
	}
	for site, part := range d.Parts {
		if err := dist.CheckData(site, part); err != nil {
			t.Errorf("site %d violates filters: %v", site, err)
		}
	}
	// All four aligned attributes are partition attributes.
	pa := dist.PartitionAttrs()
	for _, want := range []string{"NationKey", "CustKey", "CustName", "CityKey"} {
		if _, ok := pa[want]; !ok {
			t.Errorf("missing partition attribute %q", want)
		}
	}
	if _, ok := pa["Clerk"]; ok {
		t.Error("Clerk must not be a partition attribute")
	}
}

func TestSubCluster(t *testing.T) {
	d, _ := Generate(smallConfig(), 8)
	sub := d.SubGlobal(3)
	want := d.Parts[0].Len() + d.Parts[1].Len() + d.Parts[2].Len()
	if sub.Len() != want {
		t.Errorf("SubGlobal(3) = %d rows, want %d", sub.Len(), want)
	}
	dist, err := d.Distribution(3)
	if err != nil || dist.NumSites != 3 {
		t.Errorf("Distribution(3): %v %v", dist, err)
	}
	if _, err := d.Distribution(0); err == nil {
		t.Error("Distribution(0) must error")
	}
	if _, err := d.Distribution(9); err == nil {
		t.Error("Distribution(9) must error")
	}
	if _, err := d.Catalog(3); err != nil {
		t.Errorf("Catalog: %v", err)
	}
	if _, err := d.Catalog(99); err == nil {
		t.Error("Catalog out of range must error")
	}
}

func TestCustNameRoundTrip(t *testing.T) {
	if got := CustNameOf(123); got != "Customer#000000123" {
		t.Errorf("CustNameOf = %q", got)
	}
	if got := CustKeyOfName("Customer#000000123"); got != 123 {
		t.Errorf("CustKeyOfName = %d", got)
	}
	if CustKeyOfName("bogus") != -1 || CustKeyOfName("Customer#xx") != -1 {
		t.Error("malformed names must map to -1")
	}
}

func TestDerivedFilter(t *testing.T) {
	f := DerivedFilter{Site: 1, NumSites: 4, Nations: 25, From: FromCustKey}
	// CustKey 26 → nation 1 → site 1.
	if !f.Contains(relation.NewInt(26)) {
		t.Error("CustKey 26 must be at site 1")
	}
	if f.Contains(relation.NewInt(25)) { // nation 0 → site 0
		t.Error("CustKey 25 must not be at site 1")
	}
	if f.Contains(relation.NewString("26")) {
		t.Error("wrong kind must be excluded")
	}
	nameF := DerivedFilter{Site: 1, NumSites: 4, Nations: 25, From: FromCustName}
	if !nameF.Contains(relation.NewString(CustNameOf(26))) {
		t.Error("name of CustKey 26 must be at site 1")
	}
	if nameF.Contains(relation.NewString("junk")) {
		t.Error("malformed name must be excluded")
	}
	cityF := DerivedFilter{Site: 1, NumSites: 4, Nations: 25, CitiesPerNation: 8, From: FromCityKey}
	if !cityF.Contains(relation.NewInt(8)) { // city 8 → nation 1
		t.Error("city 8 must be at site 1")
	}
	if cityF.Contains(relation.NewInt(0)) {
		t.Error("city 0 must not be at site 1")
	}
	if cityF.Contains(relation.NewInt(-1)) {
		t.Error("negative city must be excluded")
	}
	if _, _, ok := f.Bounds(); ok {
		t.Error("derived filters have no bounds")
	}
	// Disjointness proofs.
	other := f
	other.Site = 2
	if !f.DisjointWith(other) {
		t.Error("same mapping, different site must be disjoint")
	}
	if f.DisjointWith(f) {
		t.Error("same site is not disjoint with itself")
	}
	if f.DisjointWith(nameF) {
		t.Error("different mappings cannot be proven disjoint")
	}
	if f.String() == "" || FilterSource(99) == FromCustKey {
		t.Error("String/FilterSource sanity")
	}
}

func TestCardinalities(t *testing.T) {
	c := smallConfig()
	d, _ := Generate(c, 4)
	g := d.Global()
	s := g.Schema
	distinct := func(col string) int {
		j := s.MustIndex(col)
		seen := make(map[relation.Value]bool)
		for i := 0; i < g.Len(); i++ {
			seen[g.Value(i, j)] = true
		}
		return len(seen)
	}
	if n := distinct("NationKey"); n != c.Nations {
		t.Errorf("nations = %d, want %d", n, c.Nations)
	}
	if n := distinct("CustName"); n > c.Customers || n < c.Customers/2 {
		t.Errorf("customers = %d, config %d", n, c.Customers)
	}
	if n := distinct("Clerk"); n > c.Clerks || n < c.Clerks/2 {
		t.Errorf("clerks = %d, config %d", n, c.Clerks)
	}
	maxCities := c.Nations * c.CitiesPerNation
	if n := distinct("CityKey"); n > maxCities {
		t.Errorf("cities = %d, max %d", n, maxCities)
	}
	// Measures are sane.
	qi, pi := s.MustIndex("Quantity"), s.MustIndex("ExtendedPrice")
	for _, row := range g.Rows()[:100] {
		if row[qi].Int < 1 || row[qi].Int > 50 {
			t.Fatalf("Quantity out of range: %v", row[qi])
		}
		if row[pi].Float <= 0 {
			t.Fatalf("ExtendedPrice non-positive: %v", row[pi])
		}
	}
}
