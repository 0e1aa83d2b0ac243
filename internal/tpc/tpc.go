// Package tpc generates the TPCR test database of the paper's Sect. 5: a
// denormalized fact relation in the spirit of TPC(R)'s dbgen output
// (lineitem joined with orders and customer), partitioned on NationKey
// across the sites. The paper used a 900 MB / 6 M tuple instance on eight
// machines; this generator reproduces the *cardinality structure* that the
// experiments depend on at a configurable (laptop) scale:
//
//   - CustName: the high-cardinality grouping attribute (100 000 unique
//     values in the paper), partition-aligned through CustName → CustKey →
//     NationKey;
//   - CityKey: a low-cardinality (≈3 000) partition-aligned attribute
//     (CityKey → NationKey);
//   - Clerk: a low-cardinality (2 000–4 000) attribute deliberately NOT
//     aligned with the partitioning;
//   - NationKey: the partition attribute (25 nations, round-robin across
//     sites).
package tpc

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"skalla/internal/distrib"
	"skalla/internal/relation"
)

// RelationName is the detail relation name used in queries.
const RelationName = "TPCR"

// Config controls the generated instance.
type Config struct {
	Rows            int   // total fact tuples across all sites
	Customers       int   // unique customers / CustName values (paper: 100000)
	Nations         int   // partition attribute cardinality (paper: 25)
	CitiesPerNation int   // CityKey cardinality = Nations * CitiesPerNation
	Clerks          int   // Clerk cardinality (paper: 2000-4000)
	Seed            int64 // deterministic generation
}

// DefaultConfig returns a laptop-scale instance preserving the paper's
// cardinality ratios (scaled by ~1/100: 60k rows, 1000 customers per 100k).
func DefaultConfig() Config {
	return Config{
		Rows:            60000,
		Customers:       100000,
		Nations:         25,
		CitiesPerNation: 120, // 25 * 120 = 3000 cities
		Clerks:          3000,
		Seed:            1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Rows <= 0:
		return fmt.Errorf("tpc: Rows = %d", c.Rows)
	case c.Customers <= 0:
		return fmt.Errorf("tpc: Customers = %d", c.Customers)
	case c.Nations <= 0:
		return fmt.Errorf("tpc: Nations = %d", c.Nations)
	case c.CitiesPerNation <= 0:
		return fmt.Errorf("tpc: CitiesPerNation = %d", c.CitiesPerNation)
	case c.Clerks <= 0:
		return fmt.Errorf("tpc: Clerks = %d", c.Clerks)
	}
	return nil
}

var (
	mktSegments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	shipModes   = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	priorities  = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
)

// Schema returns the denormalized TPCR schema.
func Schema() relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "OrderKey", Kind: relation.KindInt},
		relation.Column{Name: "LineNumber", Kind: relation.KindInt},
		relation.Column{Name: "CustKey", Kind: relation.KindInt},
		relation.Column{Name: "CustName", Kind: relation.KindString},
		relation.Column{Name: "NationKey", Kind: relation.KindInt},
		relation.Column{Name: "RegionKey", Kind: relation.KindInt},
		relation.Column{Name: "CityKey", Kind: relation.KindInt},
		relation.Column{Name: "Clerk", Kind: relation.KindString},
		relation.Column{Name: "MktSegment", Kind: relation.KindString},
		relation.Column{Name: "Quantity", Kind: relation.KindInt},
		relation.Column{Name: "ExtendedPrice", Kind: relation.KindFloat},
		relation.Column{Name: "Discount", Kind: relation.KindFloat},
		relation.Column{Name: "Tax", Kind: relation.KindFloat},
		relation.Column{Name: "ShipMode", Kind: relation.KindString},
		relation.Column{Name: "OrderPriority", Kind: relation.KindString},
	)
}

// CustNameOf renders a customer key as its unique name, matching dbgen's
// "Customer#%09d" pattern.
func CustNameOf(custKey int64) string {
	return fmt.Sprintf("Customer#%09d", custKey)
}

// CustKeyOfName parses a customer name back to its key (-1 on malformed
// input). The inverse exists because CustName functionally determines
// CustKey.
func CustKeyOfName(name string) int64 {
	const prefix = "Customer#"
	if !strings.HasPrefix(name, prefix) {
		return -1
	}
	k, err := strconv.ParseInt(name[len(prefix):], 10, 64)
	if err != nil {
		return -1
	}
	return k
}

// Dataset is a generated, partitioned TPCR instance.
type Dataset struct {
	Config   Config
	NumSites int
	Parts    []*relation.Relation // one partition per site
}

// Generate builds a deterministic TPCR instance partitioned on NationKey
// across numSites sites (nation n lives at site n % numSites).
func Generate(c Config, numSites int) (*Dataset, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if numSites <= 0 {
		return nil, fmt.Errorf("tpc: numSites = %d", numSites)
	}
	rng := rand.New(rand.NewSource(c.Seed))
	d := &Dataset{Config: c, NumSites: numSites, Parts: make([]*relation.Relation, numSites)}
	for i := range d.Parts {
		d.Parts[i] = relation.New(Schema())
	}
	var row relation.Tuple // appended by value, so one buffer serves every row
	for i := 0; i < c.Rows; i++ {
		custKey := rng.Int63n(int64(c.Customers))
		nation := custKey % int64(c.Nations)
		region := nation % 5
		// City derives from the customer within the nation, so CityKey →
		// NationKey holds (city / CitiesPerNation = nation).
		city := nation*int64(c.CitiesPerNation) + (custKey/int64(c.Nations))%int64(c.CitiesPerNation)
		clerk := fmt.Sprintf("Clerk#%06d", rng.Int63n(int64(c.Clerks)))
		qty := 1 + rng.Int63n(50)
		price := float64(qty) * (900 + 100*rng.Float64())
		row = append(row[:0],
			relation.NewInt(int64(i/4+1)), // OrderKey: ~4 lines per order
			relation.NewInt(int64(i%4+1)), // LineNumber
			relation.NewInt(custKey),
			relation.NewString(CustNameOf(custKey)),
			relation.NewInt(nation),
			relation.NewInt(region),
			relation.NewInt(city),
			relation.NewString(clerk),
			relation.NewString(mktSegments[rng.Intn(len(mktSegments))]),
			relation.NewInt(qty),
			relation.NewFloat(price),
			relation.NewFloat(float64(rng.Intn(11))/100), // 0.00-0.10
			relation.NewFloat(float64(rng.Intn(9))/100),  // 0.00-0.08
			relation.NewString(shipModes[rng.Intn(len(shipModes))]),
			relation.NewString(priorities[rng.Intn(len(priorities))]),
		)
		site := int(nation) % numSites
		d.Parts[site].MustAppend(row)
	}
	return d, nil
}

// Global returns the union of all partitions (the conceptual fact relation;
// used as the centralized oracle input).
func (d *Dataset) Global() *relation.Relation {
	return union(d.Parts)
}

// Distribution returns the distribution knowledge for the first n sites of
// the dataset (n ≤ NumSites): per-site filters for NationKey, CustKey,
// CustName and CityKey — all partition attributes — plus the functional
// dependencies tying them together. Clerk is intentionally unconstrained.
func (d *Dataset) Distribution(n int) (*distrib.Distribution, error) {
	return DistributionFor(d.Config, d.NumSites, n)
}

// DistributionFor builds the distribution knowledge for the first n of
// totalSites sites of an instance generated with config c, without needing
// the data itself (the ownership mapping is determined by the config).
func DistributionFor(c Config, totalSites, n int) (*distrib.Distribution, error) {
	if totalSites <= 0 {
		return nil, fmt.Errorf("tpc: totalSites = %d", totalSites)
	}
	if n <= 0 || n > totalSites {
		return nil, fmt.Errorf("tpc: distribution over %d of %d sites", n, totalSites)
	}
	nationFilters := make([]distrib.SiteFilter, n)
	custFilters := make([]distrib.SiteFilter, n)
	nameFilters := make([]distrib.SiteFilter, n)
	cityFilters := make([]distrib.SiteFilter, n)
	for site := 0; site < n; site++ {
		var nations []relation.Value
		for nat := 0; nat < c.Nations; nat++ {
			if nat%totalSites == site {
				nations = append(nations, relation.NewInt(int64(nat)))
			}
		}
		nationFilters[site] = distrib.NewValueSet(nations...)
		custFilters[site] = DerivedFilter{Site: site, NumSites: totalSites, Nations: c.Nations, From: FromCustKey}
		nameFilters[site] = DerivedFilter{Site: site, NumSites: totalSites, Nations: c.Nations, From: FromCustName}
		cityFilters[site] = DerivedFilter{Site: site, NumSites: totalSites, Nations: c.Nations, CitiesPerNation: c.CitiesPerNation, From: FromCityKey}
	}
	return &distrib.Distribution{
		Relation: RelationName,
		NumSites: n,
		Attrs: []distrib.AttrInfo{
			{Attr: "NationKey", Filters: nationFilters, Disjoint: true, Distinct: int64(c.Nations)},
			{Attr: "CustKey", Filters: custFilters, Disjoint: true, Distinct: int64(c.Customers)},
			{Attr: "CustName", Filters: nameFilters, Disjoint: true, Distinct: int64(c.Customers)},
			{Attr: "CityKey", Filters: cityFilters, Disjoint: true, Distinct: int64(c.Nations * c.CitiesPerNation)},
			{Attr: "Clerk", Distinct: int64(c.Clerks)},
		},
		FDs: []distrib.FD{
			{From: "CustKey", To: "NationKey"},
			{From: "CustName", To: "CustKey"},
			{From: "CityKey", To: "NationKey"},
		},
		// The experiments vary participating sites over fixed per-site data,
		// so the conceptual relation shrinks with n.
		TotalRows: int64(c.Rows) * int64(n) / int64(totalSites),
	}, nil
}

// Catalog returns the catalog for the first n sites.
func (d *Dataset) Catalog(n int) (*distrib.Catalog, error) {
	dist, err := d.Distribution(n)
	if err != nil {
		return nil, err
	}
	return distrib.NewCatalog(dist), nil
}

// SubGlobal returns the union of the first n partitions: the conceptual fact
// relation when only n sites participate (the speed-up experiments vary the
// participating sites over fixed per-site data).
func (d *Dataset) SubGlobal(n int) *relation.Relation {
	return union(d.Parts[:n])
}

// union is the multiset union of parts, a new relation.
func union(parts []*relation.Relation) *relation.Relation {
	g := relation.New(Schema())
	for _, p := range parts {
		if err := g.Union(p); err != nil {
			panic(err) // every partition has Schema()
		}
	}
	return g
}

// FilterSource identifies which attribute a DerivedFilter interprets.
type FilterSource uint8

const (
	// FromCustKey derives the owning site from a customer key.
	FromCustKey FilterSource = iota
	// FromCustName derives the owning site from a customer name.
	FromCustName
	// FromCityKey derives the owning site from a city key.
	FromCityKey
)

// DerivedFilter is a distrib.SiteFilter that decides membership by deriving
// the owning nation (and hence site) from an attribute functionally
// determining NationKey. It gives the planner exact per-site membership for
// the high-cardinality attributes without materializing 100 000-value sets.
type DerivedFilter struct {
	Site            int
	NumSites        int
	Nations         int
	CitiesPerNation int
	From            FilterSource
}

// Contains implements distrib.SiteFilter.
func (f DerivedFilter) Contains(v relation.Value) bool {
	var nation int64
	switch f.From {
	case FromCustKey:
		if v.Kind != relation.KindInt {
			return false
		}
		nation = ((v.Int % int64(f.Nations)) + int64(f.Nations)) % int64(f.Nations)
	case FromCustName:
		k := CustKeyOfName(v.Str)
		if v.Kind != relation.KindString || k < 0 {
			return false
		}
		nation = k % int64(f.Nations)
	case FromCityKey:
		if v.Kind != relation.KindInt || f.CitiesPerNation <= 0 || v.Int < 0 {
			return false
		}
		nation = v.Int / int64(f.CitiesPerNation)
	default:
		return false
	}
	return int(nation)%f.NumSites == f.Site
}

// Bounds implements distrib.SiteFilter: derived filters have no contiguous
// numeric range.
func (f DerivedFilter) Bounds() (float64, float64, bool) { return 0, 0, false }

// DisjointWith implements distrib.DisjointChecker: two derived filters over
// the same mapping but different sites never overlap.
func (f DerivedFilter) DisjointWith(other distrib.SiteFilter) bool {
	o, ok := other.(DerivedFilter)
	if !ok {
		return false
	}
	return o.From == f.From && o.NumSites == f.NumSites && o.Nations == f.Nations &&
		o.CitiesPerNation == f.CitiesPerNation && o.Site != f.Site
}

func (f DerivedFilter) String() string {
	src := map[FilterSource]string{FromCustKey: "CustKey", FromCustName: "CustName", FromCityKey: "CityKey"}[f.From]
	return fmt.Sprintf("derived(%s→nation %% %d == %d)", src, f.NumSites, f.Site)
}
