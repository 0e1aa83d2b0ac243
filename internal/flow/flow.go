// Package flow generates synthetic IP flow trace data matching the paper's
// motivating application (Sect. 2.1): flow records dumped by NetFlow-enabled
// routers, with RouterId as the partition attribute (flows are stored at the
// local warehouse adjacent to the router that observed them). The generator
// realizes the assumption of the paper's Example 2/5: all packets from a
// given SourceAS pass through one specific router, so SourceAS → RouterId
// and SourceAS is a partition attribute too.
package flow

import (
	"fmt"
	"math/rand"

	"skalla/internal/distrib"
	"skalla/internal/relation"
)

// RelationName is the detail relation name used in queries.
const RelationName = "Flow"

// Config controls the synthetic trace.
type Config struct {
	Rows     int   // flow tuples across all routers
	Routers  int   // number of routers == number of sites
	SourceAS int   // number of distinct source autonomous systems
	DestAS   int   // number of distinct destination autonomous systems
	Seed     int64 // deterministic generation
}

// DefaultConfig returns a small deterministic trace.
func DefaultConfig() Config {
	return Config{Rows: 20000, Routers: 4, SourceAS: 100, DestAS: 50, Seed: 1}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Rows <= 0:
		return fmt.Errorf("flow: Rows = %d", c.Rows)
	case c.Routers <= 0:
		return fmt.Errorf("flow: Routers = %d", c.Routers)
	case c.SourceAS <= 0:
		return fmt.Errorf("flow: SourceAS = %d", c.SourceAS)
	case c.DestAS <= 0:
		return fmt.Errorf("flow: DestAS = %d", c.DestAS)
	}
	return nil
}

// Schema returns the Flow schema of Sect. 2.1 (RouterId, source and
// destination endpoint attributes, times, and the NumPackets/NumBytes
// measures).
func Schema() relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "RouterId", Kind: relation.KindInt},
		relation.Column{Name: "SourceIP", Kind: relation.KindString},
		relation.Column{Name: "SourcePort", Kind: relation.KindInt},
		relation.Column{Name: "SourceMask", Kind: relation.KindInt},
		relation.Column{Name: "SourceAS", Kind: relation.KindInt},
		relation.Column{Name: "DestIP", Kind: relation.KindString},
		relation.Column{Name: "DestPort", Kind: relation.KindInt},
		relation.Column{Name: "DestMask", Kind: relation.KindInt},
		relation.Column{Name: "DestAS", Kind: relation.KindInt},
		relation.Column{Name: "StartTime", Kind: relation.KindInt},
		relation.Column{Name: "EndTime", Kind: relation.KindInt},
		relation.Column{Name: "NumPackets", Kind: relation.KindInt},
		relation.Column{Name: "NumBytes", Kind: relation.KindInt},
	)
}

// Dataset is a generated, per-router-partitioned flow trace.
type Dataset struct {
	Config Config
	Parts  []*relation.Relation // Parts[r] = flows observed at router r
}

// Generate builds a deterministic flow trace. Flows of SourceAS a are routed
// through router a % Routers, making both RouterId and SourceAS partition
// attributes.
func Generate(c Config) (*Dataset, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	d := &Dataset{Config: c, Parts: make([]*relation.Relation, c.Routers)}
	for i := range d.Parts {
		d.Parts[i] = relation.New(Schema())
	}
	var row relation.Tuple // appended by value, so one buffer serves every row
	for i := 0; i < c.Rows; i++ {
		sas := 1 + rng.Int63n(int64(c.SourceAS))
		das := 1 + rng.Int63n(int64(c.DestAS))
		router := sas % int64(c.Routers)
		start := rng.Int63n(86400)
		dur := rng.Int63n(300)
		packets := 1 + rng.Int63n(1000)
		// Web-traffic skew: one destination port in three is HTTP.
		destPort := int64(80)
		if rng.Intn(3) != 0 {
			destPort = 1024 + rng.Int63n(64000)
		}
		row = append(row[:0],
			relation.NewInt(router),
			relation.NewString(randIP(rng)),
			relation.NewInt(1024+rng.Int63n(64000)),
			relation.NewInt(24),
			relation.NewInt(sas),
			relation.NewString(randIP(rng)),
			relation.NewInt(destPort),
			relation.NewInt(24),
			relation.NewInt(das),
			relation.NewInt(start),
			relation.NewInt(start+dur),
			relation.NewInt(packets),
			relation.NewInt(packets*(40+rng.Int63n(1460))),
		)
		d.Parts[router].MustAppend(row)
	}
	return d, nil
}

func randIP(rng *rand.Rand) string {
	return fmt.Sprintf("%d.%d.%d.%d", 10+rng.Intn(200), rng.Intn(256), rng.Intn(256), 1+rng.Intn(254))
}

// Global returns the conceptual union of all routers' flows.
func (d *Dataset) Global() *relation.Relation {
	g := relation.New(Schema())
	for _, p := range d.Parts {
		if err := g.Union(p); err != nil {
			panic(err) // every router's part has Schema()
		}
	}
	return g
}

// Distribution returns the distribution knowledge: RouterId r at site r, and
// SourceAS partitioned by a % Routers (the Example 2 scenario), with the
// SourceAS → RouterId functional dependency.
func (d *Dataset) Distribution() *distrib.Distribution {
	return DistributionFor(d.Config)
}

// DistributionFor builds the distribution knowledge for an instance
// generated with config c, without needing the data itself.
func DistributionFor(c Config) *distrib.Distribution {
	n := c.Routers
	routerFilters := make([]distrib.SiteFilter, n)
	sasFilters := make([]distrib.SiteFilter, n)
	for site := 0; site < n; site++ {
		routerFilters[site] = distrib.NewValueSet(relation.NewInt(int64(site)))
		sasFilters[site] = ModFilter{Mod: int64(n), Rem: int64(site)}
	}
	return &distrib.Distribution{
		Relation: RelationName,
		NumSites: n,
		Attrs: []distrib.AttrInfo{
			{Attr: "RouterId", Filters: routerFilters, Disjoint: true, Distinct: int64(n)},
			{Attr: "SourceAS", Filters: sasFilters, Disjoint: true, Distinct: int64(c.SourceAS)},
			{Attr: "DestAS", Distinct: int64(c.DestAS)},
		},
		FDs:       []distrib.FD{{From: "SourceAS", To: "RouterId"}},
		TotalRows: int64(c.Rows),
	}
}

// Catalog wraps the distribution in a catalog.
func (d *Dataset) Catalog() *distrib.Catalog {
	return distrib.NewCatalog(d.Distribution())
}

// ModFilter is a distrib.SiteFilter matching integers congruent to Rem
// modulo Mod (the "SourceAS a is handled by router a mod n" ownership).
type ModFilter struct {
	Mod, Rem int64
}

// Contains implements distrib.SiteFilter.
func (f ModFilter) Contains(v relation.Value) bool {
	if v.Kind != relation.KindInt || f.Mod <= 0 {
		return false
	}
	return ((v.Int%f.Mod)+f.Mod)%f.Mod == f.Rem
}

// Bounds implements distrib.SiteFilter: residue classes are unbounded.
func (f ModFilter) Bounds() (float64, float64, bool) { return 0, 0, false }

// DisjointWith implements distrib.DisjointChecker.
func (f ModFilter) DisjointWith(other distrib.SiteFilter) bool {
	o, ok := other.(ModFilter)
	return ok && o.Mod == f.Mod && o.Rem != f.Rem
}

func (f ModFilter) String() string { return fmt.Sprintf("x %% %d == %d", f.Mod, f.Rem) }
