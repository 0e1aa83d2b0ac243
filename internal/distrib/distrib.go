// Package distrib models distribution knowledge about a distributed data
// warehouse — which site holds which slice of each detail relation — and the
// static analyses built on it:
//
//   - site predicates φ_i and the derivation of the group-reduction
//     predicates ¬ψ_i of Theorem 4 (distribution-aware group reduction);
//   - partition attributes per Definition 2, extended through functional
//     dependencies (the paper partitions TPCR on NationKey "and therefore
//     also on CustKey");
//   - the synchronization-reduction tests of Proposition 2 (skip the
//     base-values sync) and Corollary 1 (evaluate the whole chain locally
//     with a single synchronization).
package distrib

import (
	"fmt"
	"sort"
	"strings"

	"skalla/internal/relation"
)

// SiteFilter is a site predicate φ_i restricted to a single attribute: it
// describes which values of that attribute can occur at the site.
type SiteFilter interface {
	// Contains reports whether the value may occur at the site.
	Contains(v relation.Value) bool
	// Bounds returns numeric [lo,hi] bounds of the filter's values, if the
	// filter is numeric. Used for affine relaxation of inequality conditions.
	Bounds() (lo, hi float64, ok bool)
	String() string
}

// IntRange is an inclusive integer range filter [Lo, Hi].
type IntRange struct {
	Lo, Hi int64
}

// Contains implements SiteFilter.
func (r IntRange) Contains(v relation.Value) bool {
	f, ok := v.AsFloat()
	if !ok {
		return false
	}
	return f >= float64(r.Lo) && f <= float64(r.Hi)
}

// Bounds implements SiteFilter.
func (r IntRange) Bounds() (float64, float64, bool) {
	return float64(r.Lo), float64(r.Hi), true
}

func (r IntRange) String() string { return fmt.Sprintf("[%d,%d]", r.Lo, r.Hi) }

// ValueSet is an explicit set-of-values filter.
type ValueSet struct {
	Values []relation.Value
}

// NewValueSet builds a ValueSet from values.
func NewValueSet(vs ...relation.Value) ValueSet { return ValueSet{Values: vs} }

// Contains implements SiteFilter.
func (s ValueSet) Contains(v relation.Value) bool {
	for _, x := range s.Values {
		if x.Equal(v) {
			return true
		}
	}
	return false
}

// Bounds implements SiteFilter: defined only when all values are numeric.
func (s ValueSet) Bounds() (float64, float64, bool) {
	if len(s.Values) == 0 {
		return 0, 0, false
	}
	lo, hi := 0.0, 0.0
	for i, v := range s.Values {
		f, ok := v.AsFloat()
		if !ok {
			return 0, 0, false
		}
		if i == 0 || f < lo {
			lo = f
		}
		if i == 0 || f > hi {
			hi = f
		}
	}
	return lo, hi, true
}

func (s ValueSet) String() string {
	parts := make([]string, len(s.Values))
	for i, v := range s.Values {
		parts[i] = v.String()
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ",") + "}"
}

// AttrInfo is the per-attribute distribution knowledge of one detail
// relation: the per-site filters (φ_i projected onto the attribute), and
// whether the per-site value sets are pairwise disjoint — i.e. whether the
// attribute is a partition attribute in the sense of Definition 2.
type AttrInfo struct {
	Attr     string
	Filters  []SiteFilter // index = site; nil entry means unconstrained at that site
	Disjoint bool
	// Distinct is the estimated number of distinct values of the attribute
	// across the deployment (0 = unknown). The planner's cost model uses it
	// to estimate base-values cardinalities.
	Distinct int64
}

// Filter returns site i's filter, or nil when unconstrained or unknown.
func (a AttrInfo) Filter(site int) SiteFilter {
	if site < 0 || site >= len(a.Filters) {
		return nil
	}
	return a.Filters[site]
}

// FD is a functional dependency From → To on a detail relation.
type FD struct {
	From, To string
}

// Distribution is the distribution knowledge for one detail relation.
type Distribution struct {
	Relation string
	NumSites int
	Attrs    []AttrInfo
	FDs      []FD
	// TotalRows is the estimated number of detail tuples across all sites
	// (0 = unknown). Cardinality estimates are capped at it.
	TotalRows int64
}

// Attr returns the info for a named attribute.
func (d *Distribution) Attr(name string) (AttrInfo, bool) {
	for _, a := range d.Attrs {
		if a.Attr == name {
			return a, true
		}
	}
	return AttrInfo{}, false
}

// PartitionAttrs returns every attribute that is a partition attribute:
// attributes declared Disjoint, closed under the functional dependencies
// (if A → B and B is a partition attribute, rows sharing an A value share a
// B value and therefore reside at a single site, so A is one too).
func (d *Distribution) PartitionAttrs() map[string]struct{} {
	out := make(map[string]struct{})
	for _, a := range d.Attrs {
		if a.Disjoint {
			out[a.Attr] = struct{}{}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fd := range d.FDs {
			if _, ok := out[fd.To]; !ok {
				continue
			}
			if _, ok := out[fd.From]; !ok {
				out[fd.From] = struct{}{}
				changed = true
			}
		}
	}
	return out
}

// IsPartitionAttr reports whether the attribute is a partition attribute
// (directly or through the FD closure).
func (d *Distribution) IsPartitionAttr(attr string) bool {
	_, ok := d.PartitionAttrs()[attr]
	return ok
}

// Validate checks structural consistency: filter slices (when present) have
// NumSites entries and declared-Disjoint attributes with explicit finite
// filters really are pairwise disjoint.
func (d *Distribution) Validate() error {
	if d.NumSites <= 0 {
		return fmt.Errorf("distrib: %s: NumSites = %d", d.Relation, d.NumSites)
	}
	for _, a := range d.Attrs {
		if a.Filters != nil && len(a.Filters) != d.NumSites {
			return fmt.Errorf("distrib: %s.%s: %d filters for %d sites", d.Relation, a.Attr, len(a.Filters), d.NumSites)
		}
		if !a.Disjoint {
			continue
		}
		for i := range a.Filters {
			for j := i + 1; j < len(a.Filters); j++ {
				if filtersOverlap(a.Filters[i], a.Filters[j]) {
					return fmt.Errorf("distrib: %s.%s declared disjoint but sites %d and %d overlap (%s vs %s)",
						d.Relation, a.Attr, i, j, a.Filters[i], a.Filters[j])
				}
			}
		}
	}
	return nil
}

// DisjointChecker is an optional SiteFilter extension: custom filter types
// (e.g. filters deriving site ownership from a functionally dependent
// attribute) can prove pairwise disjointness that the structural check below
// cannot see.
type DisjointChecker interface {
	DisjointWith(other SiteFilter) bool
}

// filtersOverlap conservatively detects overlap between two filters; nil
// (unconstrained) overlaps everything.
func filtersOverlap(a, b SiteFilter) bool {
	if a == nil || b == nil {
		return true
	}
	if dc, ok := a.(DisjointChecker); ok && dc.DisjointWith(b) {
		return false
	}
	if dc, ok := b.(DisjointChecker); ok && dc.DisjointWith(a) {
		return false
	}
	switch x := a.(type) {
	case IntRange:
		switch y := b.(type) {
		case IntRange:
			return x.Lo <= y.Hi && y.Lo <= x.Hi
		case ValueSet:
			for _, v := range y.Values {
				if x.Contains(v) {
					return true
				}
			}
			return false
		}
	case ValueSet:
		for _, v := range x.Values {
			if b.Contains(v) {
				return true
			}
		}
		return false
	}
	return true // unknown filter kinds: assume overlap
}

// CheckData verifies that a site's actual rows satisfy the declared filters
// for every attribute (a test/diagnostic helper: distribution knowledge that
// disagrees with the data would make the Thm. 4 optimization unsound).
func (d *Distribution) CheckData(site int, rel *relation.Relation) error {
	for _, a := range d.Attrs {
		f := a.Filter(site)
		if f == nil {
			continue
		}
		idx := rel.Schema.Index(a.Attr)
		if idx < 0 {
			return fmt.Errorf("distrib: relation lacks attribute %q", a.Attr)
		}
		for rn, t := range rel.Rows() {
			if !f.Contains(t[idx]) {
				return fmt.Errorf("distrib: site %d row %d: %s = %s violates φ = %s",
					site, rn, a.Attr, t[idx], f)
			}
		}
	}
	return nil
}

// Catalog bundles the distribution knowledge of all detail relations.
type Catalog struct {
	Relations map[string]*Distribution
	// Generation counts catalog rebuilds: it changes whenever the
	// distribution knowledge (partitioning, membership, statistics) is
	// re-derived, invalidating every plan fingerprint computed against the
	// previous knowledge. The zero value identifies the initial catalog.
	Generation uint64
}

// NewCatalog builds a catalog from distributions.
func NewCatalog(ds ...*Distribution) *Catalog {
	c := &Catalog{Relations: make(map[string]*Distribution, len(ds))}
	for _, d := range ds {
		c.Relations[d.Relation] = d
	}
	return c
}

// Distribution returns the knowledge for a relation, or nil when unknown
// (all optimizations relying on distribution knowledge then stay off).
func (c *Catalog) Distribution(rel string) *Distribution {
	if c == nil {
		return nil
	}
	return c.Relations[rel]
}

// Gen returns the catalog's generation counter; nil catalogs are generation
// zero (no distribution knowledge to go stale).
func (c *Catalog) Gen() uint64 {
	if c == nil {
		return 0
	}
	return c.Generation
}

// HashFilter matches values whose kind-aware hash falls in residue class Rem
// modulo Mod — the hash-partitioning scheme. Hash partitions of the same
// modulus and different residues are disjoint, so a hash-partitioned
// attribute is a partition attribute (Definition 2).
type HashFilter struct {
	Mod, Rem uint64
}

// Contains implements SiteFilter.
func (f HashFilter) Contains(v relation.Value) bool {
	if f.Mod == 0 {
		return false
	}
	return v.Hash64()%f.Mod == f.Rem
}

// Bounds implements SiteFilter: hash classes are unbounded.
func (f HashFilter) Bounds() (float64, float64, bool) { return 0, 0, false }

// DisjointWith implements DisjointChecker.
func (f HashFilter) DisjointWith(other SiteFilter) bool {
	o, ok := other.(HashFilter)
	return ok && o.Mod == f.Mod && o.Rem != f.Rem
}

func (f HashFilter) String() string { return fmt.Sprintf("hash(x) %% %d == %d", f.Mod, f.Rem) }

// HashPartition builds the per-site HashFilter slice for n sites.
func HashPartition(n int) []SiteFilter {
	out := make([]SiteFilter, n)
	for i := range out {
		out[i] = HashFilter{Mod: uint64(n), Rem: uint64(i)}
	}
	return out
}
