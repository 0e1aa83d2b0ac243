// Package manifest describes a generated on-disk dataset: which generator
// produced it, its configuration, and how many sites it was partitioned
// across. The data tools (cmd/tpcgen) write a manifest next to the partition
// files; cmd/skalla-coordinator reads it to reconstruct the distribution
// catalog that the distribution-aware optimizations need — mirroring how a
// real deployment would register partitioning metadata with the coordinator.
package manifest

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"skalla/internal/distrib"
	"skalla/internal/flow"
	"skalla/internal/relation"
	"skalla/internal/tpc"
)

// FileName is the manifest's name inside a dataset directory.
const FileName = "manifest.json"

// Kind identifies the generator.
type Kind string

const (
	// KindTPC is the TPCR generator (internal/tpc).
	KindTPC Kind = "tpc"
	// KindFlow is the IP-flow generator (internal/flow).
	KindFlow Kind = "flow"
)

// Manifest describes one generated dataset directory.
type Manifest struct {
	Kind     Kind         `json:"kind"`
	NumSites int          `json:"numSites"`
	TPC      *tpc.Config  `json:"tpc,omitempty"`
	Flow     *flow.Config `json:"flow,omitempty"`
}

// Validate checks internal consistency.
func (m *Manifest) Validate() error {
	switch m.Kind {
	case KindTPC:
		if m.TPC == nil {
			return fmt.Errorf("manifest: kind tpc without tpc config")
		}
		if err := m.TPC.Validate(); err != nil {
			return err
		}
	case KindFlow:
		if m.Flow == nil {
			return fmt.Errorf("manifest: kind flow without flow config")
		}
		if err := m.Flow.Validate(); err != nil {
			return err
		}
		if m.NumSites != m.Flow.Routers {
			return fmt.Errorf("manifest: %d sites but %d routers", m.NumSites, m.Flow.Routers)
		}
	default:
		return fmt.Errorf("manifest: unknown kind %q", m.Kind)
	}
	if m.NumSites <= 0 {
		return fmt.Errorf("manifest: numSites = %d", m.NumSites)
	}
	return nil
}

// RelationName returns the detail relation the dataset provides.
func (m *Manifest) RelationName() (string, error) {
	switch m.Kind {
	case KindTPC:
		return tpc.RelationName, nil
	case KindFlow:
		return flow.RelationName, nil
	default:
		return "", fmt.Errorf("manifest: unknown kind %q", m.Kind)
	}
}

// Catalog reconstructs the distribution catalog for a coordinator driving
// the first n of the dataset's sites.
func (m *Manifest) Catalog(n int) (*distrib.Catalog, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	switch m.Kind {
	case KindTPC:
		dist, err := tpc.DistributionFor(*m.TPC, m.NumSites, n)
		if err != nil {
			return nil, err
		}
		return distrib.NewCatalog(dist), nil
	case KindFlow:
		if n != m.Flow.Routers {
			return nil, fmt.Errorf("manifest: flow dataset requires all %d sites, got %d", m.Flow.Routers, n)
		}
		return distrib.NewCatalog(flow.DistributionFor(*m.Flow)), nil
	default:
		return nil, fmt.Errorf("manifest: unknown kind %q", m.Kind)
	}
}

// Save writes the manifest into a dataset directory.
func (m *Manifest) Save(dir string) error {
	if err := m.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, FileName), append(data, '\n'), 0o644)
}

// Load reads a dataset directory's manifest.
func Load(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// SitePath returns the partition file path for a site within a dataset
// directory: <dir>/site<NN>/<relation>.frame. A partition file is one
// relation codec frame (relation.Marshal).
func SitePath(dir string, site int, relName string) string {
	return filepath.Join(dir, fmt.Sprintf("site%02d", site), relName+".frame")
}

// ReadPartition reads a partition file. A dataset written before partition
// files were codec frames has <relation>.gob files instead, which are not
// read, and a frame an older build wrote in a form this codec refuses (a
// uniform column it would pack, say) does not decode: either error names the
// file and says to regenerate the dataset.
func ReadPartition(path string) (*relation.Relation, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		legacy := strings.TrimSuffix(path, filepath.Ext(path)) + ".gob"
		if _, serr := os.Stat(legacy); serr == nil {
			return nil, fmt.Errorf("manifest: %s is a gob partition file, which is no longer read; rerun tpcgen to regenerate the dataset", legacy)
		}
	}
	if err != nil {
		return nil, err
	}
	rel, err := relation.Unmarshal(data)
	if err != nil {
		return nil, fmt.Errorf("manifest: partition %s: %w (a partition file an older tpcgen wrote does not decode; rerun tpcgen to regenerate the dataset)", path, err)
	}
	return rel, nil
}
