// Command tpcgen generates a partitioned test database for a Skalla
// deployment: either the TPCR instance of the paper's Sect. 5 (a
// denormalized TPC(R)-style fact relation partitioned on NationKey) or the
// IP-flow trace of the motivating application (partitioned on RouterId).
//
// It writes one directory per site containing the site's partition as one
// relation codec frame (<relation>.frame), plus a manifest.json describing
// the generator configuration so that skalla-coordinator can reconstruct the
// distribution catalog.
//
// Usage:
//
//	tpcgen -out /data/tpcr -kind tpc -sites 8 -rows 60000 -customers 100000
//	tpcgen -out /data/flows -kind flow -sites 4 -rows 20000
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"skalla/internal/flow"
	"skalla/internal/manifest"
	"skalla/internal/relation"
	"skalla/internal/tpc"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tpcgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tpcgen", flag.ContinueOnError)
	var (
		out   = fs.String("out", "", "output directory (required)")
		kind  = fs.String("kind", "tpc", "dataset kind: tpc or flow")
		sites = fs.Int("sites", 8, "number of sites (flow: also the number of routers)")
		seed  = fs.Int64("seed", 1, "generator seed")
		csv   = fs.Bool("csv", false, "also write each partition as CSV")

		rows      = fs.Int("rows", 60000, "total fact tuples")
		customers = fs.Int("customers", 100000, "tpc: unique customers (CustName cardinality)")
		nations   = fs.Int("nations", 25, "tpc: nations (partition attribute cardinality)")
		cities    = fs.Int("cities-per-nation", 120, "tpc: cities per nation (CityKey cardinality = nations * this)")
		clerks    = fs.Int("clerks", 3000, "tpc: clerk cardinality")

		sourceAS = fs.Int("source-as", 100, "flow: distinct source autonomous systems")
		destAS   = fs.Int("dest-as", 50, "flow: distinct destination autonomous systems")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("-out is required")
	}

	var (
		m     manifest.Manifest
		parts []*relation.Relation
		rel   string
	)
	switch manifest.Kind(*kind) {
	case manifest.KindTPC:
		cfg := tpc.Config{
			Rows: *rows, Customers: *customers, Nations: *nations,
			CitiesPerNation: *cities, Clerks: *clerks, Seed: *seed,
		}
		d, err := tpc.Generate(cfg, *sites)
		if err != nil {
			return err
		}
		parts, rel = d.Parts, tpc.RelationName
		m = manifest.Manifest{Kind: manifest.KindTPC, NumSites: *sites, TPC: &cfg}
	case manifest.KindFlow:
		cfg := flow.Config{
			Rows: *rows, Routers: *sites, SourceAS: *sourceAS, DestAS: *destAS, Seed: *seed,
		}
		d, err := flow.Generate(cfg)
		if err != nil {
			return err
		}
		parts, rel = d.Parts, flow.RelationName
		m = manifest.Manifest{Kind: manifest.KindFlow, NumSites: *sites, Flow: &cfg}
	default:
		return fmt.Errorf("unknown -kind %q (want tpc or flow)", *kind)
	}

	for site, part := range parts {
		path := manifest.SitePath(*out, site, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		frame, err := relation.Marshal(part)
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, frame, 0o644); err != nil {
			return err
		}
		if *csv {
			f, err := os.Create(strings.TrimSuffix(path, filepath.Ext(path)) + ".csv")
			if err != nil {
				return err
			}
			if err := part.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		fmt.Printf("site %d: %d rows -> %s\n", site, part.Len(), path)
	}
	if err := m.Save(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%s, %d sites)\n", filepath.Join(*out, manifest.FileName), rel, *sites)
	return nil
}
