// Command skalla-site runs one Skalla local warehouse site: it loads the
// site's partition of a generated dataset (see tpcgen) and serves the site
// protocol over TCP for a skalla-coordinator to drive.
//
// Usage:
//
//	skalla-site -addr :7070 -site 0 -data /data/tpcr
//
// Without -data the site starts empty; a coordinator (or test tool) can push
// partitions over the wire. -obs-addr starts the observability listener
// (/metrics, /healthz, /debug/pprof/); /healthz reports ready only once the
// partition is loaded and the site listener is up.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"skalla/internal/engine"
	"skalla/internal/manifest"
	"skalla/internal/obs"
	"skalla/internal/store"
	"skalla/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "skalla-site:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	srv, err := start(args)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	srv.log.Info("shutting down")
	return srv.Close()
}

// siteProc bundles the running site server with its optional observability
// listener so run (and the tests) manage them as one unit.
type siteProc struct {
	srv    *transport.Server
	obsSrv *obs.HTTPServer
	health *obs.Health
	log    *slog.Logger
}

// Addr returns the site protocol listen address.
func (p *siteProc) Addr() string { return p.srv.Addr() }

// ObsAddr returns the observability listen address ("" when disabled).
func (p *siteProc) ObsAddr() string {
	if p.obsSrv == nil {
		return ""
	}
	return p.obsSrv.Addr()
}

// Close stops the site server and the observability listener.
func (p *siteProc) Close() error {
	p.health.Set("listener", false)
	err := p.srv.Close()
	if p.obsSrv != nil {
		p.obsSrv.Close()
	}
	return err
}

// start parses flags, loads the site's partition, and begins serving; it
// returns the running process handle (run waits on it until a signal arrives).
func start(args []string) (*siteProc, error) {
	fs := flag.NewFlagSet("skalla-site", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":7070", "listen address")
		site      = fs.Int("site", 0, "site index within the dataset")
		data      = fs.String("data", "", "dataset directory written by tpcgen (optional)")
		disk      = fs.Bool("disk", false, "serve the partition from a disk-backed segment store (bounded memory) instead of loading it into RAM")
		obsAddr   = fs.String("obs-addr", "", "observability listen address for /metrics, /healthz and /debug/pprof (empty = disabled)")
		logLevel  = fs.String("log-level", "info", "log level: debug, info, warn or error")
		logFormat = fs.String("log-format", "text", "log format: text or json")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *logFormat != "text" && *logFormat != "json" {
		return nil, fmt.Errorf("unknown log format %q (want text or json)", *logFormat)
	}
	logger, err := obs.SetupLogger("skalla-site", *logLevel, *logFormat == "json", os.Stderr)
	if err != nil {
		return nil, err
	}
	log := logger.With("site", *site)
	obs.RegisterBuildInfo()

	health := obs.NewHealth()
	health.Register("partition")
	health.Register("listener")
	var obsSrv *obs.HTTPServer
	if *obsAddr != "" {
		obsSrv, err = obs.ServeHTTP(*obsAddr, nil, health, nil, log)
		if err != nil {
			return nil, err
		}
	}
	// On any later startup failure, shut the observability listener down too.
	fail := func(err error) (*siteProc, error) {
		if obsSrv != nil {
			obsSrv.Close()
		}
		return nil, err
	}

	es := engine.NewSite(*site)
	health.SetInfo("tables", func() any { return len(es.Tables(context.Background())) })
	if *data != "" {
		m, err := manifest.Load(*data)
		if err != nil {
			return fail(err)
		}
		if *site < 0 || *site >= m.NumSites {
			return fail(fmt.Errorf("site %d out of range (dataset has %d sites)", *site, m.NumSites))
		}
		relName, err := m.RelationName()
		if err != nil {
			return fail(err)
		}
		partPath := manifest.SitePath(*data, *site, relName)
		if *disk {
			storeDir := strings.TrimSuffix(partPath, filepath.Ext(partPath)) + ".store"
			tbl, err := store.Open(storeDir)
			if err != nil {
				// First run: convert the partition file into segments once.
				part, lerr := manifest.ReadPartition(partPath)
				if lerr != nil {
					return fail(lerr)
				}
				tbl, err = store.CreateFrom(storeDir, relName, part, store.DefaultSegmentRows)
				if err != nil {
					return fail(err)
				}
				log.Info("converted partition to disk segments", "relation", relName, "segments", tbl.NumSegments())
			}
			if err := es.LoadSource(relName, tbl); err != nil {
				return fail(err)
			}
			log.Info("serving partition from disk", "relation", relName, "rows", tbl.Len(), "segments", tbl.NumSegments())
		} else {
			part, err := manifest.ReadPartition(partPath)
			if err != nil {
				return fail(err)
			}
			if err := es.Load(context.Background(), relName, part); err != nil {
				return fail(err)
			}
			log.Info("loaded partition", "relation", relName, "rows", part.Len())
		}
	}
	health.Set("partition", true)

	srv, err := transport.Serve(es, *addr)
	if err != nil {
		return fail(err)
	}
	health.Set("listener", true)
	log.Info("serving", "addr", srv.Addr())
	return &siteProc{srv: srv, obsSrv: obsSrv, health: health, log: log}, nil
}
