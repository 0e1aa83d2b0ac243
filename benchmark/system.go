package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"skalla"
	"skalla/internal/core"
	"skalla/internal/engine"
	"skalla/internal/gmdj"
	"skalla/internal/relation"
	"skalla/internal/server"
	"skalla/internal/stats"
	"skalla/internal/tpc"
	"skalla/internal/transport"
)

const loopback = "127.0.0.1:0"

// numClients is the closed loop's session count: one per core of the 2-core
// sandbox the sizes were frozen on. More sessions than cores would measure
// the scheduler, not the program.
const numClients = 2

// planner is what the direct-call layer pass needs from either flavour of
// coordinator handle.
type planner interface {
	PlanWith(ctx context.Context, q gmdj.Query, sel skalla.Selection) (*skalla.Plan, error)
}

// system is the program under test hosted in this process: four engine sites
// behind TCP transport servers, a coordinator connected to them over
// loopback, a query server in front of it, and the client sessions. It is the
// code path of skalla-site + skalla-coordinator -serve + skalla-client; the
// processes are not forked because six of them on two cores would measure the
// scheduler.
type system struct {
	partRows []int
	siteSrvs []*transport.Server
	cluster  *skalla.Cluster     // untraced: the production facade
	conns    []*transport.Client // traced: the coordinator's site connections
	plan     planner
	srv      *skalla.QueryServer
	sessions []*skalla.QueryClient
	// cold holds every template's reply from the set-up's cold pass, for the
	// oracle check.
	cold []*relation.Relation
	// wire is the per-template traffic table of the cold ExecuteSelected
	// pass (untraced systems only).
	wire []templateTraffic
	// setupTime is the timed part of set-up (see setUp).
	setupTime time.Duration
}

// setUp builds a system over ds. With rec == nil it is assembled exactly as
// a deployment is — skalla.Connect and skalla.Serve with production defaults;
// with a recorder the same parts are assembled by hand so that wrappers sit
// at the public seams (see trace.go).
//
// setupTime covers loading the partitions, serving the four sites, Connect,
// Serve, the client dials and one cold pass over every template. It excludes
// the wire pass (the benchmark's own measurement), which runs between Connect
// and Serve because only there is the coordinator still without caches.
func setUp(ctx context.Context, w workload, ds *tpc.Dataset, rec *recorder, wirePass bool) (*system, error) {
	sys := &system{}
	if err := sys.start(ctx, w, ds, rec, wirePass); err != nil {
		sys.Close()
		return nil, err
	}
	return sys, nil
}

func (sys *system) start(ctx context.Context, w workload, ds *tpc.Dataset, rec *recorder, wirePass bool) error {
	cat, err := ds.Catalog(numSites)
	if err != nil {
		return err
	}
	start := time.Now()
	addrs := make([]string, numSites)
	for i := 0; i < numSites; i++ {
		site := engine.NewSite(i)
		if err := site.Load(ctx, tpc.RelationName, ds.Parts[i]); err != nil {
			return err
		}
		var backend transport.Backend = site
		if rec != nil {
			backend = &tracedBackend{Site: site, rec: rec}
		}
		srv, err := transport.Serve(backend, loopback)
		if err != nil {
			return err
		}
		sys.siteSrvs = append(sys.siteSrvs, srv)
		sys.partRows = append(sys.partRows, ds.Parts[i].Len())
		addrs[i] = srv.Addr()
	}
	if rec == nil {
		if sys.cluster, err = skalla.Connect(addrs, skalla.WithCatalog(cat)); err != nil {
			return err
		}
		sys.plan = sys.cluster
		if wirePass {
			pause := time.Now()
			if sys.wire, err = measureTraffic(ctx, sys.cluster, w); err != nil {
				return err
			}
			start = start.Add(time.Since(pause))
		}
		sys.srv, err = skalla.Serve(sys.cluster, loopback, skalla.ServerOptions{})
	} else {
		sites := make([]transport.Site, numSites)
		for i, a := range addrs {
			c, err := transport.Dial(a)
			if err != nil {
				return err
			}
			sys.conns = append(sys.conns, c)
			sites[i] = &tracedSite{Client: c, rec: rec}
		}
		var coord *core.Coordinator
		if coord, err = core.New(sites, cat, stats.NetModel{}); err != nil {
			return err
		}
		// The settings skalla.Serve installs for a zero ServerOptions.
		coord.SetPlanCache(skalla.DefaultPlanCacheSize)
		coord.SetResultCache(skalla.DefaultResultCacheSize)
		coord.SetSingleFlight(true)
		coord.SetAdmission(0, -1)
		sys.plan = coord
		sys.srv, err = server.Serve(tracedHandler(coord, rec), loopback)
	}
	if err != nil {
		return err
	}
	for c := 0; c < numClients; c++ {
		s, err := skalla.DialQueryServer(sys.srv.Addr())
		if err != nil {
			return err
		}
		sys.sessions = append(sys.sessions, s)
	}
	for _, t := range w.templates {
		rel, _, err := sys.sessions[0].Query(ctx, t.at(fixedLiteral))
		if err != nil {
			return fmt.Errorf("cold pass, template %s: %w", t.name, err)
		}
		sys.cold = append(sys.cold, rel)
	}
	sys.setupTime = time.Since(start)
	return nil
}

// Close stops the system front to back and waits for every goroutine the
// servers own.
func (s *system) Close() error {
	var errs []error
	for _, c := range s.sessions {
		errs = append(errs, c.Close())
	}
	if s.srv != nil {
		// Shutdown drains; no statement is in flight, so it returns at once.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		errs = append(errs, s.srv.Shutdown(ctx))
		cancel()
	}
	if s.cluster != nil {
		errs = append(errs, s.cluster.Close())
	}
	for _, c := range s.conns {
		errs = append(errs, c.Close())
	}
	for _, srv := range s.siteSrvs {
		errs = append(errs, srv.Close())
	}
	return errors.Join(errs...)
}

// oracle evaluates every template centrally over the global relation (the
// role Thm. 3 gives the centralized evaluation).
func oracle(w workload, ds *tpc.Dataset) ([]*relation.Relation, error) {
	data := gmdj.Data{tpc.RelationName: ds.Global()}
	out := make([]*relation.Relation, len(w.templates))
	for i, t := range w.templates {
		q, err := parse(t.at(fixedLiteral))
		if err != nil {
			return nil, fmt.Errorf("template %s: %w", t.name, err)
		}
		if out[i], err = gmdj.EvalCentral(q, data, true); err != nil {
			return nil, fmt.Errorf("oracle, template %s: %w", t.name, err)
		}
	}
	return out, nil
}

// oracleTolerance is the relative tolerance on floats: distributed sums add
// in a different order than the centralized scan.
const oracleTolerance = 1e-9

// checkOracle compares the cold-pass replies with the oracle (Thm. 3:
// distributed = centralized) and returns the mismatching templates.
func checkOracle(w workload, got, want []*relation.Relation) []string {
	var bad []string
	for i, t := range w.templates {
		if !got[i].EqualMultisetApprox(want[i], oracleTolerance) {
			bad = append(bad, t.name)
		}
	}
	return bad
}
