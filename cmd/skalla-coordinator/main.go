// Command skalla-coordinator connects to a set of Skalla sites, compiles an
// OLAP query (the text format of skalla.ParseQueryText) into a distributed
// GMDJ plan, executes it, and prints the result together with the per-round
// cost breakdown.
//
// Usage:
//
//	skalla-coordinator -sites host1:7070,host2:7070 -data /data/tpcr -query q.skalla
//	skalla-coordinator -sites :7070 -q 'base Flow key SourceAS
//	  op B.SourceAS = R.SourceAS :: count(*) as c' -opts all
//
// -data points at the dataset directory (for the manifest only; the sites
// hold the data) and enables the distribution-aware optimizations. -explain
// prints the plan without executing.
//
// With -serve the coordinator becomes a long-lived multi-tenant query server:
//
//	skalla-coordinator -sites host1:7070,host2:7070 -serve :7474 -obs-addr :9090
//
// Clients (skalla-client) submit statements over concurrent sessions;
// repeated statements reuse prepared plans, -max-concurrent bounds admission
// and -query-mem-budget bounds per-query coordinator memory. SIGINT/SIGTERM
// flips /healthz to unhealthy, drains in-flight queries (bounded by
// -site-timeout) and exits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"skalla"
	"skalla/internal/egil"
	"skalla/internal/manifest"
	"skalla/internal/obs"
	"skalla/internal/plan"
	"skalla/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "skalla-coordinator:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("skalla-coordinator", flag.ContinueOnError)
	var (
		sitesFlag   = fs.String("sites", "", "comma-separated site addresses (required)")
		data        = fs.String("data", "", "dataset directory (manifest → distribution catalog)")
		queryFile   = fs.String("query", "", "query file in the skalla text format")
		queryText   = fs.String("q", "", "inline query text (alternative to -query)")
		sqlText     = fs.String("sql", "", "inline SQL-style OLAP statement (SELECT ... GROUP BY / CUBE BY ...)")
		blockRows   = fs.Int("block-rows", 0, "row blocking: sites return H in blocks of this many rows (0 = off)")
		siteRetries = fs.Int("site-retries", 3, "attempts per site call before the query fails (1 = no retry)")
		siteTimeout = fs.Duration("site-timeout", 30*time.Second, "per-attempt deadline for one site call (0 = none)")
		workers     = fs.Int("workers", 0, "concurrent per-site merge commits during synchronization: 0 = auto, 1 = serial")
		optsFlag    = fs.String("opts", "all", "optimizations: all, none, or a comma list of coalesce,group-site,group-coord,sync")
		planMode    = fs.String("plan-mode", "", "planner rule selection: auto, none, all, or rules=<name>,... (overrides -opts)")
		explain     = fs.Bool("explain", false, "print the plan without executing")
		replFlag    = fs.Bool("repl", false, "interactive mode: read statements from stdin")
		serveAddr   = fs.String("serve", "", "run as a long-lived query server on this address (host:port; :0 for ephemeral)")
		maxConc     = fs.Int("max-concurrent", 0, "serve mode: concurrently executing queries (0 = GOMAXPROCS)")
		memBudget   = fs.Int64("query-mem-budget", 0, "serve mode: per-query coordinator memory budget in bytes (0 = off)")
		planCache   = fs.Int("plan-cache", 0, "serve mode: prepared-plan cache capacity (0 = default)")
		resultCache = fs.Int("result-cache", 0, "serve mode: super-aggregate result cache capacity (0 = default, -1 = off)")
		netFlag     = fs.String("net", "none", "network model for response-time reporting: none or lan")
		maxRows     = fs.Int("max-rows", 20, "result rows to print")
		statsJSON   = fs.String("stats-json", "", "also write the execution metrics as JSON to this file")
		slowQuery   = fs.Duration("slow-query", 0, "log the full profile of queries slower than this (0 = off)")
		trace       = fs.Bool("trace", false, "stream per-round execution progress while the query runs")
		obsAddr     = fs.String("obs-addr", "", "observability listen address for /metrics, /healthz and /debug/pprof (empty = disabled)")
		logLevel    = fs.String("log-level", "warn", "log level: debug, info, warn or error")
		logFormat   = fs.String("log-format", "text", "log format: text or json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sitesFlag == "" {
		return fmt.Errorf("-sites is required")
	}
	for _, c := range []struct {
		flag string
		bad  bool
		want string
	}{
		{"-workers", *workers < 0, "0 (auto) or positive"},
		{"-block-rows", *blockRows < 0, "0 (off) or positive"},
		{"-max-rows", *maxRows < 0, "0 or positive"},
		{"-site-retries", *siteRetries < 1, "at least 1 (it counts attempts, not retries)"},
		{"-site-timeout", *siteTimeout < 0, "0 (none) or positive"},
		{"-slow-query", *slowQuery < 0, "0 (off) or positive"},
		{"-max-concurrent", *maxConc < 0, "0 (GOMAXPROCS) or positive"},
		{"-plan-cache", *planCache < 0, "0 (default) or positive"},
		{"-result-cache", *resultCache < -1, "0 (default), positive, or -1 (off)"},
		{"-query-mem-budget", *memBudget < 0, "0 (off) or positive"},
	} {
		if c.bad {
			return fmt.Errorf("%s must be %s", c.flag, c.want)
		}
	}
	queryFlags := *queryFile != "" || *queryText != "" || *sqlText != ""
	switch {
	case *replFlag && queryFlags:
		return fmt.Errorf("-repl is interactive: it conflicts with -query/-q/-sql (submit the statement in the session instead)")
	case *replFlag && *explain:
		return fmt.Errorf("-repl conflicts with -explain (toggle \\explain inside the session instead)")
	case *serveAddr != "" && *replFlag:
		return fmt.Errorf("-serve conflicts with -repl")
	case *serveAddr != "" && queryFlags:
		return fmt.Errorf("-serve is a daemon mode: it conflicts with -query/-q/-sql (submit statements with skalla-client instead)")
	case *serveAddr != "" && *explain:
		return fmt.Errorf("-serve conflicts with -explain")
	}
	if *logFormat != "text" && *logFormat != "json" {
		return fmt.Errorf("unknown log format %q (want text or json)", *logFormat)
	}
	if _, err := obs.SetupLogger("skalla-coordinator", *logLevel, *logFormat == "json", os.Stderr); err != nil {
		return err
	}
	obs.RegisterBuildInfo()
	health := obs.NewHealth()
	health.Register("sites")
	if *serveAddr != "" {
		// Registered (and false) from the start: /healthz reports 503 until
		// the server is accepting, and again as soon as shutdown begins.
		health.Register("serving")
	}
	if *obsAddr != "" {
		obsSrv, err := obs.ServeHTTP(*obsAddr, nil, health, nil, nil)
		if err != nil {
			return err
		}
		defer obsSrv.Close()
	}
	text := *queryText
	if *queryFile != "" {
		b, err := os.ReadFile(*queryFile)
		if err != nil {
			return err
		}
		text = string(b)
	}
	var q skalla.Query
	var post *egil.Statement
	var err error
	switch {
	case *replFlag, *serveAddr != "":
		// Interactive and daemon modes take statements from their sessions;
		// the conflict checks above already rejected any query flags.
	case *sqlText != "" && text != "":
		return fmt.Errorf("provide either -sql or -query/-q, not both")
	case *sqlText != "":
		post, err = egil.ParseStatement(*sqlText)
		if err == nil {
			q, err = post.ToQuery()
		}
	case text != "":
		q, err = skalla.ParseQueryText(text)
	default:
		return fmt.Errorf("provide a query with -query, -q or -sql (or use -repl / -serve)")
	}
	if err != nil {
		return err
	}
	opts, err := parseOpts(*optsFlag)
	if err != nil {
		return err
	}
	if *planMode != "" {
		if _, err := skalla.ParseSelection(*planMode); err != nil {
			return err
		}
	}

	addrs := strings.Split(*sitesFlag, ",")
	retry := skalla.DefaultRetryPolicy()
	retry.MaxAttempts = *siteRetries
	retry.CallTimeout = *siteTimeout
	clusterOpts := []skalla.ClusterOption{
		skalla.WithRowBlocking(*blockRows),
		skalla.WithSiteRetry(retry),
		skalla.WithWorkers(*workers),
		skalla.WithSlowQuery(*slowQuery),
	}
	if *trace {
		clusterOpts = append(clusterOpts, skalla.WithTrace(out))
	}
	if *planMode != "" {
		clusterOpts = append(clusterOpts, skalla.WithPlanMode(*planMode))
	}
	var cat *skalla.Catalog
	if *data != "" {
		m, err := manifest.Load(*data)
		if err != nil {
			return err
		}
		cat, err = m.Catalog(len(addrs))
		if err != nil {
			return err
		}
		clusterOpts = append(clusterOpts, skalla.WithCatalog(cat))
	}
	// Gen is nil-safe: without -data the /healthz info reports generation 0.
	health.SetInfo("catalog_generation", func() any { return cat.Gen() })
	if *netFlag == "lan" {
		clusterOpts = append(clusterOpts, skalla.WithNetModel(stats.DefaultLAN()))
	}

	cluster, err := skalla.Connect(addrs, clusterOpts...)
	if err != nil {
		return err
	}
	defer cluster.Close()
	health.Set("sites", true)

	if *serveAddr != "" {
		return serve(cluster, health, out, *serveAddr, skalla.ServerOptions{
			MaxConcurrent:   *maxConc,
			PlanCacheSize:   *planCache,
			ResultCacheSize: *resultCache,
			QueryMemBudget:  *memBudget,
		}, *siteTimeout)
	}

	if *replFlag {
		return repl(cluster, os.Stdin, out, opts, *maxRows)
	}

	ctx := context.Background()
	if *explain {
		var desc string
		if *planMode != "" {
			desc, err = cluster.ExplainSelected(ctx, q)
		} else {
			desc, err = cluster.Explain(ctx, q, opts)
		}
		if err != nil {
			return err
		}
		fmt.Fprint(out, desc)
		return nil
	}
	var res *skalla.Result
	if *planMode != "" {
		res, err = cluster.ExecuteSelected(ctx, q)
	} else {
		res, err = cluster.Execute(ctx, q, opts)
	}
	if err != nil {
		return err
	}
	if post != nil {
		// Client-side ORDER BY / LIMIT of the SQL dialect.
		if err := post.Postprocess(res.Rel); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "%d group(s):\n%s\n", res.Rel.Len(), res.Rel.Format(*maxRows))
	fmt.Fprint(out, res.Plan.Describe())
	fmt.Fprint(out, res.Metrics.String())
	if *statsJSON != "" {
		// The export carries the raw metrics plus the percentile summaries
		// (per-call site compute and bytes, per-round sync-merge time) and
		// the plan's identity with estimated-vs-actual bytes per round.
		export := struct {
			*stats.Metrics
			Summary stats.Summary `json:"summary"`
			Plan    planStats     `json:"plan"`
		}{res.Metrics, res.Metrics.Summary(), planStats{
			Fingerprint: res.Plan.Fingerprint,
			Mode:        res.Plan.Mode,
			Rules:       res.Plan.Rules,
			EstRounds:   res.Plan.Estimate.Rounds,
			EstBytes:    res.Plan.Estimate.TotalBytes(),
			Rounds:      res.Plan.CompareRounds(res.Metrics),
		}}
		data, err := json.MarshalIndent(export, "", "  ")
		if err != nil {
			return err
		}
		if err := writeFileAtomic(*statsJSON, append(data, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// serve runs the coordinator as a long-lived multi-tenant query server until
// SIGINT/SIGTERM. Shutdown ordering: /healthz flips unhealthy first (load
// balancers stop routing), then in-flight statements drain — bounded by
// drainTimeout (0 = unbounded) — then listeners and site connections close.
func serve(cluster *skalla.Cluster, health *obs.Health, out io.Writer, addr string, opts skalla.ServerOptions, drainTimeout time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv, err := skalla.Serve(cluster, addr, opts)
	if err != nil {
		return err
	}
	health.Set("serving", true)
	fmt.Fprintf(out, "serving on %s\n", srv.Addr())
	<-ctx.Done()
	stop() // a second signal during the drain kills the process the default way
	health.Set("serving", false)
	obs.Logger().Info("draining", "timeout", drainTimeout)
	drainCtx := context.Background()
	if drainTimeout > 0 {
		var cancel context.CancelFunc
		drainCtx, cancel = context.WithTimeout(drainCtx, drainTimeout)
		defer cancel()
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain cut short after %s: %w", drainTimeout, err)
	}
	return nil
}

// writeFileAtomic writes data to path via a temp file in the same directory
// plus rename, so a crash or write failure never leaves a truncated file at
// path (and readers always see either the old or the new content).
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Chmod(tmp.Name(), 0o644)
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return werr
	}
	return nil
}

// planStats is the plan section of the -stats-json export: the compiled
// plan's identity plus the cost model's per-round estimates joined with the
// measured bytes.
type planStats struct {
	Fingerprint string           `json:"fingerprint"`
	Mode        string           `json:"mode"`
	Rules       []string         `json:"rules"`
	EstRounds   int              `json:"est_rounds"`
	EstBytes    int64            `json:"est_bytes"`
	Rounds      []plan.RoundCost `json:"rounds"`
}

func parseOpts(s string) (skalla.Options, error) {
	switch s {
	case "all":
		return plan.All(), nil
	case "none", "":
		return plan.None(), nil
	}
	var o skalla.Options
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(part) {
		case "coalesce":
			o.Coalesce = true
		case "group-site":
			o.GroupReduceSite = true
		case "group-coord":
			o.GroupReduceCoord = true
		case "sync":
			o.SyncReduce = true
		default:
			return o, fmt.Errorf("unknown optimization %q", part)
		}
	}
	return o, nil
}
