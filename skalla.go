// Package skalla is a distributed OLAP query processor: a from-scratch
// reproduction of the Skalla system of Akinde, Böhlen, Johnson, Lakshmanan
// and Srivastava, "Efficient OLAP Query Processing in Distributed Data
// Warehouses" (EDBT 2002).
//
// A Skalla deployment is a set of local warehouse sites — each holding one
// horizontal partition of the fact relation(s) — plus a coordinator. OLAP
// queries are expressed as complex GMDJ expressions (a base-values query
// followed by a chain of MD operators); the coordinator evaluates them in
// rounds, shipping only partial aggregate results, never detail data, and
// applies the paper's optimizations: coalescing, distribution-independent
// and distribution-aware group reduction, and synchronization reduction.
// Each optimization is a planner rule; a Selection (SelectNone, SelectAll,
// SelectAuto, SelectRules) says which rules a query is planned with.
//
// Quick start (in-process cluster):
//
//	cluster, _ := skalla.NewLocalCluster(4)
//	defer cluster.Close()
//	for i, part := range partitions {
//	    cluster.Load(ctx, i, "Flow", part)
//	}
//	q, _ := skalla.NewQuery("Flow", "SourceAS", "DestAS").
//	    Op("B.SourceAS = R.SourceAS && B.DestAS = R.DestAS",
//	        skalla.Count("cnt1"), skalla.Sum("NumBytes", "sum1")).
//	    Op("B.SourceAS = R.SourceAS && B.DestAS = R.DestAS && R.NumBytes >= B.sum1 / B.cnt1",
//	        skalla.Count("cnt2")).
//	    Build()
//	res, _ := cluster.Execute(context.Background(), q, skalla.SelectAll())
//	fmt.Println(res.Rel)
//	fmt.Println(res.Metrics)
package skalla

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"skalla/internal/agg"
	"skalla/internal/core"
	"skalla/internal/distrib"
	"skalla/internal/engine"
	"skalla/internal/expr"
	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/plan"
	"skalla/internal/relation"
	"skalla/internal/stats"
	"skalla/internal/transport"
)

// Re-exported data-model types. Relations are the unit of data loaded into
// sites and returned from queries.
type (
	// Value is a dynamically typed scalar (NULL, INT, FLOAT, STRING, BOOL).
	Value = relation.Value
	// Tuple is one row.
	Tuple = relation.Tuple
	// Column is a named, typed attribute.
	Column = relation.Column
	// Schema is an ordered set of columns.
	Schema = relation.Schema
	// Relation is an in-memory multiset of tuples.
	Relation = relation.Relation

	// Query is a complex GMDJ expression.
	Query = gmdj.Query
	// AggSpec is one aggregate in an operator's list.
	AggSpec = agg.Spec
	// Selection names a planner rule selection: a mode (none, all, auto) or
	// an explicit rule list. See WithPlanMode.
	Selection = plan.Selection
	// Plan is a compiled distributed evaluation plan (rule trace, cost
	// estimate, and fingerprint included).
	Plan = plan.Plan
	// Result bundles the result relation, cost metrics, the plan, and the
	// stitched execution profile.
	Result = core.Result
	// QueryProfile is the stitched per-round, per-site-call cost record of
	// one execution: coordinator envelope plus each site's own breakdown
	// (eval time, rows scanned, segment reads, codec bytes).
	QueryProfile = obs.QueryProfile
	// Metrics is the per-round cost breakdown of an execution.
	Metrics = stats.Metrics
	// NetModel converts measured traffic into modeled communication time.
	NetModel = stats.NetModel
	// RetryPolicy makes per-site calls survive transient failures: attempt
	// count, exponential backoff with jitter, per-attempt deadline. The zero
	// value disables retries.
	RetryPolicy = core.RetryPolicy
	// Catalog carries distribution knowledge for the optimizer.
	Catalog = distrib.Catalog
	// Distribution is per-relation distribution knowledge.
	Distribution = distrib.Distribution
)

// Value constructors.
var (
	// NewInt builds an INT value.
	NewInt = relation.NewInt
	// NewFloat builds a FLOAT value.
	NewFloat = relation.NewFloat
	// NewString builds a STRING value.
	NewString = relation.NewString
	// NewBool builds a BOOL value.
	NewBool = relation.NewBool
	// NewRelation builds an empty relation with the given schema.
	NewRelation = relation.New
	// NewSchema builds and validates a schema.
	NewSchema = relation.NewSchema
	// NewCatalog bundles distributions into a catalog.
	NewCatalog = distrib.NewCatalog
	// DefaultRetryPolicy is a production-shaped retry policy: three attempts,
	// 50 ms initial backoff capped at 2 s, 30 s per attempt.
	DefaultRetryPolicy = core.DefaultRetryPolicy

	// Planner rule selections (Egil v2). SelectAuto picks the structure rules
	// per query from the communication cost model.
	SelectNone = plan.SelectNone
	SelectAll  = plan.SelectAll
	SelectAuto = plan.SelectAuto
	// SelectRules applies exactly the named rules (see PlannerRules).
	SelectRules = plan.SelectRules
	// ParseSelection parses "auto", "none", "all", or "rules=a,b,...".
	ParseSelection = plan.ParseSelection
	// PlannerRules lists the registered rule names in canonical order.
	PlannerRules = plan.RuleNames
)

// Aggregate constructors for the query builder.

// Count is COUNT(*) named as.
func Count(as string) AggSpec { return AggSpec{Func: agg.Count, As: as} }

// CountCol is COUNT(col) (non-NULL count) named as.
func CountCol(col, as string) AggSpec { return AggSpec{Func: agg.Count, Arg: col, As: as} }

// Sum is SUM(col) named as.
func Sum(col, as string) AggSpec { return AggSpec{Func: agg.Sum, Arg: col, As: as} }

// Avg is AVG(col) named as. It is decomposed into SUM and COUNT
// sub-aggregates for distributed evaluation; the result relation carries the
// finalized average (plus as_sum and as_cnt physical columns mid-query).
func Avg(col, as string) AggSpec { return AggSpec{Func: agg.Avg, Arg: col, As: as} }

// Min is MIN(col) named as.
func Min(col, as string) AggSpec { return AggSpec{Func: agg.Min, Arg: col, As: as} }

// Max is MAX(col) named as.
func Max(col, as string) AggSpec { return AggSpec{Func: agg.Max, Arg: col, As: as} }

// Variance is the population variance of col named as, decomposed into
// SUM + sum-of-squares + COUNT sub-aggregates for distributed evaluation.
func Variance(col, as string) AggSpec { return AggSpec{Func: agg.Variance, Arg: col, As: as} }

// StdDev is the population standard deviation of col named as.
func StdDev(col, as string) AggSpec { return AggSpec{Func: agg.StdDev, Arg: col, As: as} }

// QueryBuilder assembles a complex GMDJ expression. Conditions use the text
// syntax of the paper's θ conditions: "B.col" references the base-values
// relation (including aggregates computed by earlier operators), "R.col" the
// detail relation; operators are = != < <= > >= + - * / % && || ! with
// AND/OR/NOT keywords accepted.
type QueryBuilder struct {
	q   gmdj.Query
	err error
}

// NewQuery starts a query: the base-values relation is the distinct
// projection of keyCols over the named detail relation.
func NewQuery(detail string, keyCols ...string) *QueryBuilder {
	return &QueryBuilder{q: gmdj.Query{Base: gmdj.BaseQuery{Detail: detail, Cols: keyCols}}}
}

// Where filters the detail rows feeding the base-values projection; the
// condition may reference only R columns.
func (b *QueryBuilder) Where(cond string) *QueryBuilder {
	if b.err != nil {
		return b
	}
	e, err := expr.Parse(cond)
	if err != nil {
		b.err = err
		return b
	}
	b.q.Base.Where = e
	return b
}

// Op appends an MD operator over the base detail relation with a single
// grouping variable: the given condition and aggregate list.
func (b *QueryBuilder) Op(cond string, aggs ...AggSpec) *QueryBuilder {
	return b.OpOn(b.q.Base.Detail, cond, aggs...)
}

// OpOn is Op against a different detail relation (the paper's R_k may vary
// per round).
func (b *QueryBuilder) OpOn(detail, cond string, aggs ...AggSpec) *QueryBuilder {
	if b.err != nil {
		return b
	}
	e, err := expr.Parse(cond)
	if err != nil {
		b.err = err
		return b
	}
	b.q.Ops = append(b.q.Ops, gmdj.Operator{Detail: detail, Vars: []gmdj.GroupVar{{Aggs: aggs, Cond: e}}})
	return b
}

// Var adds an additional grouping variable to the most recent operator
// (hand-coalescing per Sect. 4.3).
func (b *QueryBuilder) Var(cond string, aggs ...AggSpec) *QueryBuilder {
	if b.err != nil {
		return b
	}
	if len(b.q.Ops) == 0 {
		b.err = errors.New("skalla: Var before any Op")
		return b
	}
	e, err := expr.Parse(cond)
	if err != nil {
		b.err = err
		return b
	}
	last := &b.q.Ops[len(b.q.Ops)-1]
	last.Vars = append(last.Vars, gmdj.GroupVar{Aggs: aggs, Cond: e})
	return b
}

// Build returns the assembled query. Structural validation against the
// sites' schemas happens at planning time.
func (b *QueryBuilder) Build() (Query, error) {
	if b.err != nil {
		return Query{}, b.err
	}
	if len(b.q.Base.Cols) == 0 {
		return Query{}, errors.New("skalla: query needs at least one key column")
	}
	return b.q, nil
}

// MustBuild is Build but panics on error; for statically known queries.
func (b *QueryBuilder) MustBuild() Query {
	q, err := b.Build()
	if err != nil {
		panic(err)
	}
	return q
}

// Cluster is a Skalla deployment handle: the coordinator plus its sites.
type Cluster struct {
	coord *core.Coordinator
	sites []*transport.Client
	sel   plan.Selection
}

// ClusterOption configures cluster construction.
type ClusterOption func(*clusterConfig)

type clusterConfig struct {
	catalog       *distrib.Catalog
	net           stats.NetModel
	blockRows     int
	traceTo       io.Writer
	retry         core.RetryPolicy
	sel           plan.Selection
	selErr        error
	slowQuery     time.Duration
	planCache     int
	admit         bool
	maxConcurrent int
	queueDepth    int
	memBudget     int64
	resultCache   int
	singleFlight  bool
}

// configure applies the per-coordinator settings shared by every cluster
// constructor.
func (cfg *clusterConfig) configure(coord *core.Coordinator) {
	coord.SetRowBlocking(cfg.blockRows)
	coord.SetRetryPolicy(cfg.retry)
	coord.SetSlowQueryThreshold(cfg.slowQuery)
	coord.SetTrace(cfg.traceTo)
	if cfg.planCache > 0 {
		coord.SetPlanCache(cfg.planCache)
	}
	if cfg.admit {
		coord.SetAdmission(cfg.maxConcurrent, cfg.queueDepth)
	}
	if cfg.memBudget > 0 {
		coord.SetQueryMemBudget(cfg.memBudget)
	}
	if cfg.resultCache > 0 {
		coord.SetResultCache(cfg.resultCache)
	}
	if cfg.singleFlight {
		coord.SetSingleFlight(true)
	}
}

// WithCatalog attaches distribution knowledge, enabling the
// distribution-aware optimizations (Thm. 4, Cor. 1).
func WithCatalog(cat *Catalog) ClusterOption {
	return func(c *clusterConfig) { c.catalog = cat }
}

// WithNetModel attaches a deterministic network cost model used for the
// communication component of the reported response time.
func WithNetModel(m NetModel) ClusterOption {
	return func(c *clusterConfig) { c.net = m }
}

// WithRowBlocking makes sites return sub-aggregate relations in blocks of at
// most rows rows, which the coordinator synchronizes as they arrive
// (Sect. 3.2 row blocking). Zero disables blocking.
func WithRowBlocking(rows int) ClusterOption {
	return func(c *clusterConfig) { c.blockRows = rows }
}

// WithTrace streams execution progress — round starts, per-site exchanges,
// retried attempts, round completions — to the writer while queries run.
func WithTrace(w io.Writer) ClusterOption {
	return func(c *clusterConfig) { c.traceTo = w }
}

// WithSiteRetry makes the coordinator retry failed per-site calls under the
// given policy (see DefaultRetryPolicy). Retried streams are staged before
// synchronization, so a partial failure is re-run without double-counting.
// Without this option site failures fail the query immediately.
func WithSiteRetry(p RetryPolicy) ClusterOption {
	return func(c *clusterConfig) { c.retry = p }
}

// WithSlowQuery makes the coordinator log the full execution profile of any
// query slower than d (and count it in skalla_coord_slow_queries_total).
// Zero disables slow-query logging.
func WithSlowQuery(d time.Duration) ClusterOption {
	return func(c *clusterConfig) { c.slowQuery = d }
}

// WithPlanCache installs a prepared-plan cache of the given capacity on the
// coordinator: repeated statement texts reuse their compiled plan, skipping
// parse and optimize (in auto mode, the whole candidate enumeration). Entries
// are invalidated when the catalog generation moves. Zero or negative
// disables caching (the default).
func WithPlanCache(capacity int) ClusterOption {
	return func(c *clusterConfig) { c.planCache = capacity }
}

// WithMaxConcurrent bounds how many queries the coordinator executes at once:
// up to n run, up to 4n more wait in the admission queue (the wait is
// recorded in the query profile), and anything beyond that fails immediately
// with ErrAdmissionReject. n <= 0 bounds at GOMAXPROCS. Without this option
// admission control is off.
func WithMaxConcurrent(n int) ClusterOption {
	return func(c *clusterConfig) { c.admit, c.maxConcurrent, c.queueDepth = true, n, -1 }
}

// WithResultCache installs a super-aggregate result cache of the given
// capacity on the coordinator: repeat queries whose plan fingerprint matches
// a cached entry are served with zero site rounds. Entries are invalidated
// when the catalog generation moves — both at lookup and again before a
// finishing query commits, so a generation bump concurrent with an execution
// can never publish a stale result. Cache hits charge the per-query memory
// budget for the bytes they retain, exactly like an executed query. A cached
// result's rows are shared by every hit and read-only: each Result.Rel is the
// caller's own header, so re-slicing it is private, but Clone before writing
// cells or reordering in place. Zero or negative disables the cache (the
// default).
func WithResultCache(capacity int) ClusterOption {
	return func(c *clusterConfig) { c.resultCache = capacity }
}

// WithSingleFlight makes concurrent executions of plans with the same
// fingerprint collapse into one: a leader runs the distributed rounds on a
// context detached from any single caller's, and the others await its
// committed result (each receives its own header over the shared, read-only
// rows — Clone before writing cells or reordering in place — and charges its
// own memory budget). Off by default; Serve enables it for server
// deployments.
func WithSingleFlight() ClusterOption {
	return func(c *clusterConfig) { c.singleFlight = true }
}

// WithQueryMemBudget bounds the coordinator-side memory one query may hold
// (staged sub-aggregate blocks plus base-result growth, estimated at staging
// and merge boundaries). A query crossing the budget fails with
// ErrQueryMemBudget while concurrent queries keep running. Zero or negative
// disables the budget (the default).
func WithQueryMemBudget(bytes int64) ClusterOption {
	return func(c *clusterConfig) { c.memBudget = bytes }
}

// WithPlanMode sets the cluster's default rule selection from the textual
// plan-mode syntax: "auto" (cost-model-driven per query), "none", "all", or
// "rules=<name>,..." (see PlannerRules). ExecuteSelected plans under it;
// without this option it behaves like "all".
func WithPlanMode(mode string) ClusterOption {
	return func(c *clusterConfig) {
		sel, err := plan.ParseSelection(mode)
		if err != nil {
			c.selErr = err
			return
		}
		c.sel = sel
	}
}

// NewLocalCluster creates an in-process cluster of n empty sites. Load data
// with Load or LoadPartitions. Each site is served by the connection loop a
// TCP site runs, over an in-process pipe (transport.NewLocalSite), so metrics
// count the real wire bytes and rows, and each site serves one call at a
// time, as one TCP connection does. Close the cluster to end its sites.
func NewLocalCluster(n int, opts ...ClusterOption) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("skalla: cluster size %d", n)
	}
	return newCluster(opts, n, func(i int) (*transport.Client, error) {
		return transport.NewLocalSite(engine.NewSite(i)), nil
	})
}

// Connect dials remote Skalla site servers (started with skalla-site or
// transport.Serve) and returns a cluster over them.
func Connect(addrs []string, opts ...ClusterOption) (*Cluster, error) {
	if len(addrs) == 0 {
		return nil, errors.New("skalla: no site addresses")
	}
	return newCluster(opts, len(addrs), func(i int) (*transport.Client, error) {
		c, err := transport.Dial(addrs[i])
		if err != nil {
			return nil, fmt.Errorf("skalla: connect %s: %w", addrs[i], err)
		}
		return c, nil
	})
}

// newCluster connects sites 0..n-1 with connect and builds the coordinator
// over them; on failure it closes the sites it connected.
func newCluster(opts []ClusterOption, n int, connect func(int) (*transport.Client, error)) (*Cluster, error) {
	cfg := applyOptions(opts)
	if cfg.selErr != nil {
		return nil, cfg.selErr
	}
	cl := &Cluster{sel: cfg.sel}
	sites := make([]transport.Site, n)
	for i := range sites {
		s, err := connect(i)
		if err != nil {
			cl.Close()
			return nil, err
		}
		cl.sites = append(cl.sites, s)
		sites[i] = s
	}
	coord, err := core.New(sites, cfg.catalog, cfg.net)
	if err != nil {
		cl.Close()
		return nil, err
	}
	cfg.configure(coord)
	cl.coord = coord
	return cl, nil
}

func applyOptions(opts []ClusterOption) *clusterConfig {
	cfg := &clusterConfig{sel: plan.SelectAll()}
	for _, o := range opts {
		o(cfg)
	}
	return cfg
}

// NumSites returns the number of sites in the cluster.
func (c *Cluster) NumSites() int { return len(c.sites) }

// Load installs a relation partition at one site. The context bounds the
// transfer (for TCP-connected sites the partition crosses the wire).
func (c *Cluster) Load(ctx context.Context, site int, name string, rel *Relation) error {
	if site < 0 || site >= len(c.sites) {
		return fmt.Errorf("skalla: site %d of %d", site, len(c.sites))
	}
	return c.sites[site].Load(ctx, name, rel)
}

// LoadPartitions installs parts[i] at site i; len(parts) must match the
// cluster size.
func (c *Cluster) LoadPartitions(ctx context.Context, name string, parts []*Relation) error {
	if len(parts) != len(c.sites) {
		return fmt.Errorf("skalla: %d partitions for %d sites", len(parts), len(c.sites))
	}
	for i, p := range parts {
		if err := c.Load(ctx, i, name, p); err != nil {
			return err
		}
	}
	return nil
}

// LastProfiles returns up to n recently retained query profiles, newest
// first (all retained profiles when n <= 0). The ring is process-global and
// holds obs.DefaultProfileCapacity entries.
func LastProfiles(n int) []*QueryProfile {
	all := obs.Profiles.List()
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	return all
}

// ExecuteSelected evaluates a query under the cluster's configured plan mode
// (WithPlanMode; all rules when unconfigured).
func (c *Cluster) ExecuteSelected(ctx context.Context, q Query) (*Result, error) {
	return c.coord.ExecuteWith(ctx, q, c.sel)
}

// Execute evaluates a query under an explicit rule selection. The result
// carries the stitched execution profile (Result.Profile), which is also
// retained in the in-process ring served at /debug/queries (see
// LastProfiles).
func (c *Cluster) Execute(ctx context.Context, q Query, sel Selection) (*Result, error) {
	return c.coord.ExecuteWith(ctx, q, sel)
}

// TableInfo describes one relation at one site.
type TableInfo = engine.TableInfo

// Tables returns the per-site relation inventory: element i lists the
// relations (with row counts) that site i serves.
func (c *Cluster) Tables(ctx context.Context) ([][]TableInfo, error) {
	out := make([][]TableInfo, len(c.sites))
	for i, s := range c.sites {
		infos, err := s.Tables(ctx)
		if err != nil {
			return nil, err
		}
		out[i] = infos
	}
	return out, nil
}

// PlanWith compiles (without executing) a plan under an explicit rule
// selection, exposing the rule trace, cost estimate, and fingerprint;
// Plan.Describe renders it as the CLI's EXPLAIN output.
func (c *Cluster) PlanWith(ctx context.Context, q Query, sel Selection) (*Plan, error) {
	return c.coord.PlanWith(ctx, q, sel)
}

// Close releases the cluster's site connections, ending an in-process
// cluster's sites. Closing a closed cluster does nothing.
func (c *Cluster) Close() error {
	var first error
	for _, s := range c.sites {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
