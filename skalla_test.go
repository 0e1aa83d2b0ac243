package skalla

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"skalla/internal/flow"
	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/plan"
	"skalla/internal/stats"
	"skalla/internal/tpc"
	"skalla/internal/transport"

	"skalla/internal/engine"
)

func flowQuery(t *testing.T) Query {
	t.Helper()
	q, err := NewQuery("Flow", "SourceAS", "DestAS").
		Op("B.SourceAS = R.SourceAS && B.DestAS = R.DestAS",
			Count("cnt1"), Sum("NumBytes", "sum1")).
		Op("B.SourceAS = R.SourceAS && B.DestAS = R.DestAS && R.NumBytes >= B.sum1 / B.cnt1",
			Count("cnt2")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func loadedFlowCluster(t *testing.T, opts ...ClusterOption) (*Cluster, *flow.Dataset) {
	t.Helper()
	d, err := flow.Generate(flow.Config{Rows: 2000, Routers: 3, SourceAS: 30, DestAS: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewLocalCluster(3, append([]ClusterOption{WithCatalog(d.Catalog())}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if err := cl.LoadPartitions(context.Background(), "Flow", d.Parts); err != nil {
		t.Fatal(err)
	}
	return cl, d
}

// The facade end-to-end: Example 1 of the paper through the public API,
// checked against the centralized oracle.
func TestFacadeEndToEnd(t *testing.T) {
	cl, d := loadedFlowCluster(t)
	defer cl.Close()
	q := flowQuery(t)
	want, err := gmdj.EvalCentral(q, gmdj.Data{"Flow": d.Global()}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, sel := range []Selection{SelectNone(), SelectAll()} {
		res, err := cl.Execute(context.Background(), q, sel)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Rel.EqualMultiset(want) {
			t.Errorf("[%s]: facade result mismatch", sel)
		}
		if res.Metrics.NumRounds() == 0 {
			t.Error("metrics missing rounds")
		}
	}
	// The optimized plan for this aligned query is fully local.
	pl, err := cl.PlanWith(context.Background(), q, SelectAll())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pl.Describe(), "full local") {
		t.Errorf("Describe:\n%s", pl.Describe())
	}
}

func TestQueryBuilderErrors(t *testing.T) {
	if _, err := NewQuery("Flow").Build(); err == nil {
		t.Error("missing key columns must error")
	}
	if _, err := NewQuery("Flow", "a").Op("not a ( condition", Count("c")).Build(); err == nil {
		t.Error("unparseable condition must error")
	}
	if _, err := NewQuery("Flow", "a").Where("((").Build(); err == nil {
		t.Error("unparseable filter must error")
	}
	if _, err := NewQuery("Flow", "a").Var("true", Count("c")).Build(); err == nil {
		t.Error("Var before Op must error")
	}
	// Errors are sticky: later calls keep the first error.
	b := NewQuery("Flow", "a").Op("((", Count("c")).Op("true", Count("d"))
	if _, err := b.Build(); err == nil {
		t.Error("sticky error lost")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustBuild must panic on error")
			}
		}()
		NewQuery("Flow").MustBuild()
	}()
}

func TestQueryBuilderVarAndWhere(t *testing.T) {
	q, err := NewQuery("Flow", "SourceAS").
		Where("R.NumBytes > 0").
		Op("B.SourceAS = R.SourceAS", Count("c1"), Avg("NumBytes", "a1"), Min("NumBytes", "mn"), Max("NumBytes", "mx"), CountCol("DestAS", "cc")).
		Var("B.SourceAS = R.DestAS", Count("c2")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Ops) != 1 || len(q.Ops[0].Vars) != 2 {
		t.Fatalf("builder shape: %d ops, %d vars", len(q.Ops), len(q.Ops[0].Vars))
	}
	if q.Base.Where == nil {
		t.Error("Where lost")
	}
	cl, _ := loadedFlowCluster(t)
	defer cl.Close()
	res, err := cl.Execute(context.Background(), q, SelectAll())
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"c1", "a1", "mn", "mx", "cc", "c2"} {
		if !res.Rel.Schema.Has(col) {
			t.Errorf("result missing %q: %s", col, res.Rel.Schema)
		}
	}
}

func TestOpOnDifferentRelation(t *testing.T) {
	cl, d := loadedFlowCluster(t)
	defer cl.Close()
	// Load a second relation: the same flows under another name.
	if err := cl.LoadPartitions(context.Background(), "Flow2", d.Parts); err != nil {
		t.Fatal(err)
	}
	q, err := NewQuery("Flow", "SourceAS").
		Op("B.SourceAS = R.SourceAS", Count("c1")).
		OpOn("Flow2", "B.SourceAS = R.SourceAS", Count("c2")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Execute(context.Background(), q, SelectNone())
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := res.Rel.Schema.MustIndex("c1"), res.Rel.Schema.MustIndex("c2")
	for _, row := range res.Rel.Rows() {
		if !row[c1].Equal(row[c2]) {
			t.Fatalf("same data under two names must agree: %v", row)
		}
	}
}

func TestClusterErrors(t *testing.T) {
	if _, err := NewLocalCluster(0); err == nil {
		t.Error("zero sites must error")
	}
	cl, err := NewLocalCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.NumSites() != 2 {
		t.Errorf("NumSites = %d", cl.NumSites())
	}
	rel := NewRelation(Schema{Column{Name: "x", Kind: 1}})
	if err := cl.Load(context.Background(), 5, "T", rel); err == nil {
		t.Error("out-of-range site must error")
	}
	if err := cl.LoadPartitions(context.Background(), "T", []*Relation{rel}); err == nil {
		t.Error("partition count mismatch must error")
	}
	if _, err := Connect(nil); err == nil {
		t.Error("empty address list must error")
	}
	if _, err := Connect([]string{"127.0.0.1:1"}); err == nil {
		t.Error("unreachable site must error")
	}
}

func TestConnectTCP(t *testing.T) {
	d, err := flow.Generate(flow.Config{Rows: 500, Routers: 2, SourceAS: 10, DestAS: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		srv, err := transport.Serve(engine.NewSite(i), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}
	cl, err := Connect(addrs, WithCatalog(d.Catalog()), WithNetModel(NetModel{}))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.LoadPartitions(context.Background(), "Flow", d.Parts); err != nil {
		t.Fatal(err)
	}
	q := flowQuery(t)
	want, err := gmdj.EvalCentral(q, gmdj.Data{"Flow": d.Global()}, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Execute(context.Background(), q, SelectAll())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rel.EqualMultiset(want) {
		t.Error("TCP cluster result mismatch")
	}
	if res.Metrics.TotalBytes() == 0 {
		t.Error("TCP transport must count bytes")
	}
}

// TestLocalClusterCountsTheWire: NewLocalCluster's bytes, down and up, are
// round for round those of a Connect cluster over loopback sites holding the
// same partitions, for the quickstart statement (the paper's Example 1 over
// the flow trace) and for every served statement over TPCR, under none, all,
// auto and each planner rule alone, so every kind of round is counted.
func TestLocalClusterCountsTheWire(t *testing.T) {
	fd, err := flow.Generate(flow.Config{Rows: 300, Routers: 2, SourceAS: 10, DestAS: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	td, err := tpc.Generate(tpc.Config{Rows: 1500, Customers: 400, Nations: 25, CitiesPerNation: 4, Clerks: 40, Seed: 6}, 2)
	if err != nil {
		t.Fatal(err)
	}
	tcat, err := td.Catalog(2)
	if err != nil {
		t.Fatal(err)
	}
	var served []Query
	for _, stmt := range servedStatements() {
		parse := ParseQueryText
		if strings.HasPrefix(stmt, "SELECT") {
			parse = TranslateSQL
		}
		q, err := parse(stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		served = append(served, q)
	}
	sels := []Selection{SelectNone(), SelectAll(), SelectAuto()}
	for _, r := range PlannerRules() {
		sels = append(sels, SelectRules(r))
	}
	for _, c := range []struct {
		name, rel string
		parts     []*Relation
		cat       *Catalog
		qs        []Query
	}{
		{"quickstart", "Flow", fd.Parts, fd.Catalog(), []Query{flowQuery(t)}},
		{"served", tpc.RelationName, td.Parts, tcat, served},
	} {
		var addrs []string
		for i := range c.parts {
			srv, err := transport.Serve(engine.NewSite(i), "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			addrs = append(addrs, srv.Addr())
		}
		remote, err := Connect(addrs, WithCatalog(c.cat))
		if err != nil {
			t.Fatal(err)
		}
		defer remote.Close()
		local, err := NewLocalCluster(len(c.parts), WithCatalog(c.cat))
		if err != nil {
			t.Fatal(err)
		}
		defer local.Close()
		for _, cl := range []*Cluster{remote, local} {
			if err := cl.LoadPartitions(context.Background(), c.rel, c.parts); err != nil {
				t.Fatal(err)
			}
		}
		// One query ID for every run keeps the metric families below their
		// series cap, which later tests read per site.
		ctx := obs.WithQueryID(context.Background(), "local-cluster-wire")
		for qi, q := range c.qs {
			t.Run(fmt.Sprintf("%s %d", c.name, qi), func(t *testing.T) {
				for _, sel := range sels {
					t.Run(sel.String(), func(t *testing.T) {
						want, err := remote.Execute(ctx, q, sel)
						if err != nil {
							t.Fatal(err)
						}
						got, err := local.Execute(ctx, q, sel)
						if err != nil {
							t.Fatal(err)
						}
						if len(got.Metrics.Rounds) != len(want.Metrics.Rounds) || got.Metrics.TotalBytesUp() == 0 {
							t.Fatalf("local rounds\n%s\nTCP rounds\n%s", got.Metrics, want.Metrics)
						}
						for i, w := range want.Metrics.Rounds {
							if g := got.Metrics.Rounds[i]; g.BytesDown() != w.BytesDown() || g.BytesUp() != w.BytesUp() {
								t.Errorf("round %s: %d B down, %d B up in process; %d and %d over TCP",
									w.Name, g.BytesDown(), g.BytesUp(), w.BytesDown(), w.BytesUp())
							}
						}
					})
				}
			})
		}
	}
}

// TestLocalClusterCallsReachTransportMetrics: every site call of a
// NewLocalCluster query reaches the transport families: one call and its rows
// for each call the profile lists, its bytes down and up under the query's
// label, and a compute time for every call, the catalog's schema lookups too.
// The schema lookups are planning metadata, in no round of the profile, so
// their bytes are not the query's.
func TestLocalClusterCallsReachTransportMetrics(t *testing.T) {
	d, err := flow.Generate(flow.Config{Rows: 300, Routers: 2, SourceAS: 10, DestAS: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewLocalCluster(2, WithCatalog(d.Catalog()))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.LoadPartitions(context.Background(), "Flow", d.Parts); err != nil {
		t.Fatal(err)
	}
	// The query runs under a fixed ID and every family is read as a delta,
	// which holds only below a family's series cap (maxSeriesPerFamily, 1 024
	// label sets): past it, every new label set shares the one overflow
	// series, which other tests' counts also reach. A test running many
	// queries must reuse one query ID, as TestLocalClusterCountsTheWire does.
	q := "local-cluster-calls"
	type reading struct{ calls, schemaCalls, computes, rowsUp, bytesDown, bytesUp int64 }
	read := func(site string) reading {
		r := reading{schemaCalls: obs.TransportCalls.With(site, "schema").Value(),
			computes:  obs.SiteCompute.With(site).Count(),
			rowsUp:    obs.TransportRows.With(site, "up", q).Value(),
			bytesDown: obs.TransportBytes.With(site, "down", q).Value(), bytesUp: obs.TransportBytes.With(site, "up", q).Value()}
		for _, kind := range []string{"base", "operator", "local"} {
			r.calls += obs.TransportCalls.With(site, kind).Value()
		}
		return r
	}
	sites := []string{"0", "1"}
	before := []reading{read(sites[0]), read(sites[1])}
	res, err := cl.Execute(obs.WithQueryID(context.Background(), q), flowQuery(t), SelectNone())
	if err != nil {
		t.Fatal(err)
	}
	want := make([]reading, len(sites))
	for _, round := range res.Profile.Rounds {
		for _, call := range round.Calls {
			w := &want[call.Site]
			w.calls++
			w.rowsUp += int64(call.RowsUp)
			w.bytesDown += int64(call.BytesDown)
			w.bytesUp += int64(call.BytesUp)
		}
	}
	for i, site := range sites {
		after := read(site)
		calls, rowsUp := after.calls-before[i].calls, after.rowsUp-before[i].rowsUp
		if calls != want[i].calls || rowsUp != want[i].rowsUp || calls == 0 {
			t.Errorf("site %s: %d calls and %d rows up counted, the profile lists %d calls and %d rows",
				site, calls, rowsUp, want[i].calls, want[i].rowsUp)
		}
		down, up := after.bytesDown-before[i].bytesDown, after.bytesUp-before[i].bytesUp
		if down != want[i].bytesDown || up != want[i].bytesUp || up == 0 {
			t.Errorf("site %s: %d B down and %d B up counted, the profile's calls sum to %d and %d",
				site, down, up, want[i].bytesDown, want[i].bytesUp)
		}
		all := calls + after.schemaCalls - before[i].schemaCalls
		if n := after.computes - before[i].computes; n != all {
			t.Errorf("site %s: %d compute observations for %d calls", site, n, all)
		}
	}
}

func TestTPCDatasetThroughFacade(t *testing.T) {
	d, err := tpc.Generate(tpc.Config{Rows: 1500, Customers: 400, Nations: 25, CitiesPerNation: 4, Clerks: 40, Seed: 6}, 4)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := d.Catalog(4)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewLocalCluster(4, WithCatalog(cat))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.LoadPartitions(context.Background(), tpc.RelationName, d.Parts); err != nil {
		t.Fatal(err)
	}
	q, err := NewQuery(tpc.RelationName, "CustName").
		Op("B.CustName = R.CustName", Count("orders"), Avg("ExtendedPrice", "avgPrice")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Execute(context.Background(), q, SelectAll())
	if err != nil {
		t.Fatal(err)
	}
	want, err := gmdj.EvalCentral(q, gmdj.Data{tpc.RelationName: d.Global()}, true)
	if err != nil {
		t.Fatal(err)
	}
	// avgPrice is a float: the sites' partial sums group it otherwise than
	// the centralized scan does, so compare with a relative tolerance.
	if !res.Rel.EqualMultisetApprox(want, 1e-9) {
		t.Error("TPC facade result mismatch")
	}
}

// servedStatements are the statement shapes of benchmark/workloads.go, copied
// as text because the benchmark is a module of its own: paperMix's templates
// (example1 over each group column it is served with, fig3_clerk_independent,
// cube_3d, rollup_geo, example1_text) at one literal, and one of dashboard()'s
// "WHERE Quantity >= k GROUP BY g" statements per group column.
func servedStatements() []string {
	var stmts []string
	for _, g := range []string{"MktSegment", "ShipMode", "OrderPriority", "RegionKey", "NationKey", "CustName", "CityKey", "Clerk"} {
		stmts = append(stmts, "SELECT "+g+", COUNT(*) AS cnt, AVG(ExtendedPrice) AS avgp FROM TPCR WHERE Discount >= 0.005 GROUP BY "+g+" HAVING EACH ExtendedPrice >= avgp")
	}
	stmts = append(stmts,
		"SELECT Clerk, COUNT(*) AS cnt, AVG(ExtendedPrice) AS avgp FROM TPCR WHERE Discount >= 0.005 GROUP BY Clerk HAVING EACH Discount >= 0.05",
		"SELECT MktSegment, ShipMode, OrderPriority, COUNT(*) AS cnt, SUM(ExtendedPrice) AS total FROM TPCR WHERE Discount >= 0.005 CUBE BY MktSegment, ShipMode, OrderPriority",
		"SELECT RegionKey, NationKey, CityKey, COUNT(*) AS cnt, SUM(ExtendedPrice) AS total FROM TPCR WHERE Discount >= 0.005 ROLLUP BY RegionKey, NationKey, CityKey",
		"base TPCR key NationKey\nwhere R.Discount >= 0.005\nop B.NationKey = R.NationKey :: count(*) as cnt, avg(ExtendedPrice) as avgp\nop B.NationKey = R.NationKey && R.ExtendedPrice >= B.avgp :: count(*) as matching",
	)
	for _, g := range []string{"NationKey", "CityKey", "Clerk"} {
		stmts = append(stmts, "SELECT "+g+", COUNT(*) AS cnt, SUM(ExtendedPrice) AS total FROM TPCR WHERE Quantity >= 20 GROUP BY "+g)
	}
	return stmts
}

// Every statement shape the served benchmark runs must make every site pass
// on the compiled kernels — filtered plain and grouping-set bases, pure links,
// links beside comparisons against literals and earlier aggregates, rollup
// links, string and integer keys — under the rule selection a server session
// plans with, and still equal the centralized evaluation. A shape that falls
// back to the scalar scan costs the round its slowest site. Each site decodes
// the coordinator's X fragment from its frame, as a networked site does.
func TestServedTemplatesStayCompiled(t *testing.T) {
	d, err := tpc.Generate(tpc.Config{Rows: 3000, Customers: 400, Nations: 25, CitiesPerNation: 4, Clerks: 40, Seed: 6}, 4)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := d.Catalog(4)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewLocalCluster(4, WithCatalog(cat))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.LoadPartitions(context.Background(), tpc.RelationName, d.Parts); err != nil {
		t.Fatal(err)
	}
	for _, stmt := range servedStatements() {
		parse := ParseQueryText
		if strings.HasPrefix(stmt, "SELECT") {
			parse = TranslateSQL
		}
		q, err := parse(stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		want, err := gmdj.EvalCentral(q, gmdj.Data{tpc.RelationName: d.Global()}, true)
		if err != nil {
			t.Fatal(err)
		}
		kernel, scalar := obs.EngineScanPath.With("kernel", "ok").Value(), scalarScans()
		res, _, err := cl.queryStatement(context.Background(), stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		if !res.Rel.EqualMultisetApprox(want, 1e-9) {
			t.Errorf("%s: result differs from the centralized evaluation", stmt)
		}
		if got := obs.EngineScanPath.With("kernel", "ok").Value() - kernel; got == 0 {
			t.Errorf("%s: no kernel pass counted", stmt)
		}
		if got := scalarScans() - scalar; got != 0 {
			t.Errorf("%s: %d passes fell back to the scalar path", stmt, got)
		}
		for _, round := range res.Profile.Rounds {
			passes := localPasses(q, round.Name)
			for _, call := range round.Calls {
				if call.Breakdown == nil || !call.Breakdown.Kernel {
					t.Errorf("%s: round %s, site %d: breakdown %+v does not report the kernel", stmt, round.Name, call.Site, call.Breakdown)
					continue
				}
				if want := passes * int64(d.Parts[call.Site].Len()); passes > 0 && call.Breakdown.RowsScanned != want {
					t.Errorf("%s: round %s, site %d: scanned %d rows, want %d (%d passes)", stmt, round.Name, call.Site, call.Breakdown.RowsScanned, want, passes)
				}
			}
		}
	}
}

// localPasses is how many detail passes a site makes in the local round
// named round of q, 0 for a round of another kind: one for the base and MD1,
// which fold into one pass unless the base has grouping sets, and one per
// grouping variable of every later operator the round evaluates.
func localPasses(q gmdj.Query, round string) int64 {
	upTo := 0
	switch {
	case round == "base+MD1":
		upTo = 1
	case round == "local-all":
		upTo = len(q.Ops)
	case strings.HasPrefix(round, "local-MD1..MD"):
		upTo, _ = strconv.Atoi(strings.TrimPrefix(round, "local-MD1..MD"))
	default:
		return 0
	}
	passes := int64(1)
	if len(q.Base.GroupingSets) > 0 {
		passes += int64(len(q.Ops[0].Vars))
	}
	for _, op := range q.Ops[1:upTo] {
		passes += int64(len(op.Vars))
	}
	return passes
}

// Auto's estimate on every served statement, over the four-site TPC
// catalog, is the minimum over all 2^6 rule subsets: compiling the structure
// rule subsets with every annotation reaches what the exhaustive search does.
func TestAutoMatchesSubsetOracleOnServedTemplates(t *testing.T) {
	d, err := tpc.Generate(tpc.Config{Rows: 3000, Customers: 400, Nations: 25, CitiesPerNation: 4, Clerks: 40, Seed: 6}, 4)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := d.Catalog(4)
	if err != nil {
		t.Fatal(err)
	}
	src := gmdj.Schemas{tpc.RelationName: tpc.Schema()}
	model := plan.DefaultCostModel(stats.DefaultLAN())
	names := plan.RuleNames()
	for _, stmt := range servedStatements() {
		parse := ParseQueryText
		if strings.HasPrefix(stmt, "SELECT") {
			parse = TranslateSQL
		}
		q, err := parse(stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		auto, err := plan.Compile(q, src, cat, 4, plan.SelectAuto(), model)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		var best *plan.Plan
		for mask := 0; mask < 1<<len(names); mask++ {
			var rules []string
			for i, n := range names {
				if mask&(1<<i) != 0 {
					rules = append(rules, n)
				}
			}
			p, err := plan.Compile(q, src, cat, 4, plan.SelectRules(rules...), model)
			if err != nil {
				t.Fatalf("%s under %v: %v", stmt, rules, err)
			}
			if best == nil || p.Estimate.Compare(best.Estimate) < 0 {
				best = p
			}
		}
		if auto.Estimate.Compare(best.Estimate) != 0 {
			t.Errorf("%s: auto estimates %s (rules %v), the best subset %s (rules %v)",
				stmt, auto.Estimate, auto.Rules, best.Estimate, best.Rules)
		}
	}
}

func scalarScans() int64 {
	n := int64(0)
	for _, reason := range []string{"shape", "kind"} {
		n += obs.EngineScanPath.With("scalar", reason).Value()
	}
	return n
}

func TestClusterTables(t *testing.T) {
	cl, d := loadedFlowCluster(t)
	defer cl.Close()
	inv, err := cl.Tables(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(inv) != 3 {
		t.Fatalf("sites = %d", len(inv))
	}
	total := 0
	for i, tables := range inv {
		if len(tables) != 1 || tables[0].Name != "Flow" {
			t.Errorf("site %d inventory = %+v", i, tables)
		}
		total += tables[0].Rows
	}
	if total != d.Global().Len() {
		t.Errorf("inventory rows = %d, want %d", total, d.Global().Len())
	}
}
