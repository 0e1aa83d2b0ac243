package skalla

import (
	"context"
	"strings"
	"testing"

	"skalla/internal/flow"
	"skalla/internal/gmdj"
	"skalla/internal/obs"
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
	for _, opts := range []Options{NoOptimizations(), AllOptimizations()} {
		res, err := cl.Execute(context.Background(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Rel.EqualMultiset(want) {
			t.Errorf("[%s]: facade result mismatch", opts)
		}
		if res.Metrics.NumRounds() == 0 {
			t.Error("metrics missing rounds")
		}
	}
	// The optimized plan for this aligned query is fully local.
	explain, err := cl.Explain(context.Background(), q, AllOptimizations())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explain, "full local") {
		t.Errorf("Explain:\n%s", explain)
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
	res, err := cl.Execute(context.Background(), q, AllOptimizations())
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
	res, err := cl.Execute(context.Background(), q, NoOptimizations())
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := res.Rel.Schema.MustIndex("c1"), res.Rel.Schema.MustIndex("c2")
	for _, row := range res.Rel.Tuples {
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
	res, err := cl.Execute(context.Background(), q, AllOptimizations())
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

func TestSerializedTransportOption(t *testing.T) {
	d, _ := flow.Generate(flow.Config{Rows: 300, Routers: 2, SourceAS: 10, DestAS: 5, Seed: 9})
	cl, err := NewLocalCluster(2, WithSerializedTransport(), WithCatalog(d.Catalog()))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.LoadPartitions(context.Background(), "Flow", d.Parts); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Execute(context.Background(), flowQuery(t), NoOptimizations())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.TotalBytes() == 0 {
		t.Error("serialized transport must count bytes")
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
	res, err := cl.Execute(context.Background(), q, AllOptimizations())
	if err != nil {
		t.Fatal(err)
	}
	want, err := gmdj.EvalCentral(q, gmdj.Data{tpc.RelationName: d.Global()}, true)
	if err != nil {
		t.Fatal(err)
	}
	// avgPrice is a float: the streaming merge sums partials in arrival
	// order, so compare with a relative tolerance.
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
// back to the scalar scan costs the round its slowest site.
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
			for _, call := range round.Calls {
				if call.Breakdown == nil || !call.Breakdown.Kernel {
					t.Errorf("%s: round %s, site %d: breakdown %+v does not report the kernel", stmt, round.Name, call.Site, call.Breakdown)
				}
			}
		}
	}
}

func scalarScans() int64 {
	n := int64(0)
	for _, reason := range []string{"source", "shape", "kind"} {
		n += obs.EngineScanPath.With("scalar", reason).Value()
	}
	return n
}

// A tiered facade cluster must agree with a flat one on the same partitions.
func TestTieredLocalCluster(t *testing.T) {
	d, err := flow.Generate(flow.Config{Rows: 1200, Routers: 4, SourceAS: 20, DestAS: 6, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := NewLocalCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()
	tiered, err := NewTieredLocalCluster(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer tiered.Close()
	if tiered.NumSites() != 2 || tiered.NumLeafSites() != 4 {
		t.Fatalf("tiered shape: %d sites, %d leaves", tiered.NumSites(), tiered.NumLeafSites())
	}
	for _, cl := range []*Cluster{flat, tiered} {
		if err := cl.LoadPartitions(context.Background(), "Flow", d.Parts); err != nil {
			t.Fatal(err)
		}
	}
	q := flowQuery(t)
	a, err := flat.Execute(context.Background(), q, NoOptimizations())
	if err != nil {
		t.Fatal(err)
	}
	b, err := tiered.Execute(context.Background(), q, NoOptimizations())
	if err != nil {
		t.Fatal(err)
	}
	if !a.Rel.EqualMultiset(b.Rel) {
		t.Error("tiered facade mismatch")
	}
	// Invalid shapes.
	if _, err := NewTieredLocalCluster(2, 4); err == nil {
		t.Error("more relays than leaves must error")
	}
	if _, err := NewTieredLocalCluster(0, 0); err == nil {
		t.Error("zero sizes must error")
	}
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
