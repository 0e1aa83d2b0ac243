// Quickstart: build an in-process Skalla cluster over synthetic IP-flow
// data, run the paper's Example 1 query (per source/destination AS pair, the
// total number of flows and the number of flows whose byte count exceeds the
// pair's average), and show what the optimizer does with it.
package main

import (
	"context"
	"fmt"
	"log"

	"skalla"
	"skalla/internal/flow"
)

func main() {
	// Generate a deterministic flow trace partitioned across 4 routers;
	// each router's flows live at the adjacent warehouse site.
	trace, err := flow.Generate(flow.Config{
		Rows: 20000, Routers: 4, SourceAS: 50, DestAS: 20, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}

	// One in-process site per router, plus the distribution catalog (which
	// attributes are partition-aligned) that powers the Sect. 4 optimizations.
	cluster, err := skalla.NewLocalCluster(4, skalla.WithCatalog(trace.Catalog()))
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.LoadPartitions(context.Background(), "Flow", trace.Parts); err != nil {
		log.Fatal(err)
	}

	// The paper's Example 1 as a complex GMDJ expression.
	query, err := skalla.NewQuery("Flow", "SourceAS", "DestAS").
		Op("B.SourceAS = R.SourceAS && B.DestAS = R.DestAS",
			skalla.Count("cnt1"), skalla.Sum("NumBytes", "sum1")).
		Op("B.SourceAS = R.SourceAS && B.DestAS = R.DestAS && R.NumBytes >= B.sum1 / B.cnt1",
			skalla.Count("cnt2")).
		Build()
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()

	pl, err := cluster.PlanWith(ctx, query, skalla.SelectAll())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("optimized plan:")
	fmt.Print(pl.Describe())

	res, err := cluster.Execute(ctx, query, skalla.SelectAll())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d (SourceAS, DestAS) groups; first rows:\n%s\n", res.Rel.Len(), res.Rel.Format(8))
	fmt.Println("cost breakdown:")
	fmt.Print(res.Metrics)

	// The same query without optimizations needs three synchronization
	// rounds instead of one.
	baseline, err := cluster.Execute(ctx, query, skalla.SelectNone())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbaseline: %d rounds and %d rows transferred; optimized: %d rounds and %d rows\n",
		baseline.Metrics.NumRounds(), baseline.Metrics.TotalRows(),
		res.Metrics.NumRounds(), res.Metrics.TotalRows())
}
