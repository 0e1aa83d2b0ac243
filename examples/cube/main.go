// Data cube over a distributed warehouse: the paper (Sect. 2.2) argues that
// the GMDJ operator uniformly expresses the OLAP constructs of the
// literature, including Gray et al.'s CUBE BY. This example computes a
// three-dimensional sales cube over the partitioned TPCR relation in a
// single distributed GMDJ round, then a rollup and a marginal distribution
// via unpivot.
package main

import (
	"context"
	"fmt"
	"log"

	"skalla"
	"skalla/internal/tpc"
)

func main() {
	dataset, err := tpc.Generate(tpc.Config{
		Rows: 20000, Customers: 4000, Nations: 25,
		CitiesPerNation: 120, Clerks: 500, Seed: 5,
	}, 4)
	if err != nil {
		log.Fatal(err)
	}
	catalog, err := dataset.Catalog(4)
	if err != nil {
		log.Fatal(err)
	}
	cluster, err := skalla.NewLocalCluster(4, skalla.WithCatalog(catalog))
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.LoadPartitions(context.Background(), tpc.RelationName, dataset.Parts); err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// CUBE BY (RegionKey, MktSegment, ShipMode): 2³ grouping sets, NULL
	// marks a rolled-up dimension.
	dims := []string{"RegionKey", "MktSegment", "ShipMode"}
	cube, err := skalla.CubeQuery(tpc.RelationName, dims,
		skalla.Count("orders"), skalla.Sum("ExtendedPrice", "revenue"))
	if err != nil {
		log.Fatal(err)
	}
	res, err := cluster.Execute(ctx, cube, skalla.SelectAll())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cube: %d cells in %d synchronization round(s), %d bytes moved\n",
		res.Rel.Len(), res.Metrics.NumRounds(), res.Metrics.TotalBytes())
	// Show the grand total and the per-region rollups.
	ri := res.Rel.Schema.MustIndex("RegionKey")
	mi := res.Rel.Schema.MustIndex("MktSegment")
	si := res.Rel.Schema.MustIndex("ShipMode")
	fmt.Println("rollup cells (MktSegment and ShipMode rolled up):")
	for _, row := range res.Rel.Rows() {
		if row[mi].IsNull() && row[si].IsNull() {
			fmt.Printf("  region=%-5v orders=%-6v revenue=%.0f\n",
				row[ri], row[res.Rel.Schema.MustIndex("orders")],
				row[res.Rel.Schema.MustIndex("revenue")].Float)
		}
	}

	// ROLLUP (RegionKey, MktSegment): hierarchy subtotals only.
	rollup, err := skalla.RollupQuery(tpc.RelationName, []string{"RegionKey", "MktSegment"},
		skalla.Count("orders"))
	if err != nil {
		log.Fatal(err)
	}
	rres, err := cluster.Execute(ctx, rollup, skalla.SelectAll())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrollup: %d cells (leaves + region subtotals + grand total)\n", rres.Rel.Len())

	// Marginal distributions via unpivot: how often each value of
	// MktSegment and ShipMode occurs, as one distributed query over the
	// unpivoted relation.
	for i, part := range dataset.Parts {
		up, err := skalla.Unpivot(part, nil, []string{"MktSegment", "ShipMode"})
		if err != nil {
			log.Fatal(err)
		}
		if err := cluster.Load(context.Background(), i, "UP", up); err != nil {
			log.Fatal(err)
		}
	}
	mres, err := cluster.Execute(ctx, skalla.MarginalsQuery("UP"), skalla.SelectAll())
	if err != nil {
		log.Fatal(err)
	}
	mres.Rel.Sort()
	fmt.Printf("\nmarginal distributions (%d attribute/value pairs):\n%s", mres.Rel.Len(), mres.Rel.Format(12))
}
