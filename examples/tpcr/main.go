// TPC-R style retail analytics over a distributed warehouse: the evaluation
// scenario of the paper's Sect. 5. The TPCR fact relation is partitioned on
// NationKey across four sites; customer-level analyses group on attributes
// that are (CustName) or are not (Clerk) aligned with that partitioning, and
// the optimizer's behaviour differs accordingly — exactly the effect the
// paper's figures measure.
package main

import (
	"context"
	"fmt"
	"log"

	"skalla"
	"skalla/internal/stats"
	"skalla/internal/tpc"
)

func main() {
	dataset, err := tpc.Generate(tpc.Config{
		Rows: 40000, Customers: 8000, Nations: 25,
		CitiesPerNation: 120, Clerks: 3000, Seed: 11,
	}, 4)
	if err != nil {
		log.Fatal(err)
	}
	catalog, err := dataset.Catalog(4)
	if err != nil {
		log.Fatal(err)
	}
	cluster, err := skalla.NewLocalCluster(4,
		skalla.WithCatalog(catalog),
		skalla.WithNetModel(stats.DefaultLAN()),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.LoadPartitions(context.Background(), tpc.RelationName, dataset.Parts); err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// Per-customer order statistics plus the count of line items priced
	// above the customer's average — the correlated two-operator query of
	// the Sect. 5 experiments.
	custQ, err := skalla.NewQuery(tpc.RelationName, "CustName").
		Op("B.CustName = R.CustName",
			skalla.Count("items"), skalla.Avg("ExtendedPrice", "avgPrice")).
		Op("B.CustName = R.CustName && R.ExtendedPrice >= B.avgPrice",
			skalla.Count("premiumItems")).
		Build()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== customer analysis (grouping attribute IS partition-aligned) ===")
	compare(ctx, cluster, custQ)

	// The same analysis per clerk: Clerk is spread over every site, so sync
	// reduction cannot apply and groups genuinely merge across sites.
	clerkQ, err := skalla.NewQuery(tpc.RelationName, "Clerk").
		Op("B.Clerk = R.Clerk",
			skalla.Count("items"), skalla.Avg("ExtendedPrice", "avgPrice")).
		Op("B.Clerk = R.Clerk && R.ExtendedPrice >= B.avgPrice",
			skalla.Count("premiumItems")).
		Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n=== clerk analysis (grouping attribute NOT partition-aligned) ===")
	compare(ctx, cluster, clerkQ)
}

// compare executes a query under increasing optimization levels and prints
// the resulting rounds/traffic/response table.
func compare(ctx context.Context, cluster *skalla.Cluster, q skalla.Query) {
	levels := []struct {
		name string
		sel  skalla.Selection
	}{
		{"none", skalla.SelectNone()},
		{"group reductions", skalla.SelectRules("group-reduce-coord", "group-reduce-site")},
		{"sync reduction", skalla.SelectRules("local-prefix", "sync-skip")},
		{"all", skalla.SelectAll()},
	}
	fmt.Printf("%-18s %7s %10s %10s %8s %12s\n", "options", "rounds", "bytes", "rows", "groups", "response")
	var firstRel *skalla.Relation
	for _, l := range levels {
		res, err := cluster.Execute(ctx, q, l.sel)
		if err != nil {
			log.Fatal(err)
		}
		if firstRel == nil {
			firstRel = res.Rel
		} else if !res.Rel.EqualMultisetApprox(firstRel, 1e-9) {
			// Exact float equality is not expected: plans group the partial
			// sums differently (per site, per local prefix), so float columns
			// may differ in the last bits between plans.
			log.Fatalf("optimization level %q changed the result", l.name)
		}
		m := res.Metrics
		fmt.Printf("%-18s %7d %10d %10d %8d %12s\n",
			l.name, m.NumRounds(), m.TotalBytes(), m.TotalRows(), res.Rel.Len(),
			m.ResponseTime().Round(1000))
	}
	fmt.Printf("sample groups:\n%s", firstRel.Format(4))
}
