// IP network analysis: the motivating application of the paper's Sect. 1.
// Flow records collected at each router stay in the router's local
// warehouse; the analyses below run as distributed GMDJ queries without ever
// moving detail data.
//
// Three analyses are shown:
//
//  1. Web-traffic fraction per source AS ("what fraction of flows is due to
//     Web traffic?"): two grouping variables over the same groups — total
//     flows and HTTP flows — in one coalesced operator.
//  2. Heavy hitters per AS pair: flows whose byte count is at least twice
//     the pair's average (a correlated aggregate à la Example 1).
//  3. Per-router load profile keyed on the partition attribute itself,
//     which the optimizer evaluates fully locally (Cor. 1).
package main

import (
	"context"
	"fmt"
	"log"

	"skalla"
	"skalla/internal/flow"
)

func main() {
	trace, err := flow.Generate(flow.Config{
		Rows: 30000, Routers: 4, SourceAS: 40, DestAS: 16, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	cluster, err := skalla.NewLocalCluster(4, skalla.WithCatalog(trace.Catalog()))
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.LoadPartitions(context.Background(), "Flow", trace.Parts); err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// 1. Web-traffic fraction per source AS. The two grouping variables
	// share one operator (hand-coalesced per Sect. 4.3), so the whole
	// analysis costs a single GMDJ round.
	webQ, err := skalla.NewQuery("Flow", "SourceAS").
		Op("B.SourceAS = R.SourceAS",
			skalla.Count("flows"), skalla.Sum("NumBytes", "bytes")).
		Var("B.SourceAS = R.SourceAS && R.DestPort = 80",
			skalla.Count("webFlows"), skalla.Sum("NumBytes", "webBytes")).
		Build()
	if err != nil {
		log.Fatal(err)
	}
	webRes, err := cluster.Execute(ctx, webQ, skalla.SelectAll())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("web-traffic fraction per source AS (first 6):")
	s := webRes.Rel.Schema
	asI, fI, wI := s.MustIndex("SourceAS"), s.MustIndex("flows"), s.MustIndex("webFlows")
	for _, row := range webRes.Rel.Rows()[:6] {
		fmt.Printf("  AS%-4d %5d flows, %5d web (%.1f%%)\n",
			row[asI].Int, row[fI].Int, row[wI].Int,
			100*float64(row[wI].Int)/float64(row[fI].Int))
	}

	// 2. Heavy hitters: per (SourceAS, DestAS), flows at ≥ 2× the pair's
	// average byte count. The second operator's condition references the
	// average computed by the first — a correlated aggregate chain.
	heavyQ, err := skalla.NewQuery("Flow", "SourceAS", "DestAS").
		Op("B.SourceAS = R.SourceAS && B.DestAS = R.DestAS",
			skalla.Count("flows"), skalla.Avg("NumBytes", "avgBytes")).
		Op("B.SourceAS = R.SourceAS && B.DestAS = R.DestAS && R.NumBytes >= B.avgBytes * 2",
			skalla.Count("heavy"), skalla.Max("NumBytes", "maxBytes")).
		Build()
	if err != nil {
		log.Fatal(err)
	}
	heavyRes, err := cluster.Execute(ctx, heavyQ, skalla.SelectAll())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nheavy hitters per AS pair: %d groups, e.g.\n%s\n",
		heavyRes.Rel.Len(), heavyRes.Rel.Format(5))

	// 3. Per-router load. RouterId is the partition attribute, so the plan
	// degenerates to one fully local round per Cor. 1.
	loadQ, err := skalla.NewQuery("Flow", "RouterId").
		Op("B.RouterId = R.RouterId",
			skalla.Count("flows"), skalla.Sum("NumPackets", "packets"),
			skalla.Sum("NumBytes", "bytes"), skalla.Max("NumBytes", "maxFlow")).
		Build()
	if err != nil {
		log.Fatal(err)
	}
	loadRes, err := cluster.Execute(ctx, loadQ, skalla.SelectAll())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("per-router load:\n%s\n%s", loadRes.Rel, loadRes.Plan.Describe())

	// The optimizations matter: compare traffic with and without them on
	// the heavy-hitter analysis.
	baseline, err := cluster.Execute(ctx, heavyQ, skalla.SelectNone())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nheavy-hitter query traffic: %d rows unoptimized vs %d rows optimized (%d vs %d rounds)\n",
		baseline.Metrics.TotalRows(), heavyRes.Metrics.TotalRows(),
		baseline.Metrics.NumRounds(), heavyRes.Metrics.NumRounds())
}
