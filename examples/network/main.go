// Network deployment: runs three Skalla site servers on real TCP sockets
// (the same servers cmd/skalla-site starts across machines), connects a
// coordinator to them, pushes data over the wire, and executes a distributed
// query — demonstrating the full multi-process code path inside one program.
// A second pass re-runs the query through a mid-tier relay served over TCP
// (the multi-tiered coordinator architecture of the paper's future work).
package main

import (
	"context"
	"fmt"
	"log"

	"skalla"
	"skalla/internal/core"
	"skalla/internal/engine"
	"skalla/internal/flow"
	"skalla/internal/stats"
	"skalla/internal/transport"
)

func main() {
	trace, err := flow.Generate(flow.Config{
		Rows: 9000, Routers: 3, SourceAS: 30, DestAS: 12, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Start three site servers on ephemeral localhost ports.
	var addrs []string
	for i := 0; i < 3; i++ {
		srv, err := transport.Serve(engine.NewSite(i), "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
		fmt.Printf("site %d listening on %s\n", i, srv.Addr())
	}

	// Connect the coordinator and ship each router's partition to its site.
	cluster, err := skalla.Connect(addrs,
		skalla.WithCatalog(trace.Catalog()),
		skalla.WithNetModel(stats.DefaultLAN()),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.LoadPartitions(context.Background(), "Flow", trace.Parts); err != nil {
		log.Fatal(err)
	}

	// Top talkers: per source AS, flow count, total bytes, and the count of
	// flows above the AS average.
	query, err := skalla.NewQuery("Flow", "SourceAS").
		Op("B.SourceAS = R.SourceAS",
			skalla.Count("flows"), skalla.Sum("NumBytes", "bytes"),
			skalla.Avg("NumBytes", "avgBytes")).
		Op("B.SourceAS = R.SourceAS && R.NumBytes > B.avgBytes",
			skalla.Count("aboveAvg")).
		Build()
	if err != nil {
		log.Fatal(err)
	}

	res, err := cluster.Execute(context.Background(), query, skalla.SelectAll())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d source-AS groups (first 8):\n%s\n", res.Rel.Len(), res.Rel.Format(8))
	fmt.Println("measured traffic over real TCP connections:")
	fmt.Print(res.Metrics)

	// Multi-tier variant: a relay process aggregates the three sites and
	// serves them to the root as a single endpoint, pre-merging their
	// sub-aggregates (the paper's future-work architecture).
	var children []transport.Site
	for _, addr := range addrs {
		cli, err := transport.Dial(addr)
		if err != nil {
			log.Fatal(err)
		}
		defer cli.Close()
		children = append(children, cli)
	}
	relay, err := core.NewRelay(0, children)
	if err != nil {
		log.Fatal(err)
	}
	relaySrv, err := transport.Serve(relay, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer relaySrv.Close()
	fmt.Printf("\nrelay tier listening on %s\n", relaySrv.Addr())

	tiered, err := skalla.Connect([]string{relaySrv.Addr()}, skalla.WithNetModel(stats.DefaultLAN()))
	if err != nil {
		log.Fatal(err)
	}
	defer tiered.Close()
	tres, err := tiered.Execute(context.Background(), query, skalla.SelectNone())
	if err != nil {
		log.Fatal(err)
	}
	flat, err := cluster.Execute(context.Background(), query, skalla.SelectNone())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("through the relay: %d groups, root exchanged %d messages vs %d flat (same plan)\n",
		tres.Rel.Len(), tres.Metrics.TotalMessages(), flat.Metrics.TotalMessages())
}
