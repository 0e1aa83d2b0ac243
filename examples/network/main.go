// Network deployment: runs three Skalla site servers on real TCP sockets
// (the same servers cmd/skalla-site starts across machines), connects a
// coordinator to them, pushes data over the wire, and executes a distributed
// query — demonstrating the full multi-process code path inside one program.
package main

import (
	"context"
	"fmt"
	"log"

	"skalla"
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
}
