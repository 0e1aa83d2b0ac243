package core

import (
	"context"
	"math/rand"
	"testing"

	"skalla/internal/distrib"
	"skalla/internal/engine"
	"skalla/internal/gmdj"
	"skalla/internal/plan"
	"skalla/internal/relation"
	"skalla/internal/stats"
	"skalla/internal/transport"
)

// tieredCluster builds 4 leaf sites behind 2 relays and returns the relay
// transports plus a top-tier catalog (each relay owns its children's ranges).
func tieredCluster(t *testing.T, global *relation.Relation) ([]transport.Site, *distrib.Catalog) {
	t.Helper()
	leaves, _ := buildCluster(t, global, "T", 4, 3, true)
	var tier []transport.Site
	filters := make([]distrib.SiteFilter, 2)
	for i := 0; i < 2; i++ {
		relay, err := NewRelay(i, leaves[i*2:i*2+2])
		if err != nil {
			t.Fatal(err)
		}
		tier = append(tier, transport.NewLocalSite(relay))
		lo := int64(i * 2 * 3)
		hi := int64((i*2+2)*3 - 1)
		if i == 1 {
			hi = 1 << 30 // mirrors the tail-absorbing leaf partitioning
		}
		filters[i] = distrib.IntRange{Lo: lo, Hi: hi}
	}
	cat := distrib.NewCatalog(&distrib.Distribution{
		Relation: "T",
		NumSites: 2,
		Attrs:    []distrib.AttrInfo{{Attr: "g", Filters: filters, Disjoint: true}},
	})
	return tier, cat
}

// A two-tier deployment must produce exactly the same results as the flat
// one, for every query shape and option combination (the relays pre-merge
// per Theorem 1, which is associative).
func TestTieredMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 3; trial++ {
		global := randomGlobal(rng, 60+trial*60, 12)
		tier, cat := tieredCluster(t, global)
		coord, err := New(tier, cat, stats.NetModel{})
		if err != nil {
			t.Fatal(err)
		}
		for qname, q := range map[string]gmdj.Query{
			"chain":      chainQuery(),
			"nonaligned": nonAlignedQuery(),
			"prefix":     prefixQuery(),
		} {
			want, err := gmdj.EvalCentral(q, gmdj.Data{"T": global}, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, sel := range switchCombos() {
				res, err := coord.ExecuteWith(context.Background(), q, sel)
				if err != nil {
					t.Fatalf("%s [%s]: %v", qname, sel, err)
				}
				if !res.Rel.EqualMultiset(want) {
					t.Fatalf("%s [%s]: tiered result mismatch\nplan:\n%s", qname, sel, res.Plan.Describe())
				}
			}
		}
	}
}

// The root coordinator of a tiered deployment exchanges messages with the
// relays only: its fan-in is the relay count, and the relays' pre-merge
// caps the root's inbound rows at |X| per relay per round.
func TestTieredReducesRootFanIn(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	global := randomGlobal(rng, 300, 12)

	flat, flatCat := buildCluster(t, global, "T", 4, 3, true)
	flatCoord, _ := New(flat, flatCat, stats.NetModel{})
	tier, tierCat := tieredCluster(t, global)
	tierCoord, _ := New(tier, tierCat, stats.NetModel{})

	q := nonAlignedQuery() // groups span every site: worst-case fan-in
	flatRes, err := flatCoord.ExecuteWith(context.Background(), q, plan.SelectNone())
	if err != nil {
		t.Fatal(err)
	}
	tierRes, err := tierCoord.ExecuteWith(context.Background(), q, plan.SelectNone())
	if err != nil {
		t.Fatal(err)
	}
	if !flatRes.Rel.EqualMultiset(tierRes.Rel) {
		t.Fatal("flat vs tiered mismatch")
	}
	flatMsgs := flatRes.Metrics.TotalMessages()
	tierMsgs := tierRes.Metrics.TotalMessages()
	if tierMsgs >= flatMsgs {
		t.Errorf("root messages: tiered %d !< flat %d", tierMsgs, flatMsgs)
	}
	// Root inbound rows shrink: each relay merges its two children's H.
	var flatUp, tierUp int
	for i := range flatRes.Metrics.Rounds {
		flatUp += flatRes.Metrics.Rounds[i].RowsUp()
	}
	for i := range tierRes.Metrics.Rounds {
		tierUp += tierRes.Metrics.Rounds[i].RowsUp()
	}
	if tierUp >= flatUp {
		t.Errorf("root inbound rows: tiered %d !< flat %d", tierUp, flatUp)
	}
}

// A relay served over TCP: mid-tier aggregation as its own process.
func TestRelayOverTCP(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	global := randomGlobal(rng, 80, 12)
	leaves, _ := buildCluster(t, global, "T", 4, 3, true)

	var tierAddrs []string
	for i := 0; i < 2; i++ {
		relay, err := NewRelay(i, leaves[i*2:i*2+2])
		if err != nil {
			t.Fatal(err)
		}
		srv, err := transport.Serve(relay, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		tierAddrs = append(tierAddrs, srv.Addr())
	}
	var tier []transport.Site
	for _, addr := range tierAddrs {
		cli, err := transport.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		tier = append(tier, cli)
	}
	coord, _ := New(tier, nil, stats.NetModel{})
	want, err := gmdj.EvalCentral(chainQuery(), gmdj.Data{"T": global}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, sel := range []plan.Selection{plan.SelectNone(), plan.SelectRules("coalesce", "group-reduce-site")} {
		res, err := coord.ExecuteWith(context.Background(), chainQuery(), sel)
		if err != nil {
			t.Fatalf("[%s]: %v", sel, err)
		}
		if !res.Rel.EqualMultiset(want) {
			t.Errorf("[%s]: TCP relay mismatch", sel)
		}
	}
}

func TestRelayErrors(t *testing.T) {
	if _, err := NewRelay(0, nil); err == nil {
		t.Error("empty relay must error")
	}
	rng := rand.New(rand.NewSource(94))
	global := randomGlobal(rng, 20, 12)
	leaves, _ := buildCluster(t, global, "T", 2, 6, true)
	relay, err := NewRelay(0, leaves)
	if err != nil {
		t.Fatal(err)
	}
	if err := relay.Load(context.Background(), "T", relation.New(tSchema)); err == nil {
		t.Error("relay Load must error")
	}
	if _, err := relay.DetailSchema(context.Background(), "missing"); err == nil {
		t.Error("unknown relation must error")
	}
	if _, err := relay.EvalBase(context.Background(), gmdj.BaseQuery{Detail: "missing", Cols: []string{"x"}}); err == nil {
		t.Error("bad base query must error")
	}
	if _, err := relay.EvalLocal(context.Background(), engine.LocalRequest{Query: chainQuery(), UpTo: 99}); err == nil {
		t.Error("out-of-range prefix must error")
	}
}

func TestRelayTables(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	global := randomGlobal(rng, 40, 12)
	leaves, _ := buildCluster(t, global, "T", 2, 6, true)
	relay, err := NewRelay(0, leaves)
	if err != nil {
		t.Fatal(err)
	}
	infos := relay.Tables(context.Background())
	if len(infos) != 1 || infos[0].Name != "T" || infos[0].Rows != 40 {
		t.Errorf("relay inventory = %+v", infos)
	}
}
