package transport

import (
	"context"
	"fmt"
	"testing"

	"skalla/internal/agg"
	"skalla/internal/engine"
	"skalla/internal/expr"
	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/relation"
	"skalla/internal/stats"
	"skalla/internal/store"
)

// siteCounters is a reading of the five process-wide families a site's
// evaluations feed, scan paths by label.
type siteCounters struct {
	rows, kernel, shape, kind, blocks, cacheReads, diskReads, segRows int64
}

func readSiteCounters() siteCounters {
	return siteCounters{
		rows:       obs.EngineRowsScanned.Value(),
		kernel:     obs.EngineScanPath.With("kernel", "ok").Value(),
		shape:      obs.EngineScanPath.With("scalar", "shape").Value(),
		kind:       obs.EngineScanPath.With("scalar", "kind").Value(),
		blocks:     obs.EngineBlocks.Value(),
		cacheReads: obs.StoreSegmentReads.With("cache").Value(),
		diskReads:  obs.StoreSegmentReads.With("disk").Value(),
		segRows:    obs.StoreSegmentRows.Value(),
	}
}

func (c siteCounters) minus(o siteCounters) siteCounters {
	return siteCounters{c.rows - o.rows, c.kernel - o.kernel, c.shape - o.shape, c.kind - o.kind,
		c.blocks - o.blocks, c.cacheReads - o.cacheReads, c.diskReads - o.diskReads, c.segRows - o.segRows}
}

// accountingRel is n rows over a STRING key S, an INT K and a FLOAT P.
func accountingRel(n int) *relation.Relation {
	r := relation.New(relation.MustSchema(
		relation.Column{Name: "S", Kind: relation.KindString},
		relation.Column{Name: "K", Kind: relation.KindInt},
		relation.Column{Name: "P", Kind: relation.KindFloat},
	))
	for i := 0; i < n; i++ {
		r.MustAppend(relation.Tuple{relation.NewString(fmt.Sprintf("s%d", i%9)), relation.NewInt(int64(i % 4)),
			relation.NewFloat(float64(i%13) / 4)})
	}
	return r
}

// TestSiteCountersEqualRequestBreakdowns: the engine and store families of
// /metrics move by exactly what the site requests' breakdowns carry — rows
// scanned, blocks, segment reads by source and rows loaded — and count each
// request's detail passes under the path its breakdown reports. Base, operator
// and local requests are served over a Load-ed partition, a disk table of
// several segments, the Load-ed rows under an OR residual the kernel compiler
// refuses (scalar, shape) and the Load-ed rows under a STRING MIN (scalar,
// kind), in process and over TCP.
// The centralized oracle over the same rows moves none of them.
func TestSiteCountersEqualRequestBreakdowns(t *testing.T) {
	ctx := context.Background()
	rel := accountingRel(600)
	tbl, err := store.CreateFrom(t.TempDir(), "T", rel, 150)
	if err != nil {
		t.Fatal(err)
	}
	partitions := map[string]*engine.Site{}
	for i, name := range []string{"load", "disk", "shape", "kind"} {
		s := engine.NewSite(i)
		switch name {
		case "disk":
			err = s.LoadSource("T", tbl)
		default:
			err = s.Load(ctx, "T", rel)
		}
		if err != nil {
			t.Fatal(err)
		}
		partitions[name] = s
	}

	bq := gmdj.BaseQuery{Detail: "T", Cols: []string{"S"}}
	opOver := func(partition string) gmdj.Operator {
		cond := "B.S = R.S"
		if partition == "shape" {
			cond += " && (R.P < 1 || R.P >= 1)"
		}
		aggs := []agg.Spec{{Func: agg.Count, As: "cnt"}, {Func: agg.Sum, Arg: "P", As: "sp"}}
		if partition == "kind" {
			aggs = append(aggs, agg.Spec{Func: agg.Min, Arg: "S", As: "ms"})
		}
		return gmdj.Operator{Detail: "T", Vars: []gmdj.GroupVar{{Cond: expr.MustParse(cond), Aggs: aggs}}}
	}
	x, err := partitions["load"].EvalBase(ctx, bq)
	if err != nil {
		t.Fatal(err)
	}
	requests := []struct {
		name   string
		passes int64
		run    func(Site, gmdj.Operator) (stats.Call, error)
	}{
		{"base", 1, func(s Site, _ gmdj.Operator) (stats.Call, error) {
			_, call, err := s.EvalBase(ctx, bq)
			return call, err
		}},
		{"operator", 1, func(s Site, op gmdj.Operator) (stats.Call, error) {
			_, call, err := CollectOperator(ctx, s, engine.OperatorRequest{Base: x, Op: op, BlockRows: 4})
			return call, err
		}},
		{"local", 2, func(s Site, op gmdj.Operator) (stats.Call, error) {
			_, call, err := s.EvalLocal(ctx, engine.LocalRequest{Query: gmdj.Query{Base: bq, Ops: []gmdj.Operator{op}}, UpTo: 1})
			return call, err
		}},
	}

	var moved siteCounters // over every request, to show each path and source was exercised
	for name, site := range partitions {
		srv, err := Serve(site, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		cli, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		for transport, s := range map[string]Site{"local": localSite(t, site), "tcp": cli} {
			for _, req := range requests {
				before := readSiteCounters()
				call, err := req.run(s, opOver(name))
				if err != nil {
					t.Fatalf("%s over %s by %s: %v", req.name, name, transport, err)
				}
				d := readSiteCounters().minus(before)
				b := call.Breakdown
				want := siteCounters{rows: b.RowsScanned, kernel: d.kernel, shape: d.shape, kind: d.kind,
					blocks: b.Blocks, cacheReads: b.SegCacheReads, diskReads: b.SegDiskReads, segRows: b.SegRowsLoaded}
				if d != want {
					t.Errorf("%s over %s by %s: the families moved %+v, the breakdown says %+v", req.name, name, transport, d, *b)
				}
				wantPasses := req.passes
				if req.name == "local" && name == "load" {
					wantPasses = 1 // one image, and MD1 folds into the base pass
				}
				if passes := d.kernel + d.shape + d.kind; passes != wantPasses || b.Kernel != (d.kernel == passes) {
					t.Errorf("%s over %s by %s: %d passes counted (%d kernel), want %d; breakdown says kernel %v",
						req.name, name, transport, passes, d.kernel, wantPasses, b.Kernel)
				}
				moved = siteCounters{moved.rows + d.rows, moved.kernel + d.kernel, moved.shape + d.shape, moved.kind + d.kind,
					moved.blocks + d.blocks, moved.cacheReads + d.cacheReads, moved.diskReads + d.diskReads, moved.segRows + d.segRows}
			}
		}
	}
	if moved.rows == 0 || moved.kernel == 0 || moved.shape == 0 || moved.kind == 0 || moved.blocks == 0 ||
		moved.cacheReads == 0 || moved.diskReads == 0 || moved.segRows == 0 {
		t.Errorf("some family never moved: %+v", moved)
	}

	before := readSiteCounters()
	if _, err := gmdj.EvalCentral(gmdj.Query{Base: bq, Ops: []gmdj.Operator{opOver("load")}}, gmdj.Data{"T": rel}, true); err != nil {
		t.Fatal(err)
	}
	if d := readSiteCounters().minus(before); d != (siteCounters{}) {
		t.Errorf("the centralized oracle moved the site families: %+v", d)
	}
}
