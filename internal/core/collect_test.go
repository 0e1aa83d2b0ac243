package core

import (
	"context"
	"errors"
	"strconv"
	"testing"

	"skalla/internal/agg"
	"skalla/internal/engine"
	"skalla/internal/expr"
	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/relation"
	"skalla/internal/transport"
	"skalla/internal/transport/faultinject"
)

// collectSite loads rows i of T(g, v) with i%stride == offset: stride 1 is
// the whole relation, stride 2 one half of it for a relay's leaves.
func collectSite(t *testing.T, id, stride, offset int) *engine.Site {
	t.Helper()
	r := relation.New(relation.MustSchema(
		relation.Column{Name: "g", Kind: relation.KindInt},
		relation.Column{Name: "v", Kind: relation.KindInt},
	))
	for i := 0; i < 40; i++ {
		if i%stride == offset {
			r.MustAppend(relation.Tuple{relation.NewInt(int64(i % 5)), relation.NewInt(int64(i))})
		}
	}
	s := engine.NewSite(id)
	if err := s.Load(context.Background(), "T", r); err != nil {
		t.Fatal(err)
	}
	return s
}

func collectRequest(groups, blockRows int) engine.OperatorRequest {
	base := relation.New(relation.MustSchema(relation.Column{Name: "g", Kind: relation.KindInt}))
	for g := 0; g < groups; g++ {
		base.MustAppend(relation.Tuple{relation.NewInt(int64(g))})
	}
	return engine.OperatorRequest{
		Base: base,
		Op: gmdj.Operator{Detail: "T", Vars: []gmdj.GroupVar{{
			Aggs: []agg.Spec{{Func: agg.Count, As: "c"}, {Func: agg.Sum, Arg: "v", As: "s"}},
			Cond: expr.MustParse("B.g = R.g"),
		}}},
		BlockRows: blockRows,
	}
}

func dialSite(t *testing.T, b transport.Backend) *transport.Client {
	t.Helper()
	srv, err := transport.Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := transport.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

// TestCollectOperator: the one helper over every Site there is — the three
// transports, a fault-injection wrapper and a relay pre-merging two leaves —
// must return the H_i that engine.Site.EvalOperator computes over the same
// rows, whether the stream carries one block, many, or a single empty one.
func TestCollectOperator(t *testing.T) {
	relay, err := NewRelay(0, []transport.Site{
		transport.NewFastLocalSite(collectSite(t, 1, 2, 0)),
		transport.NewLocalSite(collectSite(t, 2, 2, 1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	sites := []struct {
		name string
		site transport.Site
	}{
		{"local", transport.NewLocalSite(collectSite(t, 0, 1, 0))},
		{"fast", transport.NewFastLocalSite(collectSite(t, 0, 1, 0))},
		{"tcp", dialSite(t, collectSite(t, 0, 1, 0))},
		{"faultinject", faultinject.Wrap(transport.NewLocalSite(collectSite(t, 0, 1, 0)), faultinject.Config{})},
		{"relay", transport.NewLocalSite(relay)},
	}
	oracle := collectSite(t, 0, 1, 0)
	for _, shape := range []struct {
		name                      string
		groups, blockRows, blocks int
	}{
		{"one-block", 5, 0, 1},
		{"multi-block", 5, 2, 3},
		{"empty", 0, 2, 1},
	} {
		req := collectRequest(shape.groups, shape.blockRows)
		want, err := oracle.EvalOperator(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sites {
			t.Run(shape.name+"/"+s.name, func(t *testing.T) {
				blocks := 0
				if _, err := s.site.EvalOperatorStream(context.Background(), req, func(*relation.Relation) error {
					blocks++
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if blocks != shape.blocks {
					t.Errorf("stream carried %d blocks, want %d", blocks, shape.blocks)
				}
				h, call, err := transport.CollectOperator(context.Background(), s.site, req)
				if err != nil {
					t.Fatal(err)
				}
				if !h.Schema.Equal(want.Schema) || !h.EqualMultiset(want) {
					t.Errorf("collected H differs from engine.Site.EvalOperator\ngot:\n%s\nwant:\n%s", h, want)
				}
				if call.RowsUp != want.Len() || call.RowsDown != shape.groups || call.Site != s.site.ID() {
					t.Errorf("call = %+v, want %d rows up, %d down, site %d", call, want.Len(), shape.groups, s.site.ID())
				}
			})
		}
	}
}

// TestCollectOperatorSinkFailureKeepsConnection: a stream whose sink fails
// after the first block returns the sink's error and no relation; the TCP
// client drains the rest, so the same connection serves the next exchange
// without a redial.
func TestCollectOperatorSinkFailureKeepsConnection(t *testing.T) {
	cli := dialSite(t, collectSite(t, 0, 1, 0))
	site := faultinject.Wrap(cli, faultinject.Config{FailStreams: 1, StreamFailAfterBlocks: 1})
	redials := obs.TransportRedials.With(strconv.Itoa(cli.ID()), "ok")
	redials0 := redials.Value()
	req := collectRequest(5, 1)
	h, _, err := transport.CollectOperator(context.Background(), site, req)
	if !errors.Is(err, faultinject.ErrInjected) || h != nil {
		t.Fatalf("failed stream returned (%v, %v), want (nil, injected failure)", h, err)
	}
	h, _, err = transport.CollectOperator(context.Background(), site, req)
	if err != nil || h.Len() != 5 {
		t.Fatalf("exchange after a sink failure: %v, %v", h, err)
	}
	if n := redials.Value() - redials0; n != 0 {
		t.Errorf("client redialed %d times; a sink failure must leave the connection usable", n)
	}
}
