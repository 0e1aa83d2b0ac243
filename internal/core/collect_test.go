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

// collectSite is site 0 holding the 40 rows of T(g, v): g = i%5, v = i.
func collectSite(t *testing.T) *engine.Site {
	t.Helper()
	r := relation.New(relation.MustSchema(
		relation.Column{Name: "g", Kind: relation.KindInt},
		relation.Column{Name: "v", Kind: relation.KindInt},
	))
	for i := 0; i < 40; i++ {
		r.MustAppend(relation.Tuple{relation.NewInt(int64(i % 5)), relation.NewInt(int64(i))})
	}
	s := engine.NewSite(0)
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

// TestCollectOperator: the one helper over every Site there is — a Client
// on each dialer and a fault-injection wrapper — must return the H_i that
// engine.Site.EvalOperator computes over the same rows, whether the stream
// carries one block, many, or a single empty one.
func TestCollectOperator(t *testing.T) {
	sites := map[string]transport.Site{"faultinject": faultinject.Wrap(localSite(t, collectSite(t)), faultinject.Config{})}
	for name, connect := range testTransports() {
		sites[name] = connect(t, collectSite(t))
	}
	oracle := collectSite(t)
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
		for name, site := range sites {
			t.Run(shape.name+"/"+name, func(t *testing.T) {
				blocks := 0
				if _, err := site.EvalOperatorStream(context.Background(), req, func(*relation.Relation) error {
					blocks++
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if blocks != shape.blocks {
					t.Errorf("stream carried %d blocks, want %d", blocks, shape.blocks)
				}
				h, call, err := transport.CollectOperator(context.Background(), site, req)
				if err != nil {
					t.Fatal(err)
				}
				if !h.Schema.Equal(want.Schema) || !h.EqualMultiset(want) {
					t.Errorf("collected H differs from engine.Site.EvalOperator\ngot:\n%s\nwant:\n%s", h, want)
				}
				if call.RowsUp != want.Len() || call.RowsDown != shape.groups || call.Site != site.ID() {
					t.Errorf("call = %+v, want %d rows up, %d down, site %d", call, want.Len(), shape.groups, site.ID())
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
	cli := dialSite(t, collectSite(t))
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
