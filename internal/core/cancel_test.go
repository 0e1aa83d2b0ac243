package core

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"skalla/internal/engine"
	"skalla/internal/plan"
	"skalla/internal/relation"
	"skalla/internal/stats"
	"skalla/internal/transport"
)

// cancelSite cancels the coordinator's context as soon as the first H block is
// about to be streamed, simulating a caller abandoning the query mid-round.
type cancelSite struct {
	transport.Site
	cancel context.CancelFunc
	fired  int32
}

func (c *cancelSite) EvalOperatorStream(ctx context.Context, req engine.OperatorRequest, sink func(*relation.Relation) error) (stats.Call, error) {
	return c.Site.EvalOperatorStream(ctx, req, func(b *relation.Relation) error {
		if atomic.CompareAndSwapInt32(&c.fired, 0, 1) {
			c.cancel()
		}
		return sink(b)
	})
}

// A context cancelled before any round starts must abort Execute immediately
// with the context's error.
func TestCancelBeforeExecute(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	global := randomGlobal(rng, 60, 12)
	sites, cat := buildCluster(t, global, "T", 3, 4)
	coord, err := New(sites, cat, stats.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := coord.ExecuteWith(ctx, chainQuery(), plan.SelectNone()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled before execute: err = %v, want context.Canceled", err)
	}
}

// Cancelling mid-way through an operator round's block stream must surface
// context.Canceled — not hang on the block channel, and not mask the
// cancellation behind a per-site error.
func TestCancelMidStream(t *testing.T) {
	for _, sel := range []plan.Selection{plan.SelectNone(), plan.SelectRules("group-reduce-coord", "group-reduce-site")} {
		rng := rand.New(rand.NewSource(92))
		global := randomGlobal(rng, 200, 12)
		sites, cat := buildCluster(t, global, "T", 3, 4)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// Wrap every site so whichever streams first trips the cancel; small
		// blocks keep streams long enough that cancellation lands mid-round.
		for i := range sites {
			sites[i] = &cancelSite{Site: sites[i], cancel: cancel}
		}
		coord, err := New(sites, cat, stats.NetModel{})
		if err != nil {
			t.Fatal(err)
		}
		coord.SetRowBlocking(1)
		if _, err := coord.ExecuteWith(ctx, chainQuery(), sel); !errors.Is(err, context.Canceled) {
			t.Fatalf("[%s] cancelled mid-stream: err = %v, want context.Canceled", sel, err)
		}
	}
}
