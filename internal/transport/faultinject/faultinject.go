// Package faultinject wraps a transport.Site with configurable failure
// injection for chaos testing: outright call failures, fail-then-recover,
// hangs until the caller's deadline, added latency, probabilistic errors,
// mid-stream death after a set number of H blocks, and block mutation
// (corruption). It is used by the core chaos matrix and is available to any
// test that needs a misbehaving site without a real network.
package faultinject

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"skalla/internal/engine"
	"skalla/internal/gmdj"
	"skalla/internal/relation"
	"skalla/internal/stats"
	"skalla/internal/transport"
)

// ErrInjected is the error returned by every injected failure; tests match it
// with errors.Is to distinguish injected faults from real bugs.
var ErrInjected = errors.New("faultinject: injected failure")

// Config selects the faults to inject. The zero value injects nothing. Call
// counters cover the data-plane calls (EvalBase, EvalOperatorStream,
// EvalLocal); metadata calls (DetailSchema, Tables) always pass through.
type Config struct {
	// FailFirst fails the first N data calls outright, then recovers —
	// the shape a retry policy must absorb.
	FailFirst int
	// FailFrom fails every data call from the Nth (1-based) onward — a
	// persistent failure no retry policy can absorb. 0 disables.
	FailFrom int
	// HangFirst makes the first N data calls block until the context is
	// done, simulating a hung site that only a per-attempt deadline frees.
	HangFirst int
	// Delay is added to every data call before it runs (slow site).
	Delay time.Duration
	// ErrorRate fails each data call with this probability, drawn from a
	// generator seeded with Seed so runs are reproducible.
	ErrorRate float64
	Seed      int64
	// FailStreams makes the first N EvalOperatorStream calls die mid-stream
	// after StreamFailAfterBlocks H blocks have been delivered to the sink;
	// later attempts stream cleanly. This is the partial-stream case that
	// makes naive (unstaged) retry double-count.
	FailStreams           int
	StreamFailAfterBlocks int
	// MutateBlock, when set, replaces each streamed H block before it
	// reaches the sink — for corruption tests. It must not write the block
	// it is handed; it returns a changed copy (Clone) or another block.
	MutateBlock func(*relation.Relation) *relation.Relation
}

// Site wraps an inner transport.Site with fault injection per Config.
type Site struct {
	transport.Site
	cfg Config

	mu      sync.Mutex
	rng     *rand.Rand
	calls   int
	streams int
}

// Wrap builds a fault-injecting wrapper around a site.
func Wrap(s transport.Site, cfg Config) *Site {
	f := &Site{Site: s, cfg: cfg}
	if cfg.ErrorRate > 0 {
		f.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	return f
}

// Calls returns how many data-plane calls the wrapper has seen (including
// failed and hung ones) — tests use it to assert retry counts.
func (f *Site) Calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// gate applies the per-call fault schedule; it is invoked once at the start
// of every data call.
func (f *Site) gate(ctx context.Context) error {
	f.mu.Lock()
	f.calls++
	n := f.calls
	roll := 1.0
	if f.rng != nil {
		roll = f.rng.Float64()
	}
	f.mu.Unlock()
	if f.cfg.Delay > 0 {
		select {
		case <-time.After(f.cfg.Delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if n <= f.cfg.HangFirst {
		<-ctx.Done()
		return ctx.Err()
	}
	if n <= f.cfg.FailFirst {
		return ErrInjected
	}
	if f.cfg.FailFrom > 0 && n >= f.cfg.FailFrom {
		return ErrInjected
	}
	if f.cfg.ErrorRate > 0 && roll < f.cfg.ErrorRate {
		return ErrInjected
	}
	return nil
}

// EvalBase implements transport.Site.
func (f *Site) EvalBase(ctx context.Context, bq gmdj.BaseQuery) (*relation.Relation, stats.Call, error) {
	if err := f.gate(ctx); err != nil {
		return nil, stats.Call{}, err
	}
	return f.Site.EvalBase(ctx, bq)
}

// EvalOperatorStream implements transport.Site with stream-level faults:
// mid-stream death after StreamFailAfterBlocks blocks and block mutation.
func (f *Site) EvalOperatorStream(ctx context.Context, req engine.OperatorRequest, sink func(*relation.Relation) error) (stats.Call, error) {
	if err := f.gate(ctx); err != nil {
		return stats.Call{}, err
	}
	f.mu.Lock()
	f.streams++
	failThis := f.streams <= f.cfg.FailStreams
	f.mu.Unlock()
	delivered := 0
	return f.Site.EvalOperatorStream(ctx, req, func(b *relation.Relation) error {
		if failThis && delivered >= f.cfg.StreamFailAfterBlocks {
			return ErrInjected
		}
		if f.cfg.MutateBlock != nil {
			b = f.cfg.MutateBlock(b)
		}
		delivered++
		return sink(b)
	})
}

// EvalLocal implements transport.Site.
func (f *Site) EvalLocal(ctx context.Context, req engine.LocalRequest) (*relation.Relation, stats.Call, error) {
	if err := f.gate(ctx); err != nil {
		return nil, stats.Call{}, err
	}
	return f.Site.EvalLocal(ctx, req)
}
