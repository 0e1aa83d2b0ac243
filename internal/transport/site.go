// Package transport connects the Skalla coordinator to its sites. It defines
// the Site interface the coordinator programs against, an in-process
// implementation that still serializes every message through encoding/gob so
// that byte counts are faithful to what a network deployment would ship, and
// a TCP implementation for true multi-process operation.
//
// Every call returns a stats.Call describing exactly what crossed the wire
// (bytes and rows in each direction) and how long the site computed; the
// coordinator aggregates these into per-round metrics.
package transport

import (
	"context"

	"skalla/internal/engine"
	"skalla/internal/gmdj"
	"skalla/internal/relation"
	"skalla/internal/stats"
)

// Site is the coordinator's view of one local warehouse site.
type Site interface {
	// ID returns the site identifier.
	ID() int
	// EvalBase computes the site's base-values fragment B_i.
	EvalBase(ctx context.Context, bq gmdj.BaseQuery) (*relation.Relation, stats.Call, error)
	// EvalOperatorStream computes the site's sub-aggregate relation H_i for
	// one MD operator against the shipped base fragment, with row blocking
	// (Sect. 3.2): each block of H_i (at most req.BlockRows rows; all of H_i
	// in one block when BlockRows ≤ 0; always at least one, possibly empty)
	// is delivered to sink as it arrives, letting the coordinator
	// synchronize early blocks while later ones are still in flight. The
	// returned Call aggregates bytes, rows and compute time across the whole
	// exchange. This is the only operator exchange; CollectOperator gathers
	// the blocks for callers that want H_i whole.
	EvalOperatorStream(ctx context.Context, req engine.OperatorRequest, sink func(*relation.Relation) error) (stats.Call, error)
	// EvalLocal evaluates the base query and a prefix of operators entirely
	// at the site (synchronization-reduced plans).
	EvalLocal(ctx context.Context, req engine.LocalRequest) (*relation.Relation, stats.Call, error)
	// DetailSchema fetches the schema of a detail relation from the site's
	// catalog (planning metadata; not part of query traffic accounting).
	DetailSchema(ctx context.Context, name string) (relation.Schema, error)
	// Tables lists the site's relation inventory (metadata).
	Tables(ctx context.Context) ([]engine.TableInfo, error)
}

// CollectOperator runs one operator exchange and unions the streamed blocks
// into a single H_i. The first block is kept as delivered and later blocks'
// rows are appended to it, so callers own the result and must not recycle
// the blocks separately.
func CollectOperator(ctx context.Context, s Site, req engine.OperatorRequest) (*relation.Relation, stats.Call, error) {
	var h *relation.Relation
	call, err := s.EvalOperatorStream(ctx, req, func(block *relation.Relation) error {
		if h == nil {
			h = block
			return nil
		}
		return h.Union(block)
	})
	if err != nil {
		return nil, call, err
	}
	return h, call, nil
}

// Loader is implemented by transports that can install data at the site
// (used by tests, examples and the data-generation tools).
type Loader interface {
	Load(ctx context.Context, name string, rel *relation.Relation) error
}
