package engine

import (
	"context"

	"skalla/internal/gmdj"
	"skalla/internal/relation"
)

// memPartition is an in-memory partition as Load imaged it: one columnar
// image, which the compiled kernels scan and the scalar evaluator reads as
// rows boxed from it a block at a time, and the image's key lists.
type memPartition struct {
	rel  *relation.Relation // FromColumns over the image
	keys *gmdj.KeyLists
}

func newMemPartition(rel *relation.Relation) (memPartition, error) {
	cols, err := relation.BuildColumns(rel)
	if err != nil {
		return memPartition{}, err
	}
	return memPartition{rel: relation.FromColumns(rel.Schema, cols), keys: new(gmdj.KeyLists)}, nil
}

// KeyLists implements gmdj.KeyListSource: the one image's.
func (p memPartition) KeyLists() *gmdj.KeyLists { return p.keys }

// Schema implements gmdj.RowSource.
func (p memPartition) Schema() relation.Schema { return p.rel.Schema }

// Len implements gmdj.RowSource.
func (p memPartition) Len() int { return p.rel.Len() }

// Scan implements gmdj.RowSource: the image, boxed.
func (p memPartition) Scan(ctx context.Context, fn func(relation.Tuple) error) error {
	return gmdj.ScanImages(ctx, p, fn)
}

// Images implements gmdj.ColumnSource: the one image.
func (p memPartition) Images(ctx context.Context, fn func(*relation.Columns) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return fn(p.rel.Columns())
}
