package engine

import (
	"skalla/internal/gmdj"
	"skalla/internal/relation"
)

// memPartition is an in-memory partition as Load snapshotted it, held twice:
// the rows, which the scalar evaluator scans through the embedded row source,
// and their columnar image, which the compiled kernels scan. A shard is a
// Split shard of the rows with its offset into the same image.
type memPartition struct {
	gmdj.RowSource                   // gmdj.SourceOf the snapshot, or a shard of it
	cols           *relation.Columns // image of the whole snapshot; nil when it could not be imaged
	lo             int               // index in cols of the source's first row
}

func newMemPartition(rel *relation.Relation) memPartition {
	n := len(rel.Tuples)
	snap := &relation.Relation{Schema: rel.Schema, Tuples: rel.Tuples[:n:n]}
	return memPartition{RowSource: gmdj.SourceOf(snap), cols: relation.BuildColumns(snap)}
}

// Split implements gmdj.SplittableSource. The row source's shards are
// contiguous and in order, so each one's offset into the image is the sum of
// the lengths before it.
func (p memPartition) Split(n int) []gmdj.RowSource {
	shards := p.RowSource.(gmdj.SplittableSource).Split(n)
	lo := p.lo
	for w, sh := range shards {
		shards[w] = memPartition{RowSource: sh, cols: p.cols, lo: lo}
		lo += sh.Len()
	}
	return shards
}

// ColumnRange implements gmdj.ColumnSource.
func (p memPartition) ColumnRange() (*relation.Columns, int, int) {
	return p.cols, p.lo, p.lo + p.Len()
}
