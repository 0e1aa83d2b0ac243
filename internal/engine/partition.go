package engine

import (
	"skalla/internal/gmdj"
	"skalla/internal/relation"
)

// memPartition is an in-memory partition as Load snapshotted it, held twice:
// the rows, which the scalar evaluator scans through the embedded row source,
// and their columnar image, which the compiled kernels scan.
type memPartition struct {
	gmdj.RowSource                   // gmdj.SourceOf the snapshot
	cols           *relation.Columns // image of the snapshot; nil when it could not be imaged
}

func newMemPartition(rel *relation.Relation) memPartition {
	rows := rel.Rows() // a KindLoad partition arrives decoded to columns
	n := len(rows)
	snap := &relation.Relation{Schema: rel.Schema, Tuples: rows[:n:n]}
	return memPartition{RowSource: gmdj.SourceOf(snap), cols: relation.BuildColumns(snap)}
}

// Columns implements gmdj.ColumnSource.
func (p memPartition) Columns() *relation.Columns { return p.cols }
