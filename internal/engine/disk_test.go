package engine

import (
	"context"
	"testing"

	"skalla/internal/gmdj"
	"skalla/internal/store"
)

// A site serving its partition from a disk-backed store must answer every
// request identically to one serving the same rows from memory.
func TestDiskBackedSiteEquivalence(t *testing.T) {
	rows := [][3]int64{
		{1, 1, 10}, {1, 1, 20}, {1, 2, 5}, {2, 1, 7}, {2, 1, 9}, {3, 2, 4},
	}
	rel := flowRel(rows...)

	mem := NewSite(0)
	if err := mem.Load(context.Background(), "Flow", rel); err != nil {
		t.Fatal(err)
	}
	disk := NewSite(0)
	tbl, err := store.CreateFrom(t.TempDir(), "Flow", rel, 2) // multiple segments
	if err != nil {
		t.Fatal(err)
	}
	if err := disk.LoadSource("Flow", tbl); err != nil {
		t.Fatal(err)
	}

	// Base query.
	bq := gmdj.BaseQuery{Detail: "Flow", Cols: []string{"SAS", "DAS"}}
	memB, err := mem.EvalBase(context.Background(), bq)
	if err != nil {
		t.Fatal(err)
	}
	diskB, err := disk.EvalBase(context.Background(), bq)
	if err != nil {
		t.Fatal(err)
	}
	if !memB.EqualMultiset(diskB) {
		t.Errorf("base mismatch:\n%s\nvs\n%s", memB, diskB)
	}

	// Operator evaluation, both evaluation paths, with and without guard.
	req := OperatorRequest{
		Base: baseFragment(1, 2, 3, 4),
		Op:   countOp("B.SAS = R.SAS && R.NB > 4"),
	}
	for _, useHash := range []bool{true, false} {
		mem.SetUseHash(useHash)
		disk.SetUseHash(useHash)
		for _, guard := range []bool{false, true} {
			r := req
			r.Guard = guard
			memH, err := mem.EvalOperator(context.Background(), r)
			if err != nil {
				t.Fatal(err)
			}
			diskH, err := disk.EvalOperator(context.Background(), r)
			if err != nil {
				t.Fatal(err)
			}
			if !memH.EqualMultiset(diskH) {
				t.Errorf("hash=%v guard=%v: H mismatch:\n%s\nvs\n%s", useHash, guard, memH, diskH)
			}
		}
	}
	mem.SetUseHash(true)
	disk.SetUseHash(true)

	// Local prefix evaluation.
	q := gmdj.Query{
		Base: bq,
		Ops: []gmdj.Operator{{Detail: "Flow", Vars: []gmdj.GroupVar{{
			Aggs: countOp("true").Vars[0].Aggs,
			Cond: countOp("B.SAS = R.SAS && B.DAS = R.DAS").Vars[0].Cond,
		}}}},
	}
	memX, err := mem.EvalLocal(context.Background(), LocalRequest{Query: q, UpTo: 1})
	if err != nil {
		t.Fatal(err)
	}
	diskX, err := disk.EvalLocal(context.Background(), LocalRequest{Query: q, UpTo: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !memX.EqualMultiset(diskX) {
		t.Errorf("local eval mismatch:\n%s\nvs\n%s", memX, diskX)
	}
}

func TestLoadSourceValidation(t *testing.T) {
	s := NewSite(0)
	if err := s.LoadSource("T", nil); err == nil {
		t.Error("nil source must error")
	}
	if err := s.LoadSource("", gmdj.SourceOf(flowRel())); err == nil {
		t.Error("empty name must error")
	}
}
