package engine

import (
	"context"
	"fmt"
	"testing"

	"skalla/internal/gmdj"
	"skalla/internal/relation"
)

// TestWitnessBasePassParity: a witnessed local request evaluates the base
// unfiltered and counts per group the rows the base filter admits. The
// compiled base pass of a Load-ed site, Def. 1's literal loop over a
// relation with no image (gmdj.EvalLocalReply over gmdj.Data), and a disk
// site of small segments, whose per-image counts are summed in the merge of
// the images, all reply with the same relation,
// witness column included, in the same row order. The counts sum to the rows
// the filter admits, every group of the unfiltered base is there — NULL-key
// groups too — and no derived column is shipped.
func TestWitnessBasePassParity(t *testing.T) {
	ctx := context.Background()
	rel := diskRel(300)
	mem := NewSite(0)
	if err := mem.Load(ctx, "Flow", rel); err != nil {
		t.Fatal(err)
	}
	admitted := int64(0)
	for i := 0; i < rel.Len(); i++ {
		if d, _ := rel.Value(i, rel.Schema.MustIndex("D")).AsFloat(); d >= 0.03 {
			admitted++
		}
	}
	for _, key := range []string{"S", "K"} {
		q := example1(key)
		groups, err := gmdj.EvalBase(ctx, gmdj.BaseQuery{Detail: "Flow", Cols: []string{key}}, gmdj.SourceOf(rel))
		if err != nil {
			t.Fatal(err)
		}
		for upTo := 0; upTo <= 2; upTo++ {
			name := fmt.Sprintf("%s up to MD%d", key, upTo)
			req := LocalRequest{Query: q, UpTo: upTo, Witness: true}
			want, err := mem.EvalLocal(ctx, req)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			w := want.Schema.Index(gmdj.WitnessColumn)
			if w != len(want.Schema)-1 || want.Schema.Has("avgp") {
				t.Fatalf("%s: reply schema %s, want the physical columns and a trailing %s", name, want.Schema, gmdj.WitnessColumn)
			}
			if want.Len() != groups.Len() {
				t.Errorf("%s: %d groups, want the unfiltered base's %d", name, want.Len(), groups.Len())
			}
			sum := int64(0)
			for i := 0; i < want.Len(); i++ {
				sum += want.Value(i, w).Int
			}
			if sum != admitted {
				t.Errorf("%s: witness counts sum to %d, want the %d rows the filter admits", name, sum, admitted)
			}
			scalar, err := gmdj.EvalLocalReply(ctx, q, gmdj.Data{"Flow": rel}, upTo, false, true)
			if err != nil {
				t.Fatal(err)
			}
			replies := map[string]*relation.Relation{"scalar": scalar}
			for _, size := range []int{1, 7, 64} {
				if replies[fmt.Sprintf("disk, segments of %d rows", size)], err = diskSite(t, rel, size).EvalLocal(ctx, req); err != nil {
					t.Fatal(err)
				}
			}
			for path, got := range replies {
				if got.Format(-1) != want.Format(-1) {
					t.Errorf("%s: the %s reply differs from the compiled one\n%.1500s\nvs\n%.1500s", name, path, got.Format(-1), want.Format(-1))
				}
			}
		}
	}
}
