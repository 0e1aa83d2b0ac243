package gmdj

import (
	"context"
	"slices"
	"testing"

	"skalla/internal/relation"
)

// TestSharedDictionaryLinkMatchesProbe: the base kernel's output over an
// image indexes that image's dictionary, and a link from it to the image
// takes each X row's code as the detail code instead of probing the string.
// It gives the ids the probe gives — for X with a dictionary of its own, and
// for X whose dictionary is as long as the image's but lists the strings in
// another order, where only the probe is right — in X rows and detail rows
// alike.
func TestSharedDictionaryLinkMatchesProbe(t *testing.T) {
	detail := kernelDetail(54, 300)
	src := newColSource(detail)
	x, err := EvalBase(context.Background(), BaseQuery{Detail: "D", Cols: []string{"S", "I"}}, src)
	if err != nil {
		t.Fatal(err)
	}
	dIdx := detail.Schema.MustIndex("S")
	vec := &src.cols.Vecs[dIdx]
	if !sharesDict(&x.Columns().Vecs[0], vec) {
		t.Fatal("the base kernel's STRING output does not index the image's dictionary")
	}

	// own: X with a copy of the dictionary; reversed: the dictionary
	// reversed, as long as the image's, its codes rewritten to match.
	own := x.Clone()
	reversed := x.Clone()
	rv := &reversed.Columns().Vecs[0]
	rv.Dict = slices.Clone(vec.Dict)
	slices.Reverse(rv.Dict)
	for i, code := range x.Columns().Vecs[0].Codes {
		rv.Codes[i] = uint32(len(rv.Dict)) - 1 - code
	}
	if len(rv.Dict) != len(vec.Dict) || sharesDict(rv, vec) || sharesDict(&own.Columns().Vecs[0], vec) {
		t.Fatal("the probe cases share the image's dictionary")
	}

	ids := func(x *relation.Relation) ([]uint32, []uint32) {
		st, reason := compileLink(x, 0, vec, false, &scratch{})
		if reason != reasonOK {
			t.Fatalf("link did not compile: %s", reason)
		}
		rows := make([]uint32, detail.Len())
		for lo := 0; lo < len(rows); lo += blockRows {
			st.resolve(rows[lo:min(lo+blockRows, len(rows))], lo)
		}
		return slices.Clone(st.xids), rows
	}
	shared, sharedRows := ids(x)
	for name, other := range map[string]*relation.Relation{"own dictionary": own, "reversed dictionary": reversed} {
		probed, probedRows := ids(other)
		if !slices.Equal(shared, probed) || !slices.Equal(sharedRows, probedRows) {
			t.Errorf("%s: the shared dictionary's ids\n%v / %v\nthe probe's\n%v / %v", name, shared, sharedRows, probed, probedRows)
		}
	}
}
