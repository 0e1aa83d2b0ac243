package gmdj

import (
	"context"
	"fmt"
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

// TestDeriveKeptKeysSelectsRows: the kept keys are the rows of DeriveKeys
// that sel lists, with the pass's row count, whether the dictionary answers
// (a NULL-free STRING key, whose kept codes are built for the kept rows
// alone) or the base pass runs; a list past the pass's rows yields no keys
// and the count.
func TestDeriveKeptKeysSelectsRows(t *testing.T) {
	ctx := context.Background()
	detail := withColumn(kernelDetail(62, 400), relation.Column{Name: "K", Kind: relation.KindString}, func(i int) relation.Value {
		return relation.NewString(fmt.Sprintf("k%d", i*7%13))
	})
	src := newColSource(detail)
	for _, bq := range []BaseQuery{{Cols: []string{"K"}}, {Cols: []string{"S", "I"}}} {
		all, err := DeriveKeys(ctx, bq, src)
		if err != nil {
			t.Fatal(err)
		}
		var sel []int32
		for i := 1; i < all.Len(); i += 2 {
			sel = append(sel, int32(i))
		}
		scanned := src.rec.Snapshot().RowsScanned
		kept, n, err := DeriveKeptKeys(src.ctx(), bq, src, sel)
		if err != nil {
			t.Fatal(err)
		}
		if dict := len(bq.Cols) == 1; dict != (src.rec.Snapshot().RowsScanned == scanned) {
			t.Errorf("%v: the dictionary answered %v, want %v", bq.Cols, !dict, dict)
		}
		want := relation.FromColumns(all.Schema, all.Columns().Select(sel, nil))
		if n != all.Len() || kept.Format(-1) != want.Format(-1) {
			t.Errorf("%v: kept keys (of %d)\n%s\nwant (of %d)\n%s", bq.Cols, n, kept.Format(-1), all.Len(), want.Format(-1))
		}
		if codes := kept.Columns().Vecs[0].Codes; len(bq.Cols) == 1 && cap(codes) != len(sel) {
			t.Errorf("%v: %d codes built for %d kept keys", bq.Cols, cap(codes), len(sel))
		}
		if kept, n, err := DeriveKeptKeys(ctx, bq, src, append(sel, int32(all.Len()))); kept != nil || n != all.Len() || err != nil {
			t.Errorf("%v: a list past the %d rows gave %v keys, %d rows, %v", bq.Cols, all.Len(), kept, n, err)
		}
	}
}
