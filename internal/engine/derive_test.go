package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"skalla/internal/expr"
	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/relation"
)

// TestDerivedKeysMatchLocalReply: a site rebuilds the keys of its local
// reply, in the reply's order, by running the reply's base pass again —
// unfiltered when the reply was witnessed, under σ otherwise — on every path
// that pass can take: the compiled kernel, the scalar pass (a FLOAT key), the
// dictionary of a single NULL-free STRING key, keys with NULLs, and disk
// sites whose segments of 1, 7 and 64 rows each have dictionaries of their
// own. σ drops some groups, so a witnessed reply holds more than a filtered
// one. A derived fragment then pairs the kept rows' keys with the shipped
// columns, and a reply count the partition no longer has is refused.
func TestDerivedKeysMatchLocalReply(t *testing.T) {
	ctx := context.Background()
	noNulls := relation.New(kernelRel(0).Schema)
	withNulls := diskRel(300)
	for i := 0; i < withNulls.Len(); i++ {
		s := relation.NewString(fmt.Sprintf("s%d", i*7%11))
		noNulls.MustAppend(relation.Tuple{s, withNulls.Value(i, 1), withNulls.Value(i, 2), withNulls.Value(i, 3)})
	}
	sigma := expr.MustParse("R.D >= 0.05")
	type site struct {
		name string
		s    *Site
	}
	sites := func(rel *relation.Relation) []site {
		mem := NewSite(0)
		if err := mem.Load(ctx, "Flow", rel); err != nil {
			t.Fatal(err)
		}
		out := []site{{"memory", mem}}
		for _, rows := range []int{1, 7, 64} {
			out = append(out, site{fmt.Sprintf("disk/%d-row segments", rows), diskSite(t, rel, rows)})
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		rel    *relation.Relation
		keys   []string
		kernel bool
	}{
		{"one STRING key without NULLs", noNulls, []string{"S"}, true},
		{"one STRING key with NULLs", withNulls, []string{"S"}, true},
		{"INT key with NULLs", withNulls, []string{"K"}, true},
		{"two keys", withNulls, []string{"S", "K"}, true},
		{"FLOAT key (scalar)", withNulls, []string{"P"}, false},
	} {
		for _, st := range sites(tc.rel) {
			for _, witness := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/%s/witness %v", tc.name, st.name, witness), func(t *testing.T) {
					q := example1(tc.keys[0])
					q.Base.Cols, q.Base.Where = tc.keys, sigma
					reply, err := st.s.EvalLocal(ctx, LocalRequest{Query: q, UpTo: 1, Witness: witness})
					if err != nil {
						t.Fatal(err)
					}
					bq := gmdj.BaseQuery{Cols: tc.keys}
					if !witness {
						bq.Where = sigma
					}
					src, err := st.s.snapshot().source("Flow")
					if err != nil {
						t.Fatal(err)
					}
					rec := obs.NewSiteRecorder()
					keys, err := gmdj.DeriveKeys(obs.WithRecorder(ctx, rec), bq, src)
					if err != nil {
						t.Fatal(err)
					}
					if keys.Len() != reply.Len() {
						t.Fatalf("derived %d keys, the reply holds %d", keys.Len(), reply.Len())
					}
					for i := 0; i < reply.Len(); i++ {
						for j := range tc.keys {
							if got, want := keys.Value(i, j), reply.Value(i, j); !got.Identical(want) {
								t.Fatalf("row %d key %s: derived %v, the reply has %v", i, tc.keys[j], got, want)
							}
						}
					}
					// The dictionary answers alone only for the one image of a
					// NULL-free STRING key under no filter.
					b := rec.Snapshot()
					dict := st.name == "memory" && tc.name == "one STRING key without NULLs" && witness
					switch {
					case dict && b.RowsScanned != 0:
						t.Errorf("the dictionary answer scanned %d rows", b.RowsScanned)
					case !dict && b.RowsScanned != int64(tc.rel.Len()):
						t.Errorf("the base pass scanned %d rows, want %d", b.RowsScanned, tc.rel.Len())
					case !dict && b.Kernel != tc.kernel:
						t.Errorf("the base pass ran compiled %v, want %v", b.Kernel, tc.kernel)
					}

					// Keep every other reply row and ship its count column.
					d := &Derive{Keys: tc.keys, Where: bq.Where, Rows: reply.Len(), Kept: make([]byte, (reply.Len()+7)/8)}
					var sel []int32
					for i := 1; i < reply.Len(); i += 2 {
						d.Kept[i>>3] |= 1 << (i & 7)
						sel = append(sel, int32(i))
					}
					cnt := reply.Schema.MustIndex("cnt")
					values := relation.FromColumns(reply.Schema.Project([]int{cnt}), reply.Columns().Select(sel, []int{cnt}))
					x, err := derivedBase(ctx, d, values, src)
					if err != nil {
						t.Fatal(err)
					}
					want, err := reply.Project(append(append([]string(nil), tc.keys...), "cnt"))
					if err != nil {
						t.Fatal(err)
					}
					want = relation.FromColumns(want.Schema, want.Columns().Select(sel, nil))
					if got, exp := x.Format(-1), want.Format(-1); got != exp {
						t.Errorf("derived fragment\n%s\nwant\n%s", got, exp)
					}

					d.Rows++
					d.Kept = append(d.Kept[:len(d.Kept):len(d.Kept)], make([]byte, (d.Rows+7)/8-len(d.Kept))...)
					if _, err := derivedBase(ctx, d, values, src); !errors.Is(err, ErrStalePartition) {
						t.Errorf("a reply of %d rows over a partition of %d groups: got %v, want %v", d.Rows, reply.Len(), err, ErrStalePartition)
					}
				})
			}
		}
	}
}

// TestDerivedIntKeyReadsKeptList: a single INT key derived with no filter —
// what a witnessed local round derives — is read off the image's key list,
// which holds the unfiltered base pass's rows: the first derivation over an
// image builds it with one kernel pass, and later ones scan nothing. The list
// equals the pass for keys with NULLs, negative keys and keys spread too wide
// to index by value; a reply count the list does not have is refused; a
// reload brings a new list; requests deriving at once build it once between
// them; and a disk table of several segments, which keeps no list, runs the
// pass every time.
func TestDerivedIntKeyReadsKeptList(t *testing.T) {
	ctx := context.Background()
	intRel := func(key func(i int) relation.Value) *relation.Relation {
		r := relation.New(kernelRel(0).Schema)
		for i := 0; i < 2500; i++ {
			r.MustAppend(relation.Tuple{relation.NewString("s"), key(i), relation.NewFloat(float64(i)), relation.NewFloat(0)})
		}
		return r
	}
	rels := map[string]*relation.Relation{
		"NULLs": diskRel(2500),
		"negative and wide": intRel(func(i int) relation.Value {
			if i%29 == 3 {
				return relation.Null
			}
			return relation.NewInt(int64(i*7919%97-48) * (1 << 50))
		}),
	}
	// deriveAll derives s's keys, every reply row kept, and returns them and
	// the rows the derivation scanned.
	deriveAll := func(s *Site, rows int) (*relation.Relation, int64, error) {
		src, err := s.snapshot().source("Flow")
		if err != nil {
			return nil, 0, err
		}
		d := &Derive{Keys: []string{"K"}, Rows: rows, Kept: make([]byte, (rows+7)/8)}
		for i := 0; i < rows; i++ {
			d.Kept[i>>3] |= 1 << (i & 7)
		}
		rec := obs.NewSiteRecorder()
		values := relation.FromColumns(relation.Schema{}, &relation.Columns{Rows: rows})
		x, err := derivedBase(obs.WithRecorder(ctx, rec), d, values, src)
		return x, rec.Snapshot().RowsScanned, err
	}
	derive := func(t *testing.T, s *Site, rows int) (*relation.Relation, int64) {
		t.Helper()
		x, scanned, err := deriveAll(s, rows)
		if err != nil {
			t.Fatal(err)
		}
		return x, scanned
	}
	pass := func(t *testing.T, s *Site) *relation.Relation {
		t.Helper()
		b, err := s.EvalBase(ctx, gmdj.BaseQuery{Detail: "Flow", Cols: []string{"K"}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for name, rel := range rels {
		t.Run(name, func(t *testing.T) {
			s := NewSite(0)
			if err := s.Load(ctx, "Flow", rel); err != nil {
				t.Fatal(err)
			}
			want := pass(t, s)
			for i, scanned := range []int64{int64(rel.Len()), 0} {
				got, n := derive(t, s, want.Len())
				if n != scanned {
					t.Errorf("derivation %d scanned %d rows, want %d", i+1, n, scanned)
				}
				if got.Format(-1) != want.Format(-1) {
					t.Errorf("derivation %d: the list\n%s\nis not the base pass\n%s", i+1, got.Format(-1), want.Format(-1))
				}
			}
			src, err := s.snapshot().source("Flow")
			if err != nil {
				t.Fatal(err)
			}
			stale := &Derive{Keys: []string{"K"}, Rows: want.Len() + 1, Kept: make([]byte, (want.Len()+8)/8)}
			empty := relation.FromColumns(relation.Schema{}, &relation.Columns{})
			if _, err := derivedBase(ctx, stale, empty, src); !errors.Is(err, ErrStalePartition) {
				t.Errorf("a reply of %d rows over %d groups: got %v, want %v", stale.Rows, want.Len(), err, ErrStalePartition)
			}

			// Reloaded with the rows reversed, the site lists the keys anew.
			reversed := relation.New(rel.Schema)
			for i := rel.Len() - 1; i >= 0; i-- {
				reversed.MustAppend(rel.Rows()[i])
			}
			if err := s.Load(ctx, "Flow", reversed); err != nil {
				t.Fatal(err)
			}
			want = pass(t, s)
			got, n := derive(t, s, want.Len())
			if n != int64(rel.Len()) || got.Format(-1) != want.Format(-1) {
				t.Errorf("after a reload: scanned %d rows, keys\n%s\nwant\n%s", n, got.Format(-1), want.Format(-1))
			}

			// Four requests deriving at once over a fresh image build one list.
			fresh := NewSite(0)
			if err := fresh.Load(ctx, "Flow", rel); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			scanned := make([]int64, 4)
			for g := range scanned {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var err error
					if _, scanned[g], err = deriveAll(fresh, want.Len()); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			if total := scanned[0] + scanned[1] + scanned[2] + scanned[3]; total != int64(rel.Len()) {
				t.Errorf("four derivations at once scanned %d rows between them, want %d", total, rel.Len())
			}

			disk := diskSite(t, rel, 700)
			want = pass(t, disk)
			for i := 0; i < 2; i++ {
				got, n := derive(t, disk, want.Len())
				if n != int64(rel.Len()) || got.Format(-1) != want.Format(-1) {
					t.Errorf("segmented, derivation %d: scanned %d rows, keys\n%s\nwant\n%s", i+1, n, got.Format(-1), want.Format(-1))
				}
			}
		})
	}
}
