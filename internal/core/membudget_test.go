package core

import (
	"errors"
	"sync"
	"testing"

	"skalla/internal/engine"
	"skalla/internal/gmdj"
	"skalla/internal/relation"
)

func TestMemBudgetChargeRelease(t *testing.T) {
	if newMemBudget(0) != nil || newMemBudget(-1) != nil {
		t.Fatal("non-positive limit should disable the budget")
	}
	var off *memBudget
	if err := off.charge(1 << 40); err != nil {
		t.Fatalf("nil budget charged: %v", err)
	}
	off.release(1 << 40) // must not panic

	b := newMemBudget(100)
	if err := b.charge(60); err != nil {
		t.Fatal(err)
	}
	if err := b.charge(40); err != nil { // exactly at the limit is fine
		t.Fatal(err)
	}
	err := b.charge(1)
	if !errors.Is(err, ErrQueryMemBudget) {
		t.Fatalf("over-budget charge error = %v, want ErrQueryMemBudget", err)
	}
	b.release(61) // drop below the limit again
	if err := b.charge(20); err != nil {
		t.Fatalf("charge after release failed: %v", err)
	}
}

func TestMemBudgetConcurrentCharges(t *testing.T) {
	b := newMemBudget(1 << 30)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				if err := b.charge(16); err != nil {
					t.Error(err)
					return
				}
				b.release(16)
			}
		}()
	}
	wg.Wait()
	if got := b.used.Load(); got != 0 {
		t.Fatalf("balanced charge/release left %d bytes accounted", got)
	}
}

// TestMergerBudget drives the merge boundaries a budget is charged at: base
// install, schema extension, and H-block staging. A budget large enough for
// the base but not the staged blocks must fail the stage with the typed
// error, and discarding the stage must return its bytes.
func TestMergerBudget(t *testing.T) {
	q := independentQuery()
	src := gmdj.Schemas{"T": tSchema}
	xs, err := gmdj.XSchemas(q, src)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := buildSegments(q, src, 2)
	if err != nil {
		t.Fatal(err)
	}
	hSchema := relation.MustSchema(
		relation.Column{Name: engine.OrdinalColumn, Kind: relation.KindInt},
		relation.Column{Name: "cnt1", Kind: relation.KindInt},
		relation.Column{Name: "avg1_sum", Kind: relation.KindInt},
		relation.Column{Name: "avg1_cnt", Kind: relation.KindInt},
	)
	newBase := func() *relation.Relation {
		base := relation.New(xs[0])
		base.MustAppend(relation.Tuple{relation.NewInt(1), relation.NewInt(0)})
		base.MustAppend(relation.Tuple{relation.NewInt(2), relation.NewInt(1)})
		return base
	}

	// Budget smaller than the base: InitBase itself fails typed.
	tiny := mustMerger(t, []string{"g", "h"}, xs, segs, newMemBudget(1))
	if err := tiny.MergeLocal(nil, false, []*relation.Relation{newBase()}, nil); !errors.Is(err, ErrQueryMemBudget) {
		t.Fatalf("InitBase under 1-byte budget = %v, want ErrQueryMemBudget", err)
	}

	// Budget that fits base + extension but not a staged H block.
	budget := newMemBudget(newBase().MemBytes() + 1024)
	m := mustMerger(t, []string{"g", "h"}, xs, segs, budget)
	if err := m.MergeLocal(nil, false, []*relation.Relation{newBase()}, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Extend(); err != nil {
		t.Fatal(err)
	}
	st := m.NewStage(0, m.X().Len(), nil)
	// The budget is charged before the ordinals are looked at, so a block this
	// size fails on the budget whatever its rows say.
	big := relation.New(hSchema)
	for i := 0; i < 100; i++ {
		big.MustAppend(relation.Tuple{
			relation.NewInt(int64(i % 2)),
			relation.NewInt(1), relation.NewInt(10), relation.NewInt(1),
		})
	}
	before := budget.used.Load()
	if err := st.Add(big); !errors.Is(err, ErrQueryMemBudget) {
		t.Fatalf("staging over budget = %v, want ErrQueryMemBudget", err)
	}
	st.Discard()
	if got := budget.used.Load(); got != before {
		t.Fatalf("Discard left %d bytes charged, want %d", got, before)
	}

	// Small blocks within budget stage, commit, and release cleanly.
	st2 := m.NewStage(0, m.X().Len(), nil)
	small := relation.New(hSchema)
	small.MustAppend(relation.Tuple{
		relation.NewInt(0),
		relation.NewInt(2), relation.NewInt(10), relation.NewInt(2),
	})
	if err := st2.Add(small); err != nil {
		t.Fatal(err)
	}
	if budget.used.Load() <= before {
		t.Fatal("staged block was not charged")
	}
	if err := m.CommitStage(st2, 0); err != nil {
		t.Fatal(err)
	}
	if got := budget.used.Load(); got != before {
		t.Fatalf("CommitStage left %d bytes charged, want %d", got, before)
	}
}
