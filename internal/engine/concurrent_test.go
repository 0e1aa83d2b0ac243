package engine

import (
	"context"
	"sync"
	"testing"
	"time"

	"skalla/internal/gmdj"
	"skalla/internal/relation"
)

// bigFlowRel builds an integer-valued Flow partition large enough that an
// evaluation is reliably mid-scan when a concurrent LoadSource lands.
func bigFlowRel(rows int) *relation.Relation {
	r := relation.New(flowSchema())
	for i := 0; i < rows; i++ {
		r.MustAppend(relation.Tuple{
			relation.NewInt(int64(i % 7)),
			relation.NewInt(int64(i % 3)),
			relation.NewInt(int64(i)),
		})
	}
	return r
}

// TestLoadSourceDuringEval loads new partition generations while queries are
// running (under -race this is the satellite regression for the mid-Scan
// source swap): every evaluation must see exactly one generation — never a
// mix — because the site snapshots its catalog once at evaluation start.
func TestLoadSourceDuringEval(t *testing.T) {
	ctx := context.Background()
	s := NewSite(0)
	if err := s.Load(ctx, "Flow", bigFlowRel(5000)); err != nil {
		t.Fatal(err)
	}
	q := gmdj.Query{
		Base: gmdj.BaseQuery{Detail: "Flow", Cols: []string{"SAS"}},
		Ops:  []gmdj.Operator{countOp("B.SAS = R.SAS")},
	}
	// Each generation has a distinct row count, so a consistent snapshot
	// yields c1 ≡ count(rows with that SAS) from exactly one generation.
	gens := []int{5000, 7000, 9100}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Load(ctx, "Flow", bigFlowRel(gens[i%len(gens)])); err != nil {
				t.Error(err)
				return
			}
			i++
			time.Sleep(time.Millisecond)
		}
	}()
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		x, err := s.EvalLocal(ctx, LocalRequest{Query: q, UpTo: 1})
		if err != nil {
			t.Fatal(err)
		}
		// Sum of the per-group counts = total rows of whichever generation
		// the snapshot caught; a torn read between generations breaks this.
		ci := x.Schema.MustIndex("c")
		var total int64
		for _, row := range x.Tuples {
			total += row[ci].Int
		}
		ok := false
		for _, g := range gens {
			if total == int64(g) {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("evaluation saw a torn catalog: counted %d rows, want one of %v", total, gens)
		}
	}
	close(stop)
	wg.Wait()
}

// slowLenSource wraps a RowSource with a Len that blocks until released —
// standing in for a disk-backed source whose row count does I/O.
type slowLenSource struct {
	gmdj.RowSource
	gate chan struct{}
}

func (s slowLenSource) Len() int {
	<-s.gate
	return s.RowSource.Len()
}

// TestTablesLenOutsideLock pins the inventory bugfix: a slow Len (disk I/O)
// must not block concurrent queries, which it did when Tables held the site
// RWMutex across the Len calls.
func TestTablesLenOutsideLock(t *testing.T) {
	ctx := context.Background()
	s := NewSite(0)
	if err := s.Load(ctx, "Flow", bigFlowRel(100)); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	slow := slowLenSource{RowSource: gmdj.SourceOf(bigFlowRel(10)), gate: gate}
	if err := s.LoadSource("Slow", slow); err != nil {
		t.Fatal(err)
	}
	inventoried := make(chan []TableInfo)
	go func() { inventoried <- s.Tables(ctx) }()
	// With Tables stuck inside Len, a query against the other relation must
	// still complete: it only needs the RLock the inventory no longer holds.
	done := make(chan error, 1)
	go func() {
		_, err := s.EvalBase(ctx, gmdj.BaseQuery{Detail: "Flow", Cols: []string{"SAS"}})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query blocked behind inventory Len: Tables still holds the site lock during I/O")
	}
	close(gate)
	infos := <-inventoried
	if len(infos) != 2 {
		t.Fatalf("inventory = %v", infos)
	}
}

// TestSetWorkersEquivalence runs the same operator evaluation at several
// worker counts and demands byte-identical H output (integer aggregates are
// exact, and the engine's evaluation order is deterministic per worker count).
func TestSetWorkersEquivalence(t *testing.T) {
	ctx := context.Background()
	req := OperatorRequest{
		Base: baseFragment(0, 1, 2, 3, 4, 5, 6),
		Op:   countOp("B.SAS = R.SAS"),
	}
	var want string
	for _, workers := range []int{1, 0, 2, 7} {
		s := NewSite(0)
		if err := s.Load(ctx, "Flow", bigFlowRel(12000)); err != nil {
			t.Fatal(err)
		}
		s.SetWorkers(workers)
		h, err := s.EvalOperator(ctx, req)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		text := h.Format(1 << 20)
		if workers == 1 {
			want = text
			continue
		}
		if text != want {
			t.Fatalf("workers=%d H diverges from sequential\ngot:\n%.2000s\nwant:\n%.2000s", workers, text, want)
		}
	}
}
