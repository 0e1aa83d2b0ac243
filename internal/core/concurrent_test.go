package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"skalla/internal/gmdj"
	"skalla/internal/stats"
)

// The paper notes the coordinator "may consist of multiple instances, e.g.,
// each client may have its own coordinator instance". Sites must therefore
// serve concurrent coordinators safely; this hammers one site set from
// several coordinators and checks every result against the oracle.
func TestConcurrentCoordinators(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	global := randomGlobal(rng, 200, 12)
	sites, cat := buildCluster(t, global, "T", 3, 5)

	queries := []gmdj.Query{chainQuery(), independentQuery(), nonAlignedQuery()}
	expected := make([]int, len(queries))
	for i, q := range queries {
		want, err := gmdj.EvalCentral(q, gmdj.Data{"T": global}, true)
		if err != nil {
			t.Fatal(err)
		}
		expected[i] = want.Len()
	}

	const coordinators = 4
	const iterations = 5
	var wg sync.WaitGroup
	errs := make(chan error, coordinators*iterations)
	for c := 0; c < coordinators; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			coord, err := New(sites, cat, stats.NetModel{})
			if err != nil {
				errs <- err
				return
			}
			coord.SetRowBlocking(c) // different blocking per coordinator
			localRng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < iterations; i++ {
				qi := localRng.Intn(len(queries))
				sel := switchSelection(localRng.Intn(2) == 0, localRng.Intn(2) == 0, localRng.Intn(2) == 0, localRng.Intn(2) == 0)
				res, err := coord.ExecuteWith(context.Background(), queries[qi], sel)
				if err != nil {
					errs <- err
					return
				}
				if res.Rel.Len() != expected[qi] {
					t.Errorf("coordinator %d: query %d returned %d groups, want %d",
						c, qi, res.Rel.Len(), expected[qi])
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
