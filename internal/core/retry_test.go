package core

import (
	"sync"
	"testing"
	"time"
)

// TestBackoffEqualJitterEnvelope pins the equal-jitter contract: every sample
// of backoff(attempt) must land in [d/2, d] where d is the deterministic
// exponential ramp value for that attempt. The old implementation drew from
// the global math/rand mutex; the envelope itself must not drift with the
// switch to math/rand/v2.
func TestBackoffEqualJitterEnvelope(t *testing.T) {
	p := RetryPolicy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond}
	for attempt := 1; attempt <= 8; attempt++ {
		// Mirror the deterministic ramp: base doubling per retry, capped.
		d := p.BaseBackoff
		for i := 1; i < attempt; i++ {
			d *= 2
			if d >= p.MaxBackoff {
				d = p.MaxBackoff
				break
			}
		}
		lo, hi := d/2, d
		seenLowHalf, seenHighHalf := false, false
		for i := 0; i < 400; i++ {
			got := p.backoff(attempt)
			if got < lo || got > hi {
				t.Fatalf("attempt %d: backoff %v outside equal-jitter envelope [%v, %v]", attempt, got, lo, hi)
			}
			mid := lo + (hi-lo)/2
			if got < mid {
				seenLowHalf = true
			} else {
				seenHighHalf = true
			}
		}
		// The jitter must actually jitter: 400 draws hitting only one half of
		// the envelope means the random term is broken (probability ~2^-400).
		if !seenLowHalf || !seenHighHalf {
			t.Errorf("attempt %d: 400 samples never left one half of [%v, %v] — jitter degenerate", attempt, lo, hi)
		}
	}
	// Zero base disables backoff entirely.
	if got := (RetryPolicy{}).backoff(3); got != 0 {
		t.Errorf("zero policy backoff = %v, want 0", got)
	}
	// Uncapped ramp: attempt 3 doubles twice.
	up := RetryPolicy{BaseBackoff: 4 * time.Millisecond}
	for i := 0; i < 100; i++ {
		got := up.backoff(3)
		if got < 8*time.Millisecond || got > 16*time.Millisecond {
			t.Fatalf("uncapped attempt 3: backoff %v outside [8ms, 16ms]", got)
		}
	}
}

// TestBackoffConcurrentDraws exercises the per-P rand/v2 sources under -race:
// many goroutines drawing backoff simultaneously (as per-site retry loops do)
// must stay race-free and in-envelope.
func TestBackoffConcurrentDraws(t *testing.T) {
	p := RetryPolicy{BaseBackoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond}
	var wg sync.WaitGroup
	errs := make(chan time.Duration, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				attempt := 1 + i%5
				d := p.BaseBackoff
				for j := 1; j < attempt; j++ {
					d *= 2
					if d >= p.MaxBackoff {
						d = p.MaxBackoff
						break
					}
				}
				if got := p.backoff(attempt); got < d/2 || got > d {
					select {
					case errs <- got:
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if bad, ok := <-errs; ok {
		t.Fatalf("concurrent draw escaped the envelope: %v", bad)
	}
}
