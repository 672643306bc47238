// Package runner executes replicated simulation runs in parallel. The
// paper's every data point averages 50 independent runs; this package
// spreads those runs over a worker pool while keeping results bitwise
// reproducible: replication r always receives the RNG stream derived from
// (baseSeed, r), regardless of worker scheduling.
package runner

import (
	"fmt"
	"runtime"
	"sync"

	"dvecap/internal/xrand"
)

// Run executes fn for reps replications across min(GOMAXPROCS, reps)
// workers and returns the per-replication results in replication order.
// Each replication gets an independent, deterministic RNG derived from
// baseSeed. The first error aborts the whole batch.
func Run[T any](baseSeed uint64, reps int, fn func(rep int, rng *xrand.RNG) (T, error)) ([]T, error) {
	if reps <= 0 {
		return nil, fmt.Errorf("runner: reps = %d, want > 0", reps)
	}
	results := make([]T, reps)
	errs := make([]error, reps)
	workers := runtime.GOMAXPROCS(0)
	if workers > reps {
		workers = reps
	}
	root := xrand.New(baseSeed)
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				rep := next
				next++
				mu.Unlock()
				if rep >= reps {
					return
				}
				rng := root.SplitN(uint64(rep) + 1)
				results[rep], errs[rep] = fn(rep, rng)
			}
		}()
	}
	wg.Wait()
	for rep, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("runner: replication %d: %w", rep, err)
		}
	}
	return results, nil
}
