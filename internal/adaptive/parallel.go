package adaptive

import (
	"fmt"
	"runtime"
	"sync"

	"asti/internal/diffusion"
	"asti/internal/graph"
	"asti/internal/rng"
)

// EvaluateParallel is Evaluate with the per-world runs spread across
// `workers` goroutines. Each world w derives both its realization seed
// and its policy seed from SplitMix64 of (seed, w), independent of
// scheduling, so results are identical for every worker count, and two
// policies evaluated here with equal seeds see equal worlds (the paper's
// paired protocol). The worlds differ from Evaluate's, which splits one
// stream from seed: pair policies within one evaluator, not across the
// two. Selection-time measurements are per-goroutine wall times;
// under contention they run slightly hotter than sequential ones.
//
// workers ≤ 0 selects GOMAXPROCS. The factory must return a FRESH policy
// per call (policies are not safe for concurrent use).
func EvaluateParallel(g *graph.Graph, model diffusion.Model, eta int64, factory PolicyFactory, worlds, workers int, seed uint64) (*Summary, error) {
	if err := validate(g, model, eta); err != nil {
		return nil, err
	}
	if worlds < 1 {
		return nil, fmt.Errorf("adaptive: worlds %d < 1", worlds)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > worlds {
		workers = worlds
	}

	type slot struct {
		seeds, spread, secs float64
		name                string
		err                 error
	}
	slots := make([]slot, worlds)
	var wg sync.WaitGroup
	next := make(chan int, worlds)
	for w := 0; w < worlds; w++ {
		next <- w
	}
	close(next)

	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w := range next {
				// Scheduling-independent seeding: world w always sees the
				// same realization and policy randomness.
				worldSeed := rng.SplitMix64(seed + uint64(w)*2)
				polSeed := rng.SplitMix64(seed + uint64(w)*2 + 1)
				φ := diffusion.SampleRealization(g, model, rng.New(worldSeed))
				policy, err := factory()
				if err != nil {
					slots[w].err = err
					continue
				}
				res, err := Run(g, model, eta, policy, φ, rng.New(polSeed))
				// Policies owning sampling machinery (e.g. TRIM's engine
				// pool) release it promptly instead of waiting for GC.
				if c, ok := policy.(interface{ Close() }); ok {
					c.Close()
				}
				if err != nil {
					slots[w].err = err
					continue
				}
				slots[w] = slot{
					seeds:  float64(len(res.Seeds)),
					spread: float64(res.Spread),
					secs:   res.Duration.Seconds(),
					name:   policy.Name(),
				}
			}
		}()
	}
	wg.Wait()

	sum := &Summary{Worlds: worlds}
	for w := range slots {
		if slots[w].err != nil {
			return nil, fmt.Errorf("adaptive: world %d: %w", w, slots[w].err)
		}
		sum.Policy = slots[w].name
		sum.Seeds = append(sum.Seeds, slots[w].seeds)
		sum.Spreads = append(sum.Spreads, slots[w].spread)
		sum.Seconds = append(sum.Seconds, slots[w].secs)
	}
	return sum, nil
}
