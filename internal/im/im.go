// Package im implements classical (non-adaptive) influence maximization
// with the OPIM-C online processing algorithm (Tang et al., SIGMOD 2018)
// — the algorithm the paper's TRIM is "similar in spirit to" (§3.4).
//
// Influence maximization is the dual of seed minimization: given a budget
// k, pick the k-seed set with maximum expected spread. OPIM-C keeps two
// disjoint pools of random RR-sets: greedy selection runs on the first,
// and the second independently validates the selected set's quality;
// the pools double until the certified approximation reaches
// (1−1/e)(1−ε).
//
// The package exists for three reasons: it documents TRIM's lineage in
// runnable form, it gives the library a complete IM capability users of
// an ASM release would expect, and its two-pool structure is the contrast
// that motivates TRIM's single-pool customization ("more efficient for
// selecting a singleton seed set", §3.4).
package im

import (
	"errors"
	"fmt"
	"math"

	"asti/internal/diffusion"
	"asti/internal/graph"
	"asti/internal/rng"
	"asti/internal/rrset"
	"asti/internal/stats"
)

// Result reports the selected seed set with its certified quality.
type Result struct {
	// Seeds is the selected set, in greedy order.
	Seeds []int32
	// SpreadLB is a high-probability lower bound on E[I(Seeds)].
	SpreadLB float64
	// Ratio is the certified approximation ratio at termination (against
	// the optimal k-seed set), at most (1−1/e).
	Ratio float64
	// Sets counts generated RR-sets across both pools.
	Sets int64
}

// Options parameterizes Select.
type Options struct {
	// Epsilon is the approximation slack ε ∈ (0,1).
	Epsilon float64
	// MaxSets caps each pool (0 = 2^20).
	MaxSets int64
	// Workers sets the sampling engine's worker count (0 = GOMAXPROCS,
	// 1 = sequential). The selected seeds are identical for every setting.
	Workers int
}

// Select runs OPIM-C: it returns a seed set of size k whose expected
// spread is, with high probability, at least (1−1/e)(1−ε) times the best
// k-set's.
func Select(g *graph.Graph, model diffusion.Model, k int, opts Options, r *rng.Source) (*Result, error) {
	if g == nil {
		return nil, errors.New("im: nil graph")
	}
	if k < 1 || int64(k) > int64(g.N()) {
		return nil, fmt.Errorf("im: k %d outside [1, n=%d]", k, g.N())
	}
	if opts.Epsilon <= 0 || opts.Epsilon >= 1 {
		return nil, fmt.Errorf("im: epsilon %v outside (0,1)", opts.Epsilon)
	}
	cap64 := opts.MaxSets
	if cap64 <= 0 {
		cap64 = 1 << 20
	}

	n := int64(g.N())
	inactive := make([]int32, g.N())
	for i := range inactive {
		inactive[i] = int32(i)
	}
	engine := rrset.NewEngine(g, model, opts.Workers)
	defer engine.Close()
	r1 := rrset.NewCollection(g) // selection pool
	r2 := rrset.NewCollection(g) // validation pool

	rhoK := stats.RhoB(k)
	delta := 1 / float64(n)
	lnChoose := stats.LogChoose(n, int64(k))
	rounds := int(math.Ceil(math.Log2(float64(cap64)))) + 1
	a1 := math.Log(3*float64(rounds)/delta) + lnChoose
	a2 := math.Log(3 * float64(rounds) / delta)

	res := &Result{}
	theta := int64(math.Ceil(4 * (lnChoose + math.Log(3/delta)) / (opts.Epsilon * opts.Epsilon)))
	if theta < 64 {
		theta = 64
	}
	if theta > cap64 {
		theta = cap64
	}
	for {
		if need := theta - int64(r1.Size()); need > 0 {
			// Both pools grow through the shared engine; each batch draws
			// one seed from the caller's stream and fans out per set.
			gs1 := engine.Generate(r1, rrset.Request{
				Strategy: rrset.SingleRoot(), Inactive: inactive,
				Count: int(need), Seed: r.Uint64(),
			})
			gs2 := engine.Generate(r2, rrset.Request{
				Strategy: rrset.SingleRoot(), Inactive: inactive,
				Count: int(need), Seed: r.Uint64(),
			})
			res.Sets += gs1.Sets + gs2.Sets
		}
		// Greedy on the selection pool; bound OPT from its coverage.
		seeds, covered1 := r1.GreedyMaxCoverage(k, nil)
		// Validate on the held-out pool: the coverage there is an unbiased
		// estimate of the selected set's true spread.
		covered2 := r2.CoverageOf(seeds)
		lb := float64(n) * stats.CoverageLower(float64(covered2), a2) / float64(r2.Size())
		ubOpt := float64(n) * stats.CoverageUpper(float64(covered1)/rhoK, a1) / float64(r1.Size())
		ratio := 0.0
		if ubOpt > 0 {
			ratio = lb / ubOpt
		}
		target := (1 - 1/math.E) * (1 - opts.Epsilon)
		if ratio >= target || int64(r1.Size()) >= cap64 {
			res.Seeds = seeds
			res.SpreadLB = lb
			res.Ratio = math.Min(ratio, 1-1/math.E)
			return res, nil
		}
		theta = int64(r1.Size()) * 2
		if theta > cap64 {
			theta = cap64
		}
	}
}
