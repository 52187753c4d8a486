// Package imm implements the IMM influence-maximization algorithm of
// Tang, Shi and Xiao (SIGMOD 2015) — reference [40] of the paper, and the
// martingale-based ancestor of both OPIM-C (internal/im) and TRIM.
//
// IMM runs in two phases. The sampling phase searches for a lower bound
// LB on the optimal spread OPT by statistically testing the guesses
// x_i = n/2^i with geometrically growing RR pools; the node-selection
// phase sizes the final pool from LB so that greedy max-coverage on it is
// a (1 − 1/e − ε)-approximation with probability at least 1 − 1/n.
//
// The package exists as the library's second certified IM solver: OPIM-C
// certifies a ratio a posteriori from a held-out pool, IMM fixes the
// sample size a priori from LB. The cross-check between the two (they
// must agree on seed quality) is one of the repository's strongest
// correctness tests, and their sample-count contrast is an ablation the
// IM literature cares about.
package imm

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

// Options parameterizes Select.
type Options struct {
	// Epsilon is the approximation slack ε ∈ (0,1): the guarantee is
	// (1 − 1/e − ε).
	Epsilon float64
	// MaxSets caps the RR pool as a safety valve (0 = 2^21).
	MaxSets int64
	// Workers sets the sampling engine's worker count (0 = GOMAXPROCS,
	// 1 = sequential). The selected seeds are identical for every setting.
	Workers int
}

// Result reports the selected seeds and instrumentation.
type Result struct {
	// Seeds is the selected set in greedy order.
	Seeds []int32
	// SpreadEst is the pool-based estimate of E[I(Seeds)]:
	// n·coverage/θ on the final pool.
	SpreadEst float64
	// LB is the certified lower bound on OPT found by the sampling phase.
	LB float64
	// Sets counts all generated RR-sets (both phases; the final pool
	// reuses the sampling phase's sets).
	Sets int64
	// Theta is the final pool size used for node selection.
	Theta int64
}

// Select runs IMM and returns a k-seed set whose expected spread is, with
// probability at least 1 − 1/n, at least (1 − 1/e − ε)·OPT.
func Select(g *graph.Graph, model diffusion.Model, k int, opts Options, r *rng.Source) (*Result, error) {
	if g == nil {
		return nil, errors.New("imm: nil graph")
	}
	if !model.Valid() {
		return nil, errors.New("imm: unknown diffusion model")
	}
	n := int64(g.N())
	if k < 1 || int64(k) > n {
		return nil, fmt.Errorf("imm: k %d outside [1, n=%d]", k, n)
	}
	if opts.Epsilon <= 0 || opts.Epsilon >= 1 {
		return nil, fmt.Errorf("imm: epsilon %v outside (0,1)", opts.Epsilon)
	}
	cap64 := opts.MaxSets
	if cap64 <= 0 {
		cap64 = 1 << 21
	}

	inactive := make([]int32, g.N())
	for i := range inactive {
		inactive[i] = int32(i)
	}
	engine := rrset.NewEngine(g, model, opts.Workers)
	defer engine.Close()
	coll := rrset.NewCollection(g)
	res := &Result{}
	// grow extends the pool to the target size through the shared engine.
	grow := func(target int64) {
		if need := target - int64(coll.Size()); need > 0 {
			gs := engine.Generate(coll, rrset.Request{
				Strategy: rrset.SingleRoot(), Inactive: inactive,
				Count: int(need), Seed: r.Uint64(),
			})
			res.Sets += gs.Sets
		}
	}

	nf := float64(n)
	eps := opts.Epsilon
	lnN := math.Log(nf)
	lnChoose := stats.LogChoose(n, int64(k))

	// Sampling phase (IMM Algorithm 2): ε' = √2·ε, test x_i = n/2^i.
	epsP := math.Sqrt2 * eps
	lambdaP := (2 + 2*epsP/3) * (lnChoose + lnN + math.Log(math.Log2(nf))) * nf / (epsP * epsP)
	lb := 1.0
	maxI := int(math.Ceil(math.Log2(nf))) - 1
	if maxI < 1 {
		maxI = 1
	}
	for i := 1; i <= maxI; i++ {
		x := nf / math.Exp2(float64(i))
		thetaI := int64(math.Ceil(lambdaP / x))
		if thetaI > cap64 {
			thetaI = cap64
		}
		grow(thetaI)
		seeds, covered := coll.GreedyMaxCoverage(k, nil)
		frac := float64(covered) / float64(coll.Size())
		if nf*frac >= (1+epsP)*x {
			lb = nf * frac / (1 + epsP)
			_ = seeds
			break
		}
		if int64(coll.Size()) >= cap64 {
			break
		}
	}
	res.LB = lb

	// Node-selection pool size (IMM Theorem 1): θ = λ*/LB.
	alpha := math.Sqrt(lnN + math.Log(2))
	beta := math.Sqrt((1 - 1/math.E) * (lnChoose + lnN + math.Log(2)))
	lambdaStar := 2 * nf * math.Pow((1-1/math.E)*alpha+beta, 2) / (eps * eps)
	theta := int64(math.Ceil(lambdaStar / lb))
	if theta > cap64 {
		theta = cap64
	}
	if theta < 64 {
		theta = 64
	}
	grow(theta)
	res.Theta = int64(coll.Size())

	seeds, covered := coll.GreedyMaxCoverage(k, nil)
	res.Seeds = seeds
	res.SpreadEst = nf * float64(covered) / float64(coll.Size())
	return res, nil
}
