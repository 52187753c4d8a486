package rrset

import (
	"testing"
	"testing/quick"

	"asti/internal/diffusion"
	"asti/internal/estimator"
	"asti/internal/gen"
	"asti/internal/rng"
)

// TestTheorem33BandOnRandomGraphs cross-validates the mRR estimator on
// graphs far from the handcrafted fixtures: on random Erdős–Rényi
// instances, the empirical Ê[Γ̃(v)] = η·(covering fraction) must sit
// inside the Theorem 3.3 band [(1−1/e)·E[Γ(v)], E[Γ(v)]] up to sampling
// noise on both sides, for both models.
func TestTheorem33BandOnRandomGraphs(t *testing.T) {
	const (
		sets    = 6000
		mcRuns  = 6000
		slack   = 0.12 // two-sided sampling-noise allowance
		eBandLo = 1 - 1/2.718281828459045
	)
	f := func(seed uint64) bool {
		g, err := gen.ErdosRenyi("er", 80, 3, true, seed)
		if err != nil {
			return false
		}
		g.ApplyWeightedCascade()
		n := int64(g.N())
		eta := n / 5
		if eta < 2 {
			eta = 2
		}
		inactive := make([]int32, g.N())
		for i := range inactive {
			inactive[i] = int32(i)
		}
		for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
			r := rng.New(seed + 1)
			sampler := NewSampler(g, model)
			coll := NewCollection(g)
			for i := 0; i < sets; i++ {
				k := RootSize(n, eta, r)
				coll.AddCountsOnly(sampler.MRRStable(k, inactive, nil, r, nil))
			}
			// Check the highest-degree node (non-trivial spread) and node 0.
			probe := []int32{0}
			var best int32
			for v := int32(1); v < g.N(); v++ {
				if g.OutDegree(v) > g.OutDegree(best) {
					best = v
				}
			}
			probe = append(probe, best)
			for _, v := range probe {
				est := float64(eta) * float64(coll.Coverage(v)) / float64(sets)
				truth := estimator.MCTruncated(g, model, []int32{v}, nil, eta, mcRuns, rng.New(seed+2))
				if truth <= 0 {
					continue
				}
				lo := (eBandLo - slack) * truth
				hi := (1 + slack) * truth
				if est < lo || est > hi {
					t.Logf("seed %d model %v node %d: Ê[Γ̃]=%.3f outside [%.3f, %.3f] (E[Γ]≈%.3f)",
						seed, model, v, est, lo, hi, truth)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
}
