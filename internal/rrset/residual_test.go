package rrset

import (
	"fmt"
	"testing"

	"asti/internal/bitset"
	"asti/internal/diffusion"
	"asti/internal/estimator"
	"asti/internal/gen"
	"asti/internal/rng"
)

// TestCorollary34ResidualSandwich validates Corollary 3.4: on a residual
// graph G_i (original graph with some nodes activated/masked), the
// sampled mRR estimator η_i·Pr[v ∈ R] must sandwich the exact expected
// truncated marginal spread within [(1−1/e)·E[Γ], E[Γ]].
//
// The exact side is computed on the materialized induced subgraph via
// graph.Induce + exhaustive enumeration — independently of the mask-based
// sampling path, so the test also pins the mask ≡ induced-subgraph
// equivalence.
func TestCorollary34ResidualSandwich(t *testing.T) {
	g := gen.Figure1Graph()
	active := bitset.New(int(g.N()))
	active.Set(0) // v1 observed active: the paper's Figure 1 round-2 state
	inactive := []int32{1, 2, 3, 4, 5}

	sub, mapping, err := g.Induce(inactive)
	if err != nil {
		t.Fatal(err)
	}
	ni := int64(len(inactive))
	for _, etai := range []int64{2, 3, 4} {
		// Exact E[Γ(v | S)] per residual node, on the induced graph.
		exact := map[int32]float64{}
		for newID, oldID := range mapping {
			val, err := estimator.ExactTruncatedIC(sub, []int32{int32(newID)}, etai)
			if err != nil {
				t.Fatal(err)
			}
			exact[oldID] = val
		}
		// Sampled mRR hit rates over the residual graph of the ORIGINAL.
		const draws = 200000
		r := rng.New(uint64(etai) * 97)
		s := NewSampler(g, diffusion.IC)
		hits := map[int32]int{}
		for i := 0; i < draws; i++ {
			k := RootSize(ni, etai, r)
			set := s.MRRStable(k, inactive, active, r, nil)
			for _, v := range set {
				hits[v]++
			}
		}
		lo := 1 - 1/2.718281828459045
		for _, v := range inactive {
			est := float64(etai) * float64(hits[v]) / draws
			ex := exact[v]
			slack := 0.03 * maxf(1, ex)
			if est > ex+slack {
				t.Errorf("η_i=%d v=%d: estimate %v exceeds exact %v", etai, v, est, ex)
			}
			if est < lo*ex-slack {
				t.Errorf("η_i=%d v=%d: estimate %v below (1−1/e)·%v", etai, v, est, ex)
			}
		}
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// TestCorollary34MultiRoundTrace extends the residual-sandwich test to a
// multi-round adaptive trace with a pool maintained by prune-and-top-up:
// after each observation the carried pool is pruned against the
// activation delta, refreshed and topped up, and the resulting estimator
// η_i·Pr[v ∈ R] must still sandwich the exact truncated marginal spread
// within [(1−1/e)·E[Γ], E[Γ]] on every round — the cross-validation that
// reused samples remain faithful to the residual distribution. A fully
// regenerated pool is checked against the reused one set-for-set, so the
// sandwich holding for one certifies both.
func TestCorollary34MultiRoundTrace(t *testing.T) {
	g := gen.Figure1Graph()
	eta := int64(3)
	const draws = 100000
	const seed = 0x34C0
	strat := MultiRoot(RoundRandomized)

	e := NewEngine(g, diffusion.IC, 4)
	defer e.Close()
	eFresh := NewEngine(g, diffusion.IC, 4)
	defer eFresh.Close()
	pool := NewCollection(g)
	fresh := NewCollection(g)

	active := bitset.New(int(g.N()))
	inactive := make([]int32, g.N())
	for i := range inactive {
		inactive[i] = int32(i)
	}
	// The trace: round 1 on the full graph, then v1 (id 0) observed
	// active (the paper's Figure 1 round-2 state), then v3 (id 2) too.
	observations := [][]int32{nil, {0}, {2}}

	for round, delta := range observations {
		for _, v := range delta {
			active.Set(v)
		}
		out := inactive[:0]
		for _, v := range inactive {
			if !active.Get(v) {
				out = append(out, v)
			}
		}
		inactive = out
		ni := int64(len(inactive))
		etai := eta - (int64(g.N()) - ni)
		if etai < 1 {
			t.Fatalf("round %d: trace exhausted eta", round+1)
		}

		if round == 0 {
			e.Generate(pool, Request{Strategy: strat, Inactive: inactive, Active: active,
				EtaI: etai, Seed: seed, Count: draws})
		} else {
			advancePool(e, pool, strat, seed, inactive, active, etai, delta, draws)
		}
		freshPool(eFresh, fresh, strat, seed, inactive, active, etai, draws)
		compareCollections(t, fmt.Sprintf("trace round %d", round+1), pool, fresh, g)

		// Exact truncated marginal spreads on the materialized residual.
		sub, mapping, err := g.Induce(inactive)
		if err != nil {
			t.Fatal(err)
		}
		lo := 1 - 1/2.718281828459045
		for newID, oldID := range mapping {
			exact, err := estimator.ExactTruncatedIC(sub, []int32{int32(newID)}, etai)
			if err != nil {
				t.Fatal(err)
			}
			est := float64(etai) * float64(pool.Coverage(oldID)) / draws
			slack := 0.04 * maxf(1, exact)
			if est > exact+slack {
				t.Errorf("round %d v=%d: estimate %v exceeds exact %v", round+1, oldID, est, exact)
			}
			if est < lo*exact-slack {
				t.Errorf("round %d v=%d: estimate %v below (1−1/e)·%v", round+1, oldID, est, exact)
			}
		}
	}
}
