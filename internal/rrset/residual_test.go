package rrset

import (
	"fmt"
	"slices"
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

// TestAllRootsSetIsTheResidual pins the premise of a shortfall of one: a
// set drawn with k = n_i roots is the inactive list itself, in order,
// under both models and stream contracts and with the active mask
// passed directly or primed, and drawing it examines no edge, consumes
// no stream value and leaves the sampler's scratch clean for the next
// set.
func TestAllRootsSetIsTheResidual(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Name: "all-roots", N: 300, AvgDeg: 3, UniformMix: 0.4, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	active := bitset.New(int(g.N()))
	var inactive []int32
	for v := int32(0); v < g.N(); v++ {
		if v%4 == 0 || v < 10 {
			active.Set(v)
		} else {
			inactive = append(inactive, v)
		}
	}
	k := len(inactive)
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		for _, ver := range []Version{V1, V2} {
			for _, primed := range []bool{false, true} {
				name := fmt.Sprintf("%v/V%d/primed=%v", model, ver, primed)
				s, fresh := NewSamplerVersion(g, model, ver), NewSamplerVersion(g, model, ver)
				mask := active
				if primed {
					s.PrimeActive(active)
					fresh.PrimeActive(active)
					mask = nil
				}
				r := rng.New(21)
				before := r.State()
				prefix := []int32{-1, -2}
				set := s.MRRStable(k, inactive, mask, r, prefix)
				if !slices.Equal(set[:2], prefix) || !slices.Equal(set[2:], inactive) {
					t.Fatalf("%s: %d roots of %d inactive gave %v", name, k, len(inactive), set)
				}
				if s.EdgesExamined != 0 || s.RngDraws != 0 || r.State() != before {
					t.Fatalf("%s: examined %d edges and drew %d values (stream moved: %v)",
						name, s.EdgesExamined, s.RngDraws, r.State() != before)
				}
				for seed := uint64(1); seed <= 20; seed++ {
					a := s.MRRStable(3, inactive, mask, rng.New(seed), nil)
					b := fresh.MRRStable(3, inactive, mask, rng.New(seed), nil)
					if !slices.Equal(a, b) {
						t.Fatalf("%s: next set %v, a fresh sampler draws %v", name, a, b)
					}
				}
			}
		}
	}
}

// TestAllRootsPoolTiesToSmallestID: on a pool drawn at η_i = 1 every set
// is the residual, so every candidate covers the whole pool, and both
// selectors break the tie toward the smallest inactive id; the greedy
// stops after that pick, which covers every set, on its scan and its
// index path alike. trim answers η_i = 1 with inactive[0] on this
// ground, for every rounding mode.
func TestAllRootsPoolTiesToSmallestID(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Name: "all-roots-pool", N: 400, AvgDeg: 3, UniformMix: 0.4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	active := bitset.New(int(g.N()))
	var inactive []int32
	for v := int32(0); v < g.N(); v++ {
		if v%3 == 0 {
			active.Set(v)
		} else {
			inactive = append(inactive, v)
		}
	}
	for _, rounding := range []Rounding{RoundRandomized, RoundFloor, RoundCeil} {
		e := NewEngine(g, diffusion.IC, 1)
		c := NewCollection(g)
		const sets = 300
		gs := e.Generate(c, Request{Strategy: MultiRoot(rounding), Inactive: inactive, Active: active,
			EtaI: 1, Count: sets, Seed: 5})
		if gs.EdgesExamined != 0 || gs.RngDraws != 0 {
			t.Errorf("rounding %v: pool examined %d edges and drew %d values", rounding, gs.EdgesExamined, gs.RngDraws)
		}
		for id := int32(0); id < sets; id++ {
			if !slices.Equal(c.Set(id), inactive) || c.RootK(id) != int32(len(inactive)) {
				t.Fatalf("rounding %v: set %d is not the residual (%d roots)", rounding, id, c.RootK(id))
			}
		}
		if v, cov := c.ArgmaxCoverage(inactive); v != inactive[0] || cov != sets {
			t.Errorf("rounding %v: argmax %d covering %d, want %d covering %d", rounding, v, cov, inactive[0], sets)
		}
		for _, b := range []int{2, 8} {
			for _, index := range []bool{false, true} {
				c.idxBuilt = -1 // as after a generation: the greedy scans
				if index {
					c.IndexOf(0) // a current index, which the greedy reads instead
				}
				if c.greedyScans(b) == index {
					t.Fatalf("rounding %v, b=%d: index=%v takes the other greedy path", rounding, b, index)
				}
				seeds, covered := c.GreedyMaxCoverage(b, inactive)
				if !slices.Equal(seeds, inactive[:1]) || covered != sets {
					t.Errorf("rounding %v, b=%d, index=%v: greedy %v covering %d, want [%d] covering %d",
						rounding, b, index, seeds, covered, inactive[0], sets)
				}
			}
		}
		e.Close()
	}
}
