package rrset

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"asti/internal/bitset"
	"asti/internal/diffusion"
	"asti/internal/estimator"
	"asti/internal/gen"
	"asti/internal/graph"
	"asti/internal/rng"
)

func allNodes(n int32) []int32 {
	xs := make([]int32, n)
	for i := range xs {
		xs[i] = int32(i)
	}
	return xs
}

func TestRootSizeExpectation(t *testing.T) {
	r := rng.New(1)
	ni, etai := int64(10), int64(3) // ni/etai = 3.333…
	const draws = 200000
	var sum float64
	for i := 0; i < draws; i++ {
		k := RootSize(ni, etai, r)
		if k != 3 && k != 4 {
			t.Fatalf("k = %d, want 3 or 4", k)
		}
		sum += float64(k)
	}
	mean := sum / draws
	if math.Abs(mean-10.0/3.0) > 0.01 {
		t.Fatalf("E[k] = %v, want 10/3", mean)
	}
}

func TestRootSizeBounds(t *testing.T) {
	r := rng.New(2)
	if k := RootSize(5, 5, r); k != 1 {
		t.Fatalf("ni=etai: k = %d, want 1", k)
	}
	for i := 0; i < 100; i++ {
		if k := RootSize(7, 1, r); k < 1 || k > 7 {
			t.Fatalf("k = %d outside [1, ni]", k)
		}
	}
}

// TestMRRMembersReachRoots: every member of an mRR-set must reach a root
// in SOME realization — with deterministic probabilities (p=1) it must
// reach in THE realization, giving an exact check.
func TestMRRMembersReachRoots(t *testing.T) {
	g := gen.Line(6, 1.0)
	s := NewSampler(g, diffusion.IC)
	r := rng.New(3)
	set := s.MRRStable(1, allNodes(6), nil, r, nil)
	// On a deterministic line, the RR set of root v is {0..v}.
	sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
	root := set[len(set)-1]
	if int32(len(set)) != root+1 {
		t.Fatalf("deterministic line RR set %v must be the prefix up to its root", set)
	}
	for i, v := range set {
		if int32(i) != v {
			t.Fatalf("set %v is not a prefix", set)
		}
	}
}

// TestMRRNoDuplicates (property): mRR sets never contain duplicates or
// active nodes, and always contain k distinct roots' worth of coverage.
func TestMRRNoDuplicates(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Name: "t", N: 150, AvgDeg: 2.5, UniformMix: 0.3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	active := bitset.New(150)
	var inactive []int32
	for v := int32(0); v < 150; v++ {
		if v%5 == 0 {
			active.Set(v)
		} else {
			inactive = append(inactive, v)
		}
	}
	r := rng.New(5)
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		s := NewSampler(g, model)
		if err := quick.Check(func(rawK uint8) bool {
			k := int(rawK)%len(inactive) + 1
			set := s.MRRStable(k, inactive, active, r, nil)
			if len(set) < k {
				return false // roots alone give k members
			}
			seen := map[int32]bool{}
			for _, v := range set {
				if seen[v] || active.Get(v) {
					return false
				}
				seen[v] = true
			}
			return true
		}, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("%v: %v", model, err)
		}
	}
}

// TestRRUnbiasedSpread: the Borgs identity E[I(S)] = n·Pr[R∩S≠∅] on a
// small graph, against the exact oracle.
func TestRRUnbiasedSpread(t *testing.T) {
	g := gen.Figure2Graph()
	s := NewSampler(g, diffusion.IC)
	r := rng.New(6)
	const draws = 300000
	hits := make([]int, g.N())
	for i := 0; i < draws; i++ {
		set := s.RRStable(nil, r, nil)
		for _, v := range set {
			hits[v]++
		}
	}
	for v := int32(0); v < g.N(); v++ {
		want, err := estimator.ExactSpreadIC(g, []int32{v})
		if err != nil {
			t.Fatal(err)
		}
		got := float64(g.N()) * float64(hits[v]) / draws
		if math.Abs(got-want) > 0.05*want {
			t.Errorf("v%d: RR estimate %v vs exact %v", v+1, got, want)
		}
	}
}

// TestMRREstimatorMatchesClosedForm: the sampled mRR hit-rate estimator
// η·Pr[v ∈ R] matches the exactly computed E[Γ̃(v)] (which Theorem 3.3's
// test already sandwiches against E[Γ]).
func TestMRREstimatorMatchesClosedForm(t *testing.T) {
	g := gen.Figure2Graph()
	eta := int64(2)
	s := NewSampler(g, diffusion.IC)
	r := rng.New(7)
	const draws = 300000
	hits := make([]int, g.N())
	for i := 0; i < draws; i++ {
		k := RootSize(int64(g.N()), eta, r)
		set := s.MRRStable(k, allNodes(g.N()), nil, r, nil)
		for _, v := range set {
			hits[v]++
		}
	}
	for v := int32(0); v < g.N(); v++ {
		want, err := estimator.ExactMRRTruncatedIC(g, []int32{v}, eta)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(eta) * float64(hits[v]) / draws
		if math.Abs(got-want) > 0.05*math.Max(0.3, want) {
			t.Errorf("v%d: sampled E[Γ̃] %v vs exact %v", v+1, got, want)
		}
	}
}

// TestLTReverseAtMostOneParentStep: on a deterministic LT line the RR set
// from root v is the whole prefix (each node's only in-edge has weight 1).
func TestLTReverseDeterministicLine(t *testing.T) {
	g := gen.Line(6, 1.0)
	s := NewSampler(g, diffusion.LT)
	r := rng.New(8)
	for i := 0; i < 20; i++ {
		set := s.RRStable(nil, r, nil)
		max := int32(-1)
		for _, v := range set {
			if v > max {
				max = v
			}
		}
		if int32(len(set)) != max+1 {
			t.Fatalf("LT RR set %v is not the full prefix of its root", set)
		}
	}
}

func TestCollectionCoverage(t *testing.T) {
	g := gen.Line(4, 1.0)
	c := NewCollection(g)
	c.Add([]int32{0, 1})
	c.Add([]int32{1, 2})
	c.Add([]int32{1})
	if c.Size() != 3 || c.TotalNodes() != 5 {
		t.Fatalf("size=%d nodes=%d", c.Size(), c.TotalNodes())
	}
	if c.Coverage(1) != 3 || c.Coverage(0) != 1 || c.Coverage(3) != 0 {
		t.Fatal("coverage counts wrong")
	}
	best, cov := c.ArgmaxCoverage(nil)
	if best != 1 || cov != 3 {
		t.Fatalf("argmax = (%d, %d)", best, cov)
	}
	// Restricted candidates.
	best, cov = c.ArgmaxCoverage([]int32{0, 2})
	if best != 0 && best != 2 {
		t.Fatalf("restricted argmax picked %d", best)
	}
	if cov != 1 {
		t.Fatalf("restricted argmax coverage %d", cov)
	}
	if got := c.CoverageOf([]int32{0, 2}); got != 2 {
		t.Fatalf("CoverageOf({0,2}) = %d, want 2", got)
	}
}

func TestGreedyMaxCoverage(t *testing.T) {
	g := gen.Line(5, 1.0)
	c := NewCollection(g)
	// Node 0 covers sets {a,b}; node 1 covers {c}; node 2 covers {a}.
	c.Add([]int32{0, 2}) // a
	c.Add([]int32{0})    // b
	c.Add([]int32{1})    // c
	seeds, covered := c.GreedyMaxCoverage(2, nil)
	if covered != 3 {
		t.Fatalf("greedy covered %d of 3", covered)
	}
	if seeds[0] != 0 || seeds[1] != 1 {
		t.Fatalf("greedy picked %v, want [0 1]", seeds)
	}
	// b larger than needed stops early once everything is covered.
	seeds, covered = c.GreedyMaxCoverage(5, nil)
	if covered != 3 || len(seeds) > 3 {
		t.Fatalf("greedy over-selected: %v covering %d", seeds, covered)
	}
	if s, cov := c.GreedyMaxCoverage(0, nil); s != nil || cov != 0 {
		t.Fatal("b=0 must select nothing")
	}
}

func TestCollectionReset(t *testing.T) {
	g := gen.Line(3, 1.0)
	c := NewCollection(g)
	c.Add([]int32{0, 1})
	c.Reset()
	if c.Size() != 0 || c.TotalNodes() != 0 || c.Coverage(0) != 0 {
		t.Fatal("Reset left state behind")
	}
	if len(c.IndexOf(0)) != 0 {
		t.Fatal("Reset left index behind")
	}
}

// TestGreedyCoverageSubmodular (property): marginal coverage of greedy
// picks is non-increasing.
func TestGreedyCoverageSubmodular(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Name: "t", N: 80, AvgDeg: 2, UniformMix: 0.3, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(g, diffusion.IC)
	r := rng.New(11)
	c := NewCollection(g)
	for i := 0; i < 500; i++ {
		c.Add(s.MRRStable(2, allNodes(80), nil, r, nil))
	}
	seeds, _ := c.GreedyMaxCoverage(10, nil)
	prev := int64(1 << 60)
	coveredSets := map[int32]bool{}
	coveredCount := int64(0)
	for _, v := range seeds {
		var marginal int64
		for _, id := range c.IndexOf(v) {
			if !coveredSets[id] {
				coveredSets[id] = true
				marginal++
			}
		}
		coveredCount += marginal
		if marginal > prev {
			t.Fatalf("greedy marginals increased: %d after %d", marginal, prev)
		}
		prev = marginal
	}
	if coveredCount == 0 {
		t.Fatal("greedy covered nothing")
	}
}

func mustPowerLaw(t testing.TB, n int32) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{Name: "b", N: n, AvgDeg: 2.5, UniformMix: 0.3, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func BenchmarkMRR_IC(b *testing.B) {
	g := mustPowerLaw(b, 10000)
	s := NewSampler(g, diffusion.IC)
	r := rng.New(1)
	inactive := allNodes(g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MRRStable(10, inactive, nil, r, nil)
	}
}

func BenchmarkMRR_LT(b *testing.B) {
	g := mustPowerLaw(b, 10000)
	s := NewSampler(g, diffusion.LT)
	r := rng.New(1)
	inactive := allNodes(g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MRRStable(10, inactive, nil, r, nil)
	}
}
