package rrset

import (
	"math"
	"testing"

	"asti/internal/diffusion"
	"asti/internal/graph"
	"asti/internal/rng"
)

// scanPlan classifies one in-block by a direct scan of its edges, the
// way buildPlan must: per-edge coins unless every edge carries the same
// p; for a uniform block, no draws at p = 1, the geometric jump with
// ln(1−p) where V2's rule says it pays, else one coin per edge against
// the threshold ⌈p·2⁵³⌉, pre-shifted by 11 bits.
func scanPlan(in []graph.InEdge, ver Version) (kind uint8, aux uint64) {
	if len(in) == 0 {
		return planCoins, 0
	}
	for _, e := range in {
		if e.P != in[0].P {
			return planCoins, 0
		}
	}
	p := float64(in[0].P)
	switch {
	case p >= 1:
		return planTakeAll, 0
	case ver == V2 && useGeomSkip(p, len(in)):
		return planGeom, math.Float64bits(math.Log1p(-p))
	default:
		return planUniform, uint64(math.Ceil(p*(1<<53))) << 11
	}
}

// TestPlanMatchesInBlocks: after Build and after every probability
// mutator, each node's plan — kind, constant and block location, under
// both versions — must equal a direct scan of InEdges(v).
func TestPlanMatchesInBlocks(t *testing.T) {
	seen := map[uint8]bool{}
	check := func(g *graph.Graph, label string) {
		t.Helper()
		off, _ := g.FusedIn()
		for _, ver := range []Version{V1, V2} {
			s := NewSamplerVersion(g, diffusion.IC, ver)
			for v := int32(0); v < g.N(); v++ {
				in := g.InEdges(v)
				np := s.plan[v]
				kind, aux := scanPlan(in, ver)
				if np.kind != kind || np.aux != aux || np.off != off[v] || int(np.deg) != len(in) {
					t.Fatalf("%s v%d: node %d plan {kind %d aux %#x off %d deg %d}, scan {kind %d aux %#x off %d deg %d} (block %v)",
						label, ver, v, np.kind, np.aux, np.off, np.deg, kind, aux, off[v], len(in), in)
				}
				if kind == planUniform {
					// The threshold accepts exactly the draws Float64() < p.
					if k := aux >> 11; float64(k)/(1<<53) < float64(in[0].P) || float64(k-1)/(1<<53) >= float64(in[0].P) {
						t.Fatalf("%s v%d: node %d threshold %d is not ⌈p·2⁵³⌉ for p=%v", label, ver, v, k, in[0].P)
					}
				}
				seen[kind] = true
			}
		}
	}
	r := rng.New(0x91A4)
	for trial := 0; trial < 25; trial++ {
		n := int32(20 + r.Intn(40))
		b := graph.NewBuilder(n)
		// A hub whose uniform in-block is fat enough for the geometric
		// jump, then random edges mixing uniform and distinct p.
		hubP := 0.005 + 0.03*r.Float64()
		for u := int32(1); u < n; u++ {
			b.AddEdge(u, 0, hubP)
		}
		for e := 0; e < 3*int(n); e++ {
			u, v := r.Int31n(n), 1+r.Int31n(n-1)
			if u == v {
				continue
			}
			p := 0.3
			if r.Bernoulli(0.5) {
				p = 0.05 + 0.95*r.Float64()
			}
			b.AddEdge(u, v, p)
		}
		g, err := b.Build("plan-prop", true)
		if err != nil {
			t.Fatal(err)
		}
		check(g, "build")
		g.ApplyWeightedCascade()
		check(g, "weighted-cascade")
		if err := g.ApplyUniformProb(0.05); err != nil {
			t.Fatal(err)
		}
		check(g, "uniform")
		g.ApplyTrivalency(uint64(trial))
		check(g, "trivalency")
	}
	for _, kind := range []uint8{planCoins, planUniform, planGeom, planTakeAll} {
		if !seen[kind] {
			t.Errorf("plan kind %d never occurred: the graphs no longer exercise it", kind)
		}
	}
}

// tinyHub is a 400-node graph whose hub, node 0, has 399 in-edges at
// p = 1e-20 and no other edges. V2 walks that block by geometric jumps
// whose lengths, ln(u)/ln(1−p), run far past 2⁶³ edges.
func tinyHub(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(400)
	for u := int32(1); u < 400; u++ {
		b.AddEdge(u, 0, 1e-20)
	}
	g, err := b.Build("tiny-hub", true)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestTinyProbabilityHub: the hub's in-edges are all but certainly dead
// and the other nodes have no in-edges, so under either version every
// set is its roots alone — a jump beyond the block ends it, never wraps
// to a negative index.
func TestTinyProbabilityHub(t *testing.T) {
	g := tinyHub(t)
	inactive := allNodes(g.N())
	for _, ver := range []Version{V1, V2} {
		s := NewSamplerVersion(g, diffusion.IC, ver)
		if want := map[Version]uint8{V1: planUniform, V2: planGeom}[ver]; s.plan[0].kind != want {
			t.Fatalf("v%d: hub plan kind %d, want %d", ver, s.plan[0].kind, want)
		}
		hubRoots := 0
		for i := 0; i < 2000; i++ {
			set := s.RRStable(nil, rng.New(rng.SplitMix64(uint64(i))), nil)
			if len(set) != 1 {
				t.Fatalf("v%d seed %d: RR set %v, want its root alone", ver, i, set)
			}
			if set[0] == 0 {
				hubRoots++
			}
			if set = s.MRRStable(100, inactive, nil, rng.New(rng.SplitMix64(uint64(i))), nil); len(set) != 100 {
				t.Fatalf("v%d seed %d: mRR set of 100 roots has %d members", ver, i, len(set))
			}
		}
		if hubRoots == 0 {
			t.Fatalf("v%d: no RR set was rooted at the hub", ver)
		}
	}
}
