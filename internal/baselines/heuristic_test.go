package baselines

import (
	"math"
	"testing"

	"asti/internal/adaptive"
	"asti/internal/diffusion"
	"asti/internal/gen"
	"asti/internal/graph"
	"asti/internal/rng"
	"asti/internal/trim"
)

// runPolicy executes one adaptive run and asserts feasibility.
func runPolicy(t *testing.T, g *graph.Graph, pol adaptive.Policy, eta int64, seed uint64) *adaptive.Result {
	t.Helper()
	world := diffusion.SampleRealization(g, diffusion.IC, rng.New(seed))
	res, err := adaptive.Run(g, diffusion.IC, eta, pol, world, rng.New(seed+1))
	if err != nil {
		t.Fatalf("%s: %v", pol.Name(), err)
	}
	if res.Spread < eta {
		t.Fatalf("%s: spread %d < eta %d", pol.Name(), res.Spread, eta)
	}
	return res
}

func TestHeuristicPoliciesReachEta(t *testing.T) {
	g, err := gen.ErdosRenyi("er", 300, 5, true, 77)
	if err != nil {
		t.Fatal(err)
	}
	g.ApplyWeightedCascade()
	const eta = 60
	for _, pol := range []adaptive.Policy{
		&PageRankPolicy{},
		&DegreeDiscountPolicy{},
		&KCorePolicy{},
	} {
		res := runPolicy(t, g, pol, eta, 101)
		if len(res.Seeds) == 0 {
			t.Fatalf("%s selected no seeds", pol.Name())
		}
		seen := map[int32]bool{}
		for _, s := range res.Seeds {
			if seen[s] {
				t.Fatalf("%s selected duplicate seed %d", pol.Name(), s)
			}
			seen[s] = true
		}
	}
}

func TestPageRankPolicySkipsActivated(t *testing.T) {
	// Hub 0 dominates PageRank-by-in-degree? PageRank on out-star ranks
	// leaves; use in-star so hub tops the ranking, then pre-activate it.
	b := graph.NewBuilder(10)
	for v := int32(1); v < 10; v++ {
		b.AddEdge(v, 0, 0.5)
		b.AddEdge(0, v, 0.5)
	}
	g := b.MustBuild("star2", true)
	p := &PageRankPolicy{}
	st := newState(g, diffusion.IC, 5, rng.New(1))
	st.Active.Set(0)
	st.Inactive = st.Inactive[1:]
	batch, err := p.SelectBatch(st)
	if err != nil {
		t.Fatal(err)
	}
	if batch[0] == 0 {
		t.Fatal("policy selected an already-active node")
	}
}

// TestDegreeDiscountPolicyRejectsNaN: a NaN probability is an error from
// the round, not a ranking.
func TestDegreeDiscountPolicyRejectsNaN(t *testing.T) {
	g := gen.Line(6, 0.5)
	p := &DegreeDiscountPolicy{P: math.NaN()}
	if batch, err := p.SelectBatch(newState(g, diffusion.IC, 3, rng.New(1))); err == nil {
		t.Fatalf("p = NaN selected %v, want an error", batch)
	}
}

func TestHeuristicsCostMoreSeedsThanASTI(t *testing.T) {
	// The motivating comparison: guarantee-free rankings should not beat
	// the certified policy. Allow equality — on easy instances everyone
	// finds the hubs.
	g, err := gen.Dataset("synth-nethept")
	if err != nil {
		t.Fatal(err)
	}
	gg, err := g.Generate(0.2)
	if err != nil {
		t.Fatal(err)
	}
	eta := int64(float64(gg.N()) * 0.05)
	world := diffusion.SampleRealization(gg, diffusion.IC, rng.New(9))

	asti := trim.MustNew(trim.Config{Epsilon: 0.5, Batch: 1, Truncated: true})
	resASTI, err := adaptive.Run(gg, diffusion.IC, eta, asti, world, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	pr := &PageRankPolicy{}
	resPR, err := adaptive.Run(gg, diffusion.IC, eta, pr, world, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	if resPR.Spread < eta || resASTI.Spread < eta {
		t.Fatal("a policy missed eta")
	}
	if len(resASTI.Seeds) > 3*len(resPR.Seeds)+3 {
		t.Fatalf("ASTI (%d seeds) grossly worse than PageRank (%d) — selection machinery broken?",
			len(resASTI.Seeds), len(resPR.Seeds))
	}
}

func TestKCorePolicyResetRecomputes(t *testing.T) {
	g := gen.Star(6, 0.5)
	p := &KCorePolicy{}
	st := newState(g, diffusion.IC, 3, rng.New(1))
	if _, err := p.SelectBatch(st); err != nil {
		t.Fatal(err)
	}
	if p.order == nil {
		t.Fatal("ordering not cached")
	}
	p.Reset()
	if p.order != nil {
		t.Fatal("Reset did not clear ordering")
	}
}
