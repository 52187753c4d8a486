package trim

import (
	"fmt"
	"slices"
	"testing"

	"asti/internal/adaptive"
	"asti/internal/diffusion"
	"asti/internal/gen"
	"asti/internal/graph"
	"asti/internal/rng"
)

func testGraph(t testing.TB, n int32) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		Name: "test-pl", N: n, AvgDeg: 2.2, Directed: false, UniformMix: 0.25, Seed: 42,
	})
	if err != nil {
		t.Fatalf("PowerLaw: %v", err)
	}
	return g
}

// TestNewValidation rejects bad configurations.
func TestNewValidation(t *testing.T) {
	cases := []Config{
		{Epsilon: 0, Batch: 1, Truncated: true},
		{Epsilon: 1, Batch: 1, Truncated: true},
		{Epsilon: -0.1, Batch: 1, Truncated: true},
		{Epsilon: 0.5, Batch: 0, Truncated: true},
		{Epsilon: 0.5, Batch: -3, Truncated: true},
	}
	for _, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v): want error", cfg)
		}
	}
	if _, err := New(Config{Epsilon: 0.5, Batch: 1, Truncated: true}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestNames checks the derived policy names used in reports.
func TestNames(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{Epsilon: 0.5, Batch: 1, Truncated: true}, "ASTI"},
		{Config{Epsilon: 0.5, Batch: 8, Truncated: true}, "ASTI-8"},
		{Config{Epsilon: 0.5, Batch: 1, Truncated: false}, "AdaptIM"},
	} {
		if got := MustNew(tc.cfg).Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
	}
}

// TestASTIReachesEta runs the full adaptive loop on a power-law graph
// under both models and verifies the paper's feasibility guarantee: the
// realized spread always reaches η, and no seed is wasted after the
// threshold (the loop stops immediately).
func TestASTIReachesEta(t *testing.T) {
	g := testGraph(t, 400)
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		for _, eta := range []int64{4, 40, 120} {
			p := MustNew(Config{Epsilon: 0.5, Batch: 1, Truncated: true})
			φ := diffusion.SampleRealization(g, model, rng.New(uint64(eta)*7+uint64(model)))
			res, err := adaptive.Run(g, model, eta, p, φ, rng.New(99))
			if err != nil {
				t.Fatalf("%v η=%d: %v", model, eta, err)
			}
			if res.Spread < eta {
				t.Errorf("%v η=%d: spread %d below threshold", model, eta, res.Spread)
			}
			if !res.ReachedEta {
				t.Errorf("%v η=%d: ReachedEta false", model, eta)
			}
			if len(res.Seeds) == 0 || len(res.Seeds) > int(eta) {
				t.Errorf("%v η=%d: implausible seed count %d", model, eta, len(res.Seeds))
			}
			// Every round but the last must have been short of η.
			for i, tr := range res.Rounds {
				if tr.EtaIBefore <= 0 {
					t.Errorf("%v η=%d: round %d started with no shortfall", model, eta, i+1)
				}
			}
		}
	}
}

// TestBatchedReachesEta exercises TRIM-B for several batch sizes.
func TestBatchedReachesEta(t *testing.T) {
	g := testGraph(t, 400)
	for _, b := range []int{2, 4, 8} {
		p := MustNew(Config{Epsilon: 0.5, Batch: b, Truncated: true})
		φ := diffusion.SampleRealization(g, diffusion.IC, rng.New(uint64(b)))
		res, err := adaptive.Run(g, diffusion.IC, 80, p, φ, rng.New(5))
		if err != nil {
			t.Fatalf("b=%d: %v", b, err)
		}
		if res.Spread < 80 {
			t.Errorf("b=%d: spread %d below threshold", b, res.Spread)
		}
		// Each full round selects exactly b seeds (fewer only if the
		// residual graph shrank below b).
		for i, tr := range res.Rounds {
			if len(tr.Seeds) > b {
				t.Errorf("b=%d: round %d selected %d > b seeds", b, i+1, len(tr.Seeds))
			}
		}
	}
}

// TestVanillaModeReachesEta exercises the AdaptIM configuration.
func TestVanillaModeReachesEta(t *testing.T) {
	g := testGraph(t, 300)
	p := MustNew(Config{Epsilon: 0.5, Batch: 1, Truncated: false})
	φ := diffusion.SampleRealization(g, diffusion.IC, rng.New(3))
	res, err := adaptive.Run(g, diffusion.IC, 60, p, φ, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Spread < 60 {
		t.Errorf("spread %d below threshold", res.Spread)
	}
}

// TestTruncatedNeedsFewerSets verifies the paper's efficiency mechanism on
// a mid-size instance: across a full adaptive run, the truncated policy
// generates fewer reverse-reachable sets than the vanilla policy, because
// its per-round sample requirement scales with η_i/OPT_i instead of
// n_i/OPT′_i (§6.2 discussion of Figure 5).
func TestTruncatedNeedsFewerSets(t *testing.T) {
	g := testGraph(t, 600)
	eta := int64(60) // η ≪ n, the regime the paper highlights

	run := func(truncated bool) *Policy {
		p := MustNew(Config{Epsilon: 0.5, Batch: 1, Truncated: truncated})
		φ := diffusion.SampleRealization(g, diffusion.IC, rng.New(17))
		if _, err := adaptive.Run(g, diffusion.IC, eta, p, φ, rng.New(23)); err != nil {
			t.Fatal(err)
		}
		return p
	}
	trunc := run(true)
	vanilla := run(false)
	if trunc.Stats.Sets >= vanilla.Stats.Sets {
		t.Errorf("truncated generated %d sets, vanilla %d — want truncated < vanilla",
			trunc.Stats.Sets, vanilla.Stats.Sets)
	}
}

// TestRoundingModes runs the policy under all three root-rounding modes;
// all must remain feasible (the ablation compares their estimator bands,
// not feasibility).
func TestRoundingModes(t *testing.T) {
	g := testGraph(t, 300)
	for _, mode := range []Rounding{RoundRandomized, RoundFloor, RoundCeil} {
		p := MustNew(Config{Epsilon: 0.5, Batch: 1, Truncated: true, Rounding: mode})
		φ := diffusion.SampleRealization(g, diffusion.IC, rng.New(31))
		res, err := adaptive.Run(g, diffusion.IC, 50, p, φ, rng.New(37))
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if res.Spread < 50 {
			t.Errorf("mode %d: spread %d below threshold", mode, res.Spread)
		}
	}
}

// TestStatsAccumulate sanity-checks instrumentation.
func TestStatsAccumulate(t *testing.T) {
	g := testGraph(t, 200)
	p := MustNew(Config{Epsilon: 0.5, Batch: 1, Truncated: true})
	φ := diffusion.SampleRealization(g, diffusion.IC, rng.New(1))
	if _, err := adaptive.Run(g, diffusion.IC, 30, p, φ, rng.New(2)); err != nil {
		t.Fatal(err)
	}
	if p.Stats.Rounds == 0 || p.Stats.Sets == 0 || p.Stats.SetNodes < p.Stats.Sets {
		t.Errorf("implausible stats: %+v", p.Stats)
	}
}

// TestShortfallOfOneSkipsSampling: at η_i = 1 the truncated policies
// select the smallest inactive id without sampling, under every
// rounding mode and batch size, both in a round that continues a
// campaign and in a campaign's first round, which still draws its pool
// seed from the policy stream. AdaptIM, whose untruncated objective does
// not tie, still samples.
func TestShortfallOfOneSkipsSampling(t *testing.T) {
	g := testGraph(t, 300)
	var cfgs []Config
	for _, b := range []int{1, 4} {
		for _, mode := range []Rounding{RoundRandomized, RoundFloor, RoundCeil} {
			cfgs = append(cfgs, Config{Batch: b, Truncated: true, Rounding: mode})
		}
	}
	cfgs = append(cfgs, Config{Batch: 1, Truncated: false})
	for _, cfg := range cfgs {
		cfg.Epsilon, cfg.Workers, cfg.ReusePool = 0.5, 1, true
		pol := MustNew(cfg)
		name := fmt.Sprintf("%s rounding %d", pol.Name(), cfg.Rounding)

		// Round 1 selects at η_i = 10 and samples; its batch and enough
		// other nodes, node 0 first, are observed active to leave η_i = 1.
		c, err := adaptive.NewCampaign(g, diffusion.IC, 10, pol, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		batch, err := c.Propose()
		if err != nil {
			t.Fatal(err)
		}
		var activated []int32
		for _, v := range c.Inactive {
			if len(batch)+len(activated) == 9 {
				break
			}
			if !slices.Contains(batch, v) {
				activated = append(activated, v)
			}
		}
		c.Commit(batch, activated)
		sets, want := pol.Stats.Sets, c.Inactive[0]
		if c.EtaI() != 1 || sets == 0 {
			t.Fatalf("%s: round 2 at η_i = %d after %d sets", name, c.EtaI(), sets)
		}
		batch, err = c.Propose()
		if err != nil {
			t.Fatal(err)
		}
		if !cfg.Truncated {
			if pol.Stats.Sets == sets {
				t.Errorf("%s: selected %v at η_i = 1 without sampling", name, batch)
			}
			pol.Close()
			continue
		}
		if !slices.Equal(batch, []int32{want}) || pol.Stats.Sets != sets {
			t.Errorf("%s: selected %v at η_i = 1 after %d more sets, want [%d] and none",
				name, batch, pol.Stats.Sets-sets, want)
		}

		// A campaign to η = 1 selects at η_i = 1 in its first round.
		src := rng.New(7)
		if c, err = adaptive.NewCampaign(g, diffusion.IC, 1, pol, src); err != nil {
			t.Fatal(err)
		}
		sets = pol.Stats.Sets
		if batch, err = c.Propose(); err != nil {
			t.Fatal(err)
		}
		ref := rng.New(7)
		ref.Uint64() // the run's pool seed
		if !slices.Equal(batch, []int32{0}) || pol.Stats.Sets != sets || src.State() != ref.State() {
			t.Errorf("%s: first round at η_i = 1 selected %v after %d sets, pool seed drawn: %v",
				name, batch, pol.Stats.Sets-sets, src.State() == ref.State())
		}
		pol.Close()
	}
}
