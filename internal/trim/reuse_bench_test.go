package trim

import (
	"testing"

	"asti/internal/adaptive"
	"asti/internal/diffusion"
	"asti/internal/gen"
	"asti/internal/graph"
	"asti/internal/rng"
)

// benchGraph builds the shared multi-round benchmark instance once.
var benchG *graph.Graph

func benchGraphOnce(b *testing.B) *graph.Graph {
	b.Helper()
	if benchG == nil {
		g, err := gen.PowerLaw(gen.PowerLawConfig{
			Name: "selectbench", N: 3000, AvgDeg: 4, UniformMix: 0.4, Seed: 17,
		})
		if err != nil {
			b.Fatal(err)
		}
		benchG = g
	}
	return benchG
}

// runScriptedRounds drives a policy through `rounds` adaptive rounds in
// which each observation activates exactly the proposed batch — the
// minimal activation delta, i.e. the steady state pool reuse targets.
// It returns the flattened seed sequence.
func runScriptedRounds(b testing.TB, pol *Policy, g *graph.Graph, eta int64, rounds int) []int32 {
	b.Helper()
	c, err := adaptive.NewCampaign(g, diffusion.IC, eta, pol, rng.New(99))
	if err != nil {
		b.Fatal(err)
	}
	for range rounds {
		batch, err := c.Propose()
		if err != nil {
			b.Fatal(err)
		}
		c.Commit(batch, nil)
	}
	return c.Seeds
}

// echoCampaign runs pol through a whole campaign under model in which
// each observation activates exactly the proposed batch, stopping at η.
// The shortfall falls by one batch per round, so the last round selects
// at η_i = 1 whenever η−1 is a multiple of the batch size.
func echoCampaign(tb testing.TB, pol *Policy, g *graph.Graph, model diffusion.Model, eta int64) *adaptive.Campaign {
	tb.Helper()
	c, err := adaptive.NewCampaign(g, model, eta, pol, rng.New(99))
	if err != nil {
		tb.Fatal(err)
	}
	for c.EtaI() > 0 {
		batch, err := c.Propose()
		if err != nil {
			tb.Fatal(err)
		}
		c.Commit(batch, nil)
	}
	return c
}

// BenchmarkSelectBatch measures the per-round cost of the TRIM hot path
// over a multi-round campaign with small activation deltas (each round
// activates only its own batch), with cross-round pool reuse on and off.
// This is the regime the prune-and-top-up optimization targets: the reuse
// variant should beat reset by well over 2×. A third case runs a whole
// TRIM-B campaign to η.
func BenchmarkSelectBatch(b *testing.B) {
	g := benchGraphOnce(b)
	eta := int64(float64(g.N()) * 0.3)
	const rounds = 10
	for _, mode := range []struct {
		name  string
		reuse bool
	}{{"reuse", true}, {"reset", false}} {
		b.Run(mode.name, func(b *testing.B) {
			pol := MustNew(Config{Epsilon: 0.5, Batch: 1, Truncated: true,
				Workers: 1, ReusePool: mode.reuse})
			defer pol.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runScriptedRounds(b, pol, g, eta, rounds)
			}
			b.StopTimer()
			b.ReportMetric(float64(pol.Stats.Sets)/float64(b.N), "sets/campaign")
			b.ReportMetric(float64(pol.Stats.SetsReused)/float64(b.N), "reused/campaign")
		})
	}
	// to-eta runs one ASTI-4 echo campaign to η = 25, whose last round
	// selects at η_i = 1: the one round no fixed-length case reaches.
	b.Run("to-eta", func(b *testing.B) {
		pol := MustNew(Config{Epsilon: 0.5, Batch: 4, Truncated: true,
			Workers: 1, ReusePool: true})
		defer pol.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := echoCampaign(b, pol, g, diffusion.IC, 25)
			if last := c.Rounds[len(c.Rounds)-1]; last.EtaIBefore != 1 {
				b.Fatalf("last round at η_i = %d, want 1", last.EtaIBefore)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(pol.Stats.Sets)/float64(b.N), "sets/campaign")
	})
}

// TestScriptedRoundsEquivalence pins the benchmark scenario itself to the
// determinism contract: the scripted small-delta campaign selects the
// same seeds with reuse on and off.
func TestScriptedRoundsEquivalence(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		Name: "selectbench-eq", N: 1000, AvgDeg: 4, UniformMix: 0.4, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	eta := int64(float64(g.N()) * 0.3)
	on := MustNew(Config{Epsilon: 0.5, Batch: 1, Truncated: true, Workers: 1, ReusePool: true})
	defer on.Close()
	off := MustNew(Config{Epsilon: 0.5, Batch: 1, Truncated: true, Workers: 1, ReusePool: false})
	defer off.Close()
	s1 := runScriptedRounds(t, on, g, eta, 8)
	s2 := runScriptedRounds(t, off, g, eta, 8)
	if len(s1) != len(s2) {
		t.Fatalf("seed counts differ: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("seed %d differs: %d vs %d", i, s1[i], s2[i])
		}
	}
	if on.Stats.SetsReused == 0 {
		t.Error("small-delta campaign reused no sets")
	}
}
