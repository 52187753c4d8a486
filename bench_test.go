package asti_test

// One benchmark per table/figure of the paper's evaluation, each running
// the corresponding bench experiment on the Tiny profile (smallest sizes
// that still exhibit every qualitative shape), plus micro-benchmarks of
// the primitives the paper's cost model is built on (mRR generation,
// forward simulation, greedy coverage, one TRIM round).
//
// To regenerate figures at realistic scale use cmd/experiments; these
// benchmarks exist so `go test -bench=.` exercises every experiment path
// and tracks the primitives' throughput.

import (
	"io"
	"testing"

	"asti"
	"asti/internal/adaptive"
	"asti/internal/bench"
	"asti/internal/diffusion"
	"asti/internal/gen"
	"asti/internal/graph"
	"asti/internal/rng"
	"asti/internal/rrset"
	"asti/internal/trim"
)

// benchProfile returns the Tiny profile with a single realization so a
// benchmark iteration is one full (small) experiment.
func benchProfile() bench.Profile {
	p := bench.Tiny()
	p.Realizations = 1
	p.Scales = map[string]float64{
		"synth-nethept":     0.1,
		"synth-epinions":    0.05,
		"synth-youtube":     0.02,
		"synth-livejournal": 0.015,
	}
	p.Thresholds = []float64{0.05, 0.1}
	p.ThresholdsSmall = []float64{0.05}
	p.Batches = []int{8}
	return p
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := bench.NewRunner(benchProfile(), nil)
		if err := r.Run(id, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates the dataset-details table (paper Table 2).
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkFigure3 regenerates the degree distributions (paper Figure 3).
func BenchmarkFigure3(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFigure4 regenerates seeds-vs-threshold under IC (paper Fig. 4).
func BenchmarkFigure4(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFigure5 regenerates time-vs-threshold under IC (paper Fig. 5).
func BenchmarkFigure5(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFigure6 regenerates seeds-vs-threshold under LT (paper Fig. 6).
func BenchmarkFigure6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFigure7 regenerates time-vs-threshold under LT (paper Fig. 7).
func BenchmarkFigure7(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkTable3 regenerates the ASTI-vs-ATEUC improvement ratios
// (paper Table 3; consumes both model sweeps).
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkFigure8 regenerates the per-realization spread comparison
// (paper Figure 8).
func BenchmarkFigure8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFigure9 regenerates spread-vs-threshold (paper Figure 9,
// Appendix C).
func BenchmarkFigure9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFigure10 regenerates the marginal-spread-per-seed trace
// (paper Figure 10, Appendix D).
func BenchmarkFigure10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkAblationRounding regenerates the root-rounding ablation
// (§3.3 Remark).
func BenchmarkAblationRounding(b *testing.B) { benchExperiment(b, "ablation-rounding") }

// BenchmarkAblationBatch regenerates the batch-size ablation (§6.2/§6.3).
func BenchmarkAblationBatch(b *testing.B) { benchExperiment(b, "ablation-batch") }

// BenchmarkAblationTruncated regenerates the truncated-vs-vanilla
// objective ablation (§6.2's 10–20× mechanism).
func BenchmarkAblationTruncated(b *testing.B) { benchExperiment(b, "ablation-truncated") }

// BenchmarkAblationScaling regenerates the Theorem 3.11 time-scaling
// check (normalized cost across graph scales).
func BenchmarkAblationScaling(b *testing.B) { benchExperiment(b, "ablation-scaling") }

// --- Primitive micro-benchmarks ---

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		Name: "bench", N: 20000, AvgDeg: 3, UniformMix: 0.4, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkMRRGenerationIC measures one mRR-set under IC (the unit of the
// paper's Lemma 3.8 cost model).
func BenchmarkMRRGenerationIC(b *testing.B) {
	g := benchGraph(b)
	s := rrset.NewSampler(g, diffusion.IC)
	r := rng.New(2)
	inactive := make([]int32, g.N())
	for i := range inactive {
		inactive[i] = int32(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MRRStable(20, inactive, nil, r, nil)
	}
}

// BenchmarkMRRGenerationLT measures one mRR-set under LT.
func BenchmarkMRRGenerationLT(b *testing.B) {
	g := benchGraph(b)
	s := rrset.NewSampler(g, diffusion.LT)
	r := rng.New(2)
	inactive := make([]int32, g.N())
	for i := range inactive {
		inactive[i] = int32(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MRRStable(20, inactive, nil, r, nil)
	}
}

// BenchmarkForwardSimulationIC measures one fresh forward cascade.
func BenchmarkForwardSimulationIC(b *testing.B) {
	g := benchGraph(b)
	sim := diffusion.NewSimulator(g, diffusion.IC)
	r := rng.New(3)
	seeds := []int32{0, 7, 42}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Spread(seeds, nil, r)
	}
}

// BenchmarkRealizationSampling measures materializing one full IC world.
func BenchmarkRealizationSampling(b *testing.B) {
	g := benchGraph(b)
	r := rng.New(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diffusion.SampleRealization(g, diffusion.IC, r)
	}
}

// BenchmarkGreedyCoverage measures the TRIM-B greedy over a realistic
// mRR pool (built through the shared sampling engine). Every call finds
// the pool's index stale, as after the generation that precedes each
// greedy in TRIM-B, IMM and OPIM-C.
func BenchmarkGreedyCoverage(b *testing.B) {
	g := benchGraph(b)
	inactive := make([]int32, g.N())
	for i := range inactive {
		inactive[i] = int32(i)
	}
	engine := rrset.NewEngine(g, diffusion.IC, 0)
	defer engine.Close()
	coll := rrset.NewCollection(g)
	engine.Generate(coll, rrset.Request{
		Strategy: rrset.MultiRoot(rrset.RoundRandomized), Inactive: inactive,
		EtaI: int64(g.N()) / 10, Count: 5000, Seed: 5,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coll.Truncate(coll.Size()) // drops no set, only the index
		coll.GreedyMaxCoverage(8, nil)
	}
}

// BenchmarkTRIMRound measures one full TRIM seed selection (Algorithm 2)
// on a fresh residual state.
func BenchmarkTRIMRound(b *testing.B) {
	g := benchGraph(b)
	inactive := make([]int32, g.N())
	for i := range inactive {
		inactive[i] = int32(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol := trim.MustNew(trim.Config{Epsilon: 0.5, Batch: 1, Truncated: true})
		st := &adaptive.State{
			G: g, Model: diffusion.IC, Eta: int64(g.N()) / 10,
			Inactive: inactive, Rng: rng.New(uint64(i)),
		}
		if _, err := pol.SelectBatch(st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaptiveRunEndToEnd measures a complete ASTI campaign through
// the public API on a small network.
func BenchmarkAdaptiveRunEndToEnd(b *testing.B) {
	g, err := asti.GenerateDataset("synth-nethept", 0.1)
	if err != nil {
		b.Fatal(err)
	}
	eta := int64(float64(g.N()) * 0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		policy, err := asti.NewASTI(0.5)
		if err != nil {
			b.Fatal(err)
		}
		world := asti.SampleRealization(g, asti.IC, uint64(i))
		if _, err := asti.RunAdaptive(g, asti.IC, eta, policy, world, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}
