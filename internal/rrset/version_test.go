package rrset

import (
	"fmt"
	"math"
	"testing"

	"asti/internal/diffusion"
	"asti/internal/gen"
	"asti/internal/graph"
	"asti/internal/rng"
)

// goldenGraph is the fixed graph behind the v1 byte-stability fixtures:
// a hub with a uniform in-block large enough to qualify for v2's
// geometric skipping (so the fixtures would catch v1 accidentally taking
// the new path), a weighted block that no version may skip, and a chain
// for multi-hop structure.
func goldenGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(32)
	// Uniform in-block of node 0: p=0.05, degree 24 → useGeomSkip holds
	// (24·(1−9·0.05) = 13.2 > 9). The same nodes form a p=0.35 ring so
	// sets rooted anywhere have depth to walk.
	for u := int32(1); u <= 24; u++ {
		b.AddEdge(u, 0, 0.05)
		b.AddEdge(u, u%24+1, 0.35)
	}
	// Weighted in-block of node 25: distinct probabilities.
	b.AddEdge(26, 25, 0.15)
	b.AddEdge(27, 25, 0.45)
	b.AddEdge(28, 25, 0.75)
	// Chain 31→30→29→1 at p=0.5 (uniform, but degree 1 → no skipping).
	b.AddEdge(31, 30, 0.5)
	b.AddEdge(30, 29, 0.5)
	b.AddEdge(29, 1, 0.5)
	// Tie the hub into the chain.
	b.AddEdge(25, 2, 0.3)
	b.AddEdge(0, 31, 0.9)
	g, err := b.Build("golden-v1", true)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// v1GoldenIC / v1GoldenLT are frozen v1 sampler outputs on goldenGraph:
// RRStable sets for per-set seeds SplitMix64(0xA5T + i), i = 0..9. They
// were captured from the v1 implementation and must never change — v1 is
// the contract old write-ahead journals replay under, so any diff here
// means recovery of pre-versioning logs is broken.
var v1GoldenIC = [][]int32{
	{8},
	{23, 22, 21},
	{15},
	{14},
	{1, 24, 29, 23, 22},
	{2},
	{30},
	{6, 5, 4},
	{11},
	{26},
}

var v1GoldenLT = [][]int32{
	{8},
	{23, 22, 21},
	{15},
	{14},
	{1, 24, 23, 22},
	{2},
	{30},
	{6, 5, 4},
	{11},
	{26},
}

// goldenSets regenerates the fixture sets under version ver.
func goldenSets(t testing.TB, model diffusion.Model, ver Version) [][]int32 {
	t.Helper()
	g := goldenGraph(t)
	s := NewSamplerVersion(g, model, ver)
	out := make([][]int32, 10)
	for i := range out {
		r := rng.New(rng.SplitMix64(0xA57 + uint64(i)))
		set := s.RRStable(nil, r, nil)
		out[i] = append([]int32(nil), set...)
	}
	return out
}

// TestV1GoldenByteStability pins the v1 stream contract to frozen
// fixtures: the exact sets, element order included, that v1 produced
// when versioning was introduced.
func TestV1GoldenByteStability(t *testing.T) {
	for _, tc := range []struct {
		model diffusion.Model
		want  [][]int32
	}{{diffusion.IC, v1GoldenIC}, {diffusion.LT, v1GoldenLT}} {
		got := goldenSets(t, tc.model, V1)
		for i := range tc.want {
			if fmt.Sprint(got[i]) != fmt.Sprint(tc.want[i]) {
				t.Errorf("%s set %d: got %v, want frozen %v", tc.model, i, got[i], tc.want[i])
			}
		}
	}
}

// TestV2MatchesV1OutsideGeomBlocks: on a graph where no in-block
// qualifies for geometric skipping (here p ≥ 0.5 everywhere), v2 must be
// byte-identical to v1 — the new contract only diverges where the
// optimization fires.
func TestV2MatchesV1OutsideGeomBlocks(t *testing.T) {
	g, err := gen.ErdosRenyi("no-skip", 300, 6, true, 17)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.ApplyUniformProb(0.6); err != nil { // p ≥ 0.5 → useGeomSkip never holds
		t.Fatal(err)
	}
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		s1 := NewSamplerVersion(g, model, V1)
		s2 := NewSamplerVersion(g, model, V2)
		for i := 0; i < 200; i++ {
			seed := rng.SplitMix64(0xBEEF + uint64(i))
			a := append([]int32(nil), s1.RRStable(nil, rng.New(seed), nil)...)
			b := s2.RRStable(nil, rng.New(seed), nil)
			if fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("%s seed %d: v1 %v vs v2 %v", model, i, a, b)
			}
		}
		if s1.RngDraws != s2.RngDraws {
			t.Fatalf("%s: draw counts diverged with skipping inert: v1 %d vs v2 %d", model, s1.RngDraws, s2.RngDraws)
		}
	}
}

// TestV1V2StatisticalEquivalence: on a uniform-probability graph where
// geometric skipping does fire, v1 and v2 sample from the same
// distribution — mean set size agrees within Monte-Carlo tolerance —
// while v2 consumes far fewer random draws.
func TestV1V2StatisticalEquivalence(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		Name: "equiv", N: 4000, AvgDeg: 20, UniformMix: 1.0, Seed: 29,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.ApplyUniformProb(0.01); err != nil { // low p + fat in-blocks → skipping dominates
		t.Fatal(err)
	}
	const sets = 30000
	mean := func(ver Version) (float64, int64) {
		s := NewSamplerVersion(g, diffusion.IC, ver)
		var total int64
		for i := 0; i < sets; i++ {
			// Distinct seed ranges per version: the equivalence claimed is
			// distributional, not stream-for-stream.
			seed := rng.SplitMix64(uint64(ver)<<32 + uint64(i))
			total += int64(len(s.RRStable(nil, rng.New(seed), nil)))
		}
		return float64(total) / sets, s.RngDraws
	}
	m1, d1 := mean(V1)
	m2, d2 := mean(V2)
	if rel := math.Abs(m1-m2) / m1; rel > 0.05 {
		t.Fatalf("mean set size diverged: v1 %.4f vs v2 %.4f (%.1f%%)", m1, m2, 100*rel)
	}
	if d2*2 >= d1 {
		t.Fatalf("geometric skipping saved too little: v1 %d draws vs v2 %d", d1, d2)
	}
}

// TestEngineVersionedDeterministicAcrossWorkers re-states the engine's
// determinism contract per version: for each contract, every worker
// count produces the byte-identical pool.
func TestEngineVersionedDeterministicAcrossWorkers(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		Name: "ver-workers", N: 2500, AvgDeg: 6, UniformMix: 1.0, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.ApplyWeightedCascade()
	nodes := make([]int32, g.N())
	for i := range nodes {
		nodes[i] = int32(i)
	}
	run := func(ver Version, workers int) (*Collection, GenStats) {
		e := NewEngineVersion(g, diffusion.IC, workers, ver)
		defer e.Close()
		coll := NewCollection(g)
		stats := e.Generate(coll, Request{
			Strategy: MultiRoot(RoundRandomized), Inactive: nodes, EtaI: 80,
			Count: 500, Seed: 0xFACADE,
		})
		return coll, stats
	}
	for _, ver := range []Version{V1, V2} {
		ref, refStats := run(ver, 1)
		for _, workers := range []int{2, 4} {
			got, gotStats := run(ver, workers)
			if got.Size() != ref.Size() || gotStats.SetNodes != refStats.SetNodes ||
				gotStats.RngDraws != refStats.RngDraws {
				t.Fatalf("v%d workers=%d: stats %+v vs %+v", ver, workers, gotStats, refStats)
			}
			for id := int32(0); id < int32(ref.Size()); id++ {
				if fmt.Sprint(got.Set(id)) != fmt.Sprint(ref.Set(id)) {
					t.Fatalf("v%d workers=%d: set %d differs", ver, workers, id)
				}
			}
		}
	}
}

// TestUseGeomSkipBoundary pins the decision rule: it must be a pure
// function of (p, degree) — that purity is what keeps v2
// residual-stable — and flip exactly where the draw-count model says
// skipping pays.
func TestUseGeomSkipBoundary(t *testing.T) {
	cases := []struct {
		p    float64
		d    int
		want bool
	}{
		{0.05, 24, true},       // golden-graph hub block: 24·0.55 = 13.2 > 9
		{0.05, 16, false},      // 16·0.55 = 8.8 — too small to amortize the log
		{1.0 / 9, 1000, false}, // p ≥ 1/9 never skips
		{0.11, 1000, true},     // 1000·0.01 = 10 > 9
		{0.01, 10, true},       // 10·0.91 = 9.1 > 9
		{0.01, 9, false},       // 9·0.91 = 8.19
		{0.0, 9, false},        // 9·1 = 9, not > 9
		{0.0, 10, true},        // 10·1 = 10 > 9
		{1.0 / 19, 19, true},   // weighted cascade fires from in-degree 19 up
		{1.0 / 18, 18, false},  // ...and not below
	}
	for _, c := range cases {
		if got := useGeomSkip(c.p, c.d); got != c.want {
			t.Errorf("useGeomSkip(%g, %d) = %v, want %v", c.p, c.d, got, c.want)
		}
	}
}

// benchPropagateGraph builds the benchmark graph once per probability
// setting: weighted cascade is per-node-uniform (geometric skipping
// fires on fat in-blocks), "uniform" is one global low probability.
func benchPropagateGraph(b *testing.B, weighted bool) *graph.Graph {
	b.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		Name: "bench-propagate", N: 20000, AvgDeg: 8, UniformMix: 1.0, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	if weighted {
		g.ApplyWeightedCascade()
	} else if err := g.ApplyUniformProb(0.02); err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkPropagate measures raw reverse-BFS sampling — the inner loop
// every selection spends its time in — across the model × probability
// matrix, per sampler version. Compare v1 vs v2 on the IC rows to read
// the geometric-skipping win; LT rows pin that v2 costs LT nothing.
func BenchmarkPropagate(b *testing.B) {
	for _, bc := range []struct {
		name     string
		model    diffusion.Model
		weighted bool
	}{
		{"IC/uniform", diffusion.IC, false},
		{"IC/weighted", diffusion.IC, true},
		{"LT/uniform", diffusion.LT, false},
		{"LT/weighted", diffusion.LT, true},
	} {
		g := benchPropagateGraph(b, bc.weighted)
		inactive := make([]int32, g.N())
		for i := range inactive {
			inactive[i] = int32(i)
		}
		for _, ver := range []Version{V1, V2} {
			b.Run(fmt.Sprintf("%s/v%d", bc.name, ver), func(b *testing.B) {
				s := NewSamplerVersion(g, bc.model, ver)
				r := rng.New(1)
				var nodes int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					nodes += int64(len(s.MRRStable(10, inactive, nil, r, nil)))
				}
				b.ReportMetric(float64(s.EdgesExamined)/float64(b.N), "edges/op")
				b.ReportMetric(float64(s.RngDraws)/float64(b.N), "draws/op")
				_ = nodes
			})
		}
	}
}
