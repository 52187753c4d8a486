package diffusion

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"asti/internal/bitset"
	"asti/internal/gen"
	"asti/internal/graph"
	"asti/internal/rng"
)

func deterministicLine(t *testing.T) *graph.Graph {
	t.Helper()
	return gen.Line(5, 1.0)
}

func TestModelString(t *testing.T) {
	if IC.String() != "IC" || LT.String() != "LT" {
		t.Fatal("model names wrong")
	}
	if Model(9).Valid() {
		t.Fatal("Model(9) claims valid")
	}
	if Model(9).String() == "" {
		t.Fatal("unknown model must still print")
	}
}

// TestParseModel: ParseModel inverts String case-insensitively, reads ""
// as IC, and rejects any other name with an error naming IC and LT.
func TestParseModel(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Model
		ok   bool
	}{
		{"", IC, true},
		{"IC", IC, true},
		{"ic", IC, true},
		{"LT", LT, true},
		{"lT", LT, true},
		{"ICX", 0, false},
		{"linear threshold", 0, false},
	} {
		got, err := ParseModel(tc.name)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("ParseModel(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "IC or LT")) {
			t.Errorf("ParseModel(%q) error %v, want one naming IC and LT", tc.name, err)
		}
	}
	for _, m := range []Model{IC, LT} {
		if got, err := ParseModel(m.String()); err != nil || got != m {
			t.Errorf("ParseModel(%v.String()) = %v, %v", m, got, err)
		}
	}
}

func TestValidateLT(t *testing.T) {
	if err := ValidateLT(gen.Line(4, 0.9)); err != nil {
		t.Fatalf("line(0.9) must satisfy LT: %v", err)
	}
	if err := ValidateLT(gen.Figure2Graph()); err == nil {
		t.Fatal("figure2 violates LT (weights into v4 sum to 2) but passed")
	}
}

// TestDeterministicRealization: with all probabilities 1, both models make
// every edge live, so spread is full reachability.
func TestDeterministicRealization(t *testing.T) {
	g := deterministicLine(t)
	for _, model := range []Model{IC, LT} {
		φ := SampleRealization(g, model, rng.New(1))
		got := φ.Spread([]int32{0}, nil)
		if len(got) != 5 {
			t.Errorf("%v: spread %d, want 5", model, len(got))
		}
		if n := φ.SpreadSize([]int32{4}, nil); n != 1 {
			t.Errorf("%v: spread from tail = %d, want 1", model, n)
		}
	}
}

// TestRealizationConsistency: repeated Spread calls on one realization
// return identical results (the whole point of fixing a world).
func TestRealizationConsistency(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Name: "t", N: 200, AvgDeg: 2, UniformMix: 0.3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []Model{IC, LT} {
		φ := SampleRealization(g, model, rng.New(9))
		a := φ.Spread([]int32{3, 17}, nil)
		b := φ.Spread([]int32{3, 17}, nil)
		if len(a) != len(b) {
			t.Fatalf("%v: spread varied across calls: %d vs %d", model, len(a), len(b))
		}
	}
}

// TestSpreadMonotoneInSeeds (property): adding seeds never shrinks the
// realized spread on a fixed realization.
func TestSpreadMonotoneInSeeds(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Name: "t", N: 150, AvgDeg: 2, UniformMix: 0.3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	φ := SampleRealization(g, IC, rng.New(10))
	r := rng.New(11)
	if err := quick.Check(func(_ uint8) bool {
		a := r.Int31n(g.N())
		b := r.Int31n(g.N())
		small := φ.SpreadSize([]int32{a}, nil)
		big := φ.SpreadSize([]int32{a, b}, nil)
		return big >= small
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSpreadRespectsActiveMask: masked nodes are never activated and
// masked seeds are skipped.
func TestSpreadRespectsActiveMask(t *testing.T) {
	g := deterministicLine(t)
	φ := SampleRealization(g, IC, rng.New(2))
	active := bitset.New(5)
	active.Set(2) // break the line at node 2
	out := φ.Spread([]int32{0}, active)
	if len(out) != 2 { // 0 and 1 only
		t.Fatalf("masked spread = %v, want [0 1]", out)
	}
	for _, v := range out {
		if active.Get(v) {
			t.Fatalf("activated masked node %d", v)
		}
	}
	if n := φ.SpreadSize([]int32{2}, active); n != 0 {
		t.Fatalf("masked seed produced spread %d", n)
	}
}

// TestResidualDecomposition: spreading S1 then S2 on the residual equals
// spreading S1 ∪ S2 at once — the identity that makes adaptive observation
// sound (Eq. 3 of the paper at the realization level).
func TestResidualDecomposition(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Name: "t", N: 300, AvgDeg: 2.2, UniformMix: 0.3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(13)
	for _, model := range []Model{IC, LT} {
		φ := SampleRealization(g, model, rng.New(21))
		for trial := 0; trial < 50; trial++ {
			s1 := r.Int31n(g.N())
			s2 := r.Int31n(g.N())
			joint := φ.SpreadSize([]int32{s1, s2}, nil)

			active := bitset.New(int(g.N()))
			first := φ.Spread([]int32{s1}, nil)
			for _, v := range first {
				active.Set(v)
			}
			second := φ.Spread([]int32{s2}, active)
			if len(first)+len(second) != joint {
				t.Fatalf("%v: sequential %d+%d != joint %d (seeds %d,%d)",
					model, len(first), len(second), joint, s1, s2)
			}
		}
	}
}

// TestSimulatorMatchesRealizationDistribution: the mean spread over many
// fresh Simulator runs must match the mean over many sampled realizations.
func TestSimulatorMatchesRealizationDistribution(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Name: "t", N: 120, AvgDeg: 2, UniformMix: 0.3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int32{0, 5}
	const runs = 4000
	for _, model := range []Model{IC, LT} {
		r := rng.New(33)
		sim := NewSimulator(g, model)
		var mcMean float64
		for i := 0; i < runs; i++ {
			mcMean += float64(sim.Spread(seeds, nil, r))
		}
		mcMean /= runs

		var realMean float64
		for i := 0; i < runs; i++ {
			φ := SampleRealization(g, model, r)
			realMean += float64(φ.SpreadSize(seeds, nil))
		}
		realMean /= runs
		if math.Abs(mcMean-realMean) > 0.08*math.Max(1, realMean) {
			t.Errorf("%v: simulator mean %v vs realization mean %v", model, mcMean, realMean)
		}
	}
}

// TestSimulatorScratchIsolation: back-to-back runs do not leak visited
// state (the epoch/sparse-clear machinery).
func TestSimulatorScratchIsolation(t *testing.T) {
	g := deterministicLine(t)
	sim := NewSimulator(g, IC)
	r := rng.New(3)
	for i := 0; i < 100; i++ {
		if got := sim.Spread([]int32{0}, nil, r); got != 5 {
			t.Fatalf("run %d: spread %d, want 5", i, got)
		}
	}
}

// TestLTSingleParentInvariant: in an LT realization every node has at most
// one chosen in-edge and it is a real in-neighbor.
func TestLTSingleParentInvariant(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Name: "t", N: 100, AvgDeg: 2, UniformMix: 0.3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	φ := SampleRealization(g, LT, rng.New(44))
	for v := int32(0); v < g.N(); v++ {
		ci := φ.ChosenIn(v)
		if ci < 0 {
			continue
		}
		if int(ci) >= len(g.InEdges(v)) {
			t.Fatalf("node %d chose out-of-range in-edge %d", v, ci)
		}
	}
}

// TestICSeedDedup: duplicate seeds count once.
func TestICSeedDedup(t *testing.T) {
	g := deterministicLine(t)
	φ := SampleRealization(g, IC, rng.New(1))
	if n := φ.SpreadSize([]int32{0, 0, 0}, nil); n != 5 {
		t.Fatalf("dup seeds spread %d, want 5", n)
	}
}
