package gen

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConfigurationModelValidation(t *testing.T) {
	if _, err := ConfigurationModel(ConfigModelConfig{Degrees: []int32{3}}); err == nil {
		t.Error("1-node sequence accepted")
	}
	if _, err := ConfigurationModel(ConfigModelConfig{Degrees: []int32{-1, 2}}); err == nil {
		t.Error("negative degree accepted")
	}
	if _, err := ConfigurationModel(ConfigModelConfig{Degrees: []int32{5, 1, 1}}); err == nil {
		t.Error("degree ≥ n accepted")
	}
	if _, err := ConfigurationModel(ConfigModelConfig{Degrees: []int32{0, 0}}); err == nil {
		t.Error("all-zero sequence accepted")
	}
}

func TestConfigurationModelDegreesClose(t *testing.T) {
	// Moderate degrees on a large node set: erasures are rare, so realized
	// out-degrees track the targets closely in aggregate.
	degrees := make([]int32, 2000)
	var want int64
	for i := range degrees {
		degrees[i] = int32(i%7) + 1
		want += int64(degrees[i])
	}
	g, err := ConfigurationModel(ConfigModelConfig{Name: "cm", Degrees: degrees, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2000 {
		t.Fatalf("n = %d", g.N())
	}
	got := g.M()
	if float64(got) < 0.95*float64(want) {
		t.Fatalf("realized %d edges of %d targeted — too many erasures", got, want)
	}
	// Per-node out-degree never exceeds its target.
	for v := int32(0); v < g.N(); v++ {
		if g.OutDegree(v) > degrees[v] {
			t.Fatalf("node %d out-degree %d exceeds target %d", v, g.OutDegree(v), degrees[v])
		}
	}
}

func TestConfigurationModelSimple(t *testing.T) {
	f := func(seed uint64) bool {
		degrees := make([]int32, 60)
		r := seed
		for i := range degrees {
			r = r*6364136223846793005 + 1442695040888963407
			degrees[i] = int32(r % 5)
		}
		degrees[0] = 1 // ensure nonzero total
		g, err := ConfigurationModel(ConfigModelConfig{Degrees: degrees, Seed: seed})
		if err != nil {
			return false
		}
		// Simplicity: no self-loops, no duplicate out-edges.
		for u := int32(0); u < g.N(); u++ {
			seen := map[int32]bool{}
			for _, v := range g.OutNeighbors(u) {
				if v == u || seen[v] {
					return false
				}
				seen[v] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPowerLawDegreesValidation(t *testing.T) {
	if _, err := PowerLawDegrees(1, 2.5, 3, 1); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := PowerLawDegrees(100, 1.0, 3, 1); err == nil {
		t.Error("gamma=1 accepted")
	}
	if _, err := PowerLawDegrees(100, 2.5, 0, 1); err == nil {
		t.Error("avgDeg=0 accepted")
	}
}

func TestPowerLawDegreesShape(t *testing.T) {
	const n, avg = 5000, 4.0
	degrees, err := PowerLawDegrees(n, 2.3, avg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(degrees) != n {
		t.Fatalf("length %d", len(degrees))
	}
	var sum, maxd int64
	for _, d := range degrees {
		if d < 0 || int64(d) >= n {
			t.Fatalf("degree %d out of range", d)
		}
		sum += int64(d)
		if int64(d) > maxd {
			maxd = int64(d)
		}
	}
	mean := float64(sum) / n
	if math.Abs(mean-avg) > 1.0 {
		t.Fatalf("mean degree %.2f, want ≈ %v", mean, avg)
	}
	// Heavy tail: the max should dwarf the mean.
	if float64(maxd) < 5*mean {
		t.Fatalf("max degree %d not heavy-tailed relative to mean %.2f", maxd, mean)
	}
}

func TestConfigModelEndToEnd(t *testing.T) {
	degrees, err := PowerLawDegrees(800, 2.2, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ConfigurationModel(ConfigModelConfig{Name: "cm-pl", Degrees: degrees, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "cm-pl" || g.M() == 0 {
		t.Fatalf("bad build: name=%q m=%d", g.Name(), g.M())
	}
	// Weighted-cascade probabilities: in-probs of each node are 1/indeg.
	for v := int32(0); v < g.N(); v++ {
		ind := g.InDegree(v)
		for _, e := range g.InEdges(v) {
			if math.Abs(float64(e.P)-1/float64(ind)) > 1e-6 {
				t.Fatalf("node %d in-prob %v, want %v", v, e.P, 1/float64(ind))
			}
		}
	}
}
