package rrset

import (
	"slices"
	"testing"

	"asti/internal/diffusion"
	"asti/internal/gen"
	"asti/internal/graph"
	"asti/internal/rng"
)

// naiveGreedy is the reference max-coverage greedy: every pick recounts
// each node's gain over the still-uncovered stored sets and takes the
// candidate of largest gain, smaller id on ties, until b picks or no
// candidate gains anything.
func naiveGreedy(c *Collection, b int, candidates []int32) ([]int32, int64) {
	if candidates == nil {
		candidates = allNodes(c.n)
	}
	cands := slices.Clone(candidates)
	slices.Sort(cands)
	covered := make([]bool, c.Stored())
	gain := make([]int64, c.n)
	var seeds []int32
	var total int64
	for len(seeds) < b {
		clear(gain)
		for id := range covered {
			if !covered[id] {
				for _, v := range c.Set(int32(id)) {
					gain[v]++
				}
			}
		}
		best, bestGain := int32(-1), int64(0)
		for _, v := range cands {
			if gain[v] > bestGain {
				best, bestGain = v, gain[v]
			}
		}
		if bestGain == 0 {
			break
		}
		seeds = append(seeds, best)
		total += bestGain
		for id := range covered {
			if slices.Contains(c.Set(int32(id)), best) {
				covered[id] = true
			}
		}
	}
	return seeds, total
}

func greedyGraph(t testing.TB, n int32, avgDeg float64) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{Name: "greedy", N: n, AvgDeg: avgDeg, UniformMix: 0.4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// densePool is a multi-root mRR pool, where one pick covers a large
// share of the sets: the TRIM-B regime, which takes the scan path.
func densePool(t *testing.T) *Collection {
	g := greedyGraph(t, 300, 4)
	c := NewCollection(g)
	e := NewEngine(g, diffusion.IC, 1)
	defer e.Close()
	e.Generate(c, Request{Strategy: MultiRoot(RoundRandomized), Inactive: allNodes(g.N()), EtaI: 40, Count: 500, Seed: 5})
	return c
}

// handPool stores the given sets in a fresh collection over n nodes.
func handPool(n int32, sets ...[]int32) *Collection {
	c := NewCollection(gen.Line(n, 1))
	for _, s := range sets {
		c.AddRooted(s, 1)
	}
	return c
}

// TestGreedyMatchesNaiveRecount checks GreedyMaxCoverage's picks and
// coverage against naiveGreedy on pools that take each discovery path.
// The index is never current before a case's call, so it is current
// after the call exactly when the index path ran.
func TestGreedyMatchesNaiveRecount(t *testing.T) {
	// Disjoint sets of 30 nodes: every member gains 1 at every pick.
	var blocks [][]int32
	for i := int32(0); i < 4; i++ {
		var s []int32
		for v := 30 * i; v < 30*(i+1); v++ {
			s = append(s, v)
		}
		blocks = append(blocks, s)
	}
	// Every set holds node 7, so one pick covers the pool.
	var hub [][]int32
	for i := int32(0); i < 20; i++ {
		s := []int32{7}
		for v := int32(0); v < 20; v++ {
			if v != 7 {
				s = append(s, 20+(i*20+v)%180)
			}
		}
		hub = append(hub, s)
	}

	cases := []struct {
		name       string
		pool       func(t *testing.T) *Collection
		b          int
		candidates func(c *Collection) []int32
		wantIndex  bool
	}{
		{name: "dense mRR pool, small b", pool: densePool, b: 6},
		{
			name: "sparse single-root pool, k=25",
			pool: func(t *testing.T) *Collection {
				g := greedyGraph(t, 2000, 2)
				c := NewCollection(g)
				e := NewEngine(g, diffusion.IC, 1)
				defer e.Close()
				e.Generate(c, Request{Strategy: SingleRoot(), Inactive: allNodes(g.N()), Count: 3000, Seed: 6})
				return c
			},
			b:         25,
			wantIndex: true,
		},
		{
			// As trim passes it: the inactive nodes, ascending, with the
			// pool's strongest nodes activated.
			name: "candidates without activated nodes",
			pool: densePool,
			b:    4,
			candidates: func(c *Collection) []int32 {
				top, _ := naiveGreedy(c, 3, nil)
				var inactive []int32
				for v := int32(0); v < c.n; v++ {
					if v%5 != 0 && !slices.Contains(top, v) {
						inactive = append(inactive, v)
					}
				}
				return inactive
			},
		},
		{
			name: "b above the coverable nodes",
			pool: func(*testing.T) *Collection {
				return handPool(50, []int32{0, 1}, []int32{1, 2}, []int32{3}, []int32{2, 4})
			},
			b:         20,
			wantIndex: true,
		},
		{name: "every set covered before b picks", pool: func(*testing.T) *Collection { return handPool(200, hub...) }, b: 3},
		{name: "equal gains", pool: func(*testing.T) *Collection { return handPool(200, blocks...) }, b: 3},
		{
			// Candidates in descending order: ties still go to the
			// smaller id.
			name: "equal gains, descending candidates",
			pool: func(*testing.T) *Collection {
				return handPool(20, []int32{0, 1}, []int32{2, 3}, []int32{4, 5}, []int32{6, 7}, []int32{8, 9})
			},
			b: 3,
			candidates: func(*Collection) []int32 {
				return []int32{9, 8, 7, 6, 5, 4, 3, 2, 1}
			},
			wantIndex: true,
		},
		{
			name: "after Replace",
			pool: func(t *testing.T) *Collection {
				c := densePool(t)
				c.IndexOf(0) // build the index so Replace must invalidate it
				r := rng.New(3)
				for i := 0; i < 60; i++ {
					set := []int32{int32(r.Intn(int(c.n)))}
					for len(set) < 10 {
						if v := int32(r.Intn(int(c.n))); !slices.Contains(set, v) {
							set = append(set, v)
						}
					}
					c.Replace(int32(r.Intn(c.Stored())), set, 1)
				}
				return c
			},
			b: 5,
		},
		{
			name: "after Truncate",
			pool: func(t *testing.T) *Collection {
				c := densePool(t)
				c.IndexOf(0)
				c.Truncate(320)
				return c
			},
			b: 5,
		},
		{
			name: "after Reset",
			pool: func(t *testing.T) *Collection {
				c := densePool(t)
				c.GreedyMaxCoverage(4, nil)
				c.IndexOf(0)
				c.Reset()
				e := NewEngine(greedyGraph(t, 300, 4), diffusion.IC, 1)
				defer e.Close()
				e.Generate(c, Request{Strategy: MultiRoot(RoundRandomized), Inactive: allNodes(c.n), EtaI: 30, Count: 400, Seed: 8})
				return c
			},
			b: 5,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.pool(t)
			var cands []int32
			if tc.candidates != nil {
				cands = tc.candidates(c)
			}
			if c.idxBuilt == c.Stored() {
				t.Fatal("index current before the call: the path check would be vacuous")
			}
			wantSeeds, wantCov := naiveGreedy(c, tc.b, cands)
			seeds, cov := c.GreedyMaxCoverage(tc.b, cands)
			if indexed := c.idxBuilt == c.Stored(); indexed != tc.wantIndex {
				t.Errorf("index path ran = %v, want %v (E=%d, S=%d, b=%d)", indexed, tc.wantIndex, c.TotalNodes(), c.Stored(), tc.b)
			}
			if !slices.Equal(seeds, wantSeeds) || cov != wantCov {
				t.Fatalf("greedy (%v, %d), naive recount (%v, %d)", seeds, cov, wantSeeds, wantCov)
			}
			if got := c.CoverageOf(seeds); got != cov {
				t.Fatalf("greedy reports %d covered, CoverageOf says %d", cov, got)
			}
			// A repeat call reuses the scratch (and now the index).
			again, cov2 := c.GreedyMaxCoverage(tc.b, cands)
			if !slices.Equal(again, seeds) || cov2 != cov {
				t.Fatalf("repeat call (%v, %d), first (%v, %d)", again, cov2, seeds, cov)
			}
		})
	}
}

// TestGreedyPanicsOnCountsOnly: counts-only sets have no members to
// subtract, so the greedy refuses them like Prune does.
func TestGreedyPanicsOnCountsOnly(t *testing.T) {
	c := NewCollection(gen.Line(4, 1))
	c.Add([]int32{0, 1})
	c.AddCountsOnly([]int32{2})
	defer func() {
		if recover() == nil {
			t.Fatal("GreedyMaxCoverage on a counts-only collection did not panic")
		}
	}()
	c.GreedyMaxCoverage(2, nil)
}

// BenchmarkGreedyMaxCoverage measures the greedy the way TRIM-B, IMM and
// OPIM-C call it: right after a generation, so the index is not built.
// dense-b8 is a batch-dense-shaped mRR pool at b = 8 (scan path);
// sparse-k25 a single-root pool at k = 25 (index path, build included).
func BenchmarkGreedyMaxCoverage(b *testing.B) {
	for _, bc := range []struct {
		name  string
		deg   float64
		strat RootStrategy
		etai  int64
		sets  int
		k     int
		scan  bool
	}{
		{"dense-b8", 12, MultiRoot(RoundRandomized), 120, 5000, 8, true},
		{"sparse-k25", 3, SingleRoot(), 0, 50000, 25, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			g, err := gen.PowerLaw(gen.PowerLawConfig{Name: "greedybench", N: 6000, AvgDeg: bc.deg, Directed: true, UniformMix: 0.4, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			e := NewEngine(g, diffusion.IC, 0)
			defer e.Close()
			c := NewCollection(g)
			e.Generate(c, Request{Strategy: bc.strat, Inactive: allNodes(g.N()), EtaI: bc.etai, Count: bc.sets, Seed: 3})
			if c.greedyScans(bc.k) != bc.scan {
				b.Fatalf("pool takes the other path (scan = %v)", !bc.scan)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.idxBuilt = -1 // as after a generation
				c.GreedyMaxCoverage(bc.k, nil)
			}
			b.ReportMetric(float64(c.TotalNodes())/float64(c.Stored()), "entries/set")
		})
	}
}
