package rrset

import (
	"fmt"
	"slices"
	"testing"

	"asti/internal/bitset"
	"asti/internal/diffusion"
	"asti/internal/gen"
	"asti/internal/graph"
	"asti/internal/rng"
)

// pruneStale mirrors trim's staleness rule for multi-root pools: a stored
// set survives a residual update only if its replayed root count is
// unchanged and strictly below n_i.
func pruneStale(strat RootStrategy, seed uint64, ni, etai int64) func(id, rootK int32) bool {
	return func(id, rootK int32) bool {
		if !strat.Multi() {
			return false
		}
		if rootK == 0 {
			return true
		}
		k := strat.RootSizeAt(seed, int64(id), ni, etai)
		return int64(k) >= ni || k != int(rootK)
	}
}

// advancePool brings an incrementally maintained pool to the new residual
// state: truncate to the target, prune + refresh stale sets, top up.
func advancePool(e *Engine, coll *Collection, strat RootStrategy, seed uint64,
	inactive []int32, active *bitset.Set, etai int64, delta []int32, target int) {
	if coll.Stored() > target {
		coll.Truncate(target)
	}
	req := Request{Strategy: strat, Inactive: inactive, Active: active, EtaI: etai, Seed: seed}
	stale := coll.Prune(delta, pruneStale(strat, seed, int64(len(inactive)), etai))
	e.Refresh(coll, req, stale)
	req.Count = target - coll.Stored()
	req.FirstIndex = int64(coll.Stored())
	e.Generate(coll, req)
}

// freshPool regenerates the whole pool for the residual state from
// scratch under the same position-stable seeds.
func freshPool(e *Engine, coll *Collection, strat RootStrategy, seed uint64,
	inactive []int32, active *bitset.Set, etai int64, target int) {
	coll.Reset()
	e.Generate(coll, Request{Strategy: strat, Inactive: inactive, Active: active,
		EtaI: etai, Seed: seed, Count: target})
}

// compareCollections asserts two pools are byte-identical (same sets in
// the same positions with the same root counts) and agree on coverage.
func compareCollections(t *testing.T, tag string, a, b *Collection, g *graph.Graph) {
	t.Helper()
	if a.Stored() != b.Stored() {
		t.Fatalf("%s: %d sets vs %d", tag, a.Stored(), b.Stored())
	}
	for id := int32(0); id < int32(a.Stored()); id++ {
		sa, sb := a.Set(id), b.Set(id)
		if len(sa) != len(sb) {
			t.Fatalf("%s set %d: len %d vs %d", tag, id, len(sa), len(sb))
		}
		for j := range sa {
			if sa[j] != sb[j] {
				t.Fatalf("%s set %d differs at %d: %d vs %d", tag, id, j, sa[j], sb[j])
			}
		}
		if a.RootK(id) != b.RootK(id) {
			t.Fatalf("%s set %d: rootK %d vs %d", tag, id, a.RootK(id), b.RootK(id))
		}
	}
	for v := int32(0); v < g.N(); v++ {
		if a.Coverage(v) != b.Coverage(v) {
			t.Fatalf("%s: coverage of %d: %d vs %d", tag, v, a.Coverage(v), b.Coverage(v))
		}
	}
}

// TestPruneRefreshMatchesFresh is the heart of cross-round pool reuse:
// across a multi-round residual trace, the incrementally maintained pool
// (Prune → Refresh → top-up/truncate) must be byte-identical to a pool
// fully regenerated from the position-stable seeds — for single- and
// multi-root strategies, IC and LT, and any worker count.
func TestPruneRefreshMatchesFresh(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		Name: "prune-eq", N: 1500, AvgDeg: 4, UniformMix: 0.4, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	const seed = 0xF00D
	targets := []int{1200, 1200, 1500, 900, 1300}
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		for _, strat := range []RootStrategy{SingleRoot(), MultiRoot(RoundRandomized), MultiRoot(RoundFloor)} {
			for _, workers := range []int{1, 4} {
				eInc := NewEngine(g, model, workers)
				eFresh := NewEngine(g, model, workers)
				inc := NewCollection(g)
				fresh := NewCollection(g)

				active := bitset.New(int(g.N()))
				inactive := make([]int32, g.N())
				for i := range inactive {
					inactive[i] = int32(i)
				}
				eta := int64(400)
				pick := rng.New(7)
				var delta []int32

				for round, target := range targets {
					ni := int64(len(inactive))
					etai := eta - (int64(g.N()) - ni)
					if round == 0 {
						inc.Reset()
						eInc.Generate(inc, Request{Strategy: strat, Inactive: inactive,
							Active: active, EtaI: etai, Seed: seed, Count: target})
					} else {
						advancePool(eInc, inc, strat, seed, inactive, active, etai, delta, target)
					}
					freshPool(eFresh, fresh, strat, seed, inactive, active, etai, target)
					tag := fmt.Sprintf("%v/%v/w%d/round%d", model, strat, workers, round)
					compareCollections(t, tag, inc, fresh, g)

					// Observe: activate a handful of residual nodes.
					delta = nil
					for len(delta) < 12 {
						v := inactive[pick.Intn(len(inactive))]
						if !active.Get(v) {
							active.Set(v)
							delta = append(delta, v)
						}
					}
					out := inactive[:0]
					for _, v := range inactive {
						if !active.Get(v) {
							out = append(out, v)
						}
					}
					inactive = out
				}
				eInc.Close()
				eFresh.Close()
			}
		}
	}
}

// TestPruneFlagsExactlyDeltaAndCallback pins Prune's contract on a
// hand-built pool: precisely the sets containing a delta member or
// flagged by the callback are returned, ascending.
func TestPruneFlagsExactlyDeltaAndCallback(t *testing.T) {
	g := gen.Line(8, 1.0)
	c := NewCollection(g)
	c.AddRooted([]int32{0, 1}, 1)    // 0: hit via 1
	c.AddRooted([]int32{2, 3}, 1)    // 1: clean
	c.AddRooted([]int32{4, 1, 5}, 2) // 2: hit via 1
	c.AddRooted([]int32{6}, 1)       // 3: clean, flagged by callback
	c.AddRooted([]int32{7}, 0)       // 4: clean

	stale := c.Prune([]int32{1}, func(id, rootK int32) bool { return id == 3 })
	want := []int32{0, 2, 3}
	if len(stale) != len(want) {
		t.Fatalf("stale %v, want %v", stale, want)
	}
	for i := range want {
		if stale[i] != want[i] {
			t.Fatalf("stale %v, want %v", stale, want)
		}
	}
	if got := c.Prune(nil, nil); got != nil {
		t.Fatalf("empty delta pruned %v", got)
	}
}

// TestReplaceTruncateInvariants cross-checks coverage counters, sizes and
// greedy coverage against a naive recomputation through a randomized
// Replace/Truncate/Add workload (including hole compaction).
func TestReplaceTruncateInvariants(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Name: "inv", N: 200, AvgDeg: 3, UniformMix: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollection(g)
	r := rng.New(11)
	var mirror [][]int32

	randomSet := func() []int32 {
		l := 1 + r.Intn(6)
		seen := map[int32]bool{}
		var s []int32
		for len(s) < l {
			v := int32(r.Intn(int(g.N())))
			if !seen[v] {
				seen[v] = true
				s = append(s, v)
			}
		}
		return s
	}
	check := func(step int) {
		t.Helper()
		cov := make([]int64, g.N())
		var nodes int64
		for _, s := range mirror {
			nodes += int64(len(s))
			for _, v := range s {
				cov[v]++
			}
		}
		if c.Size() != len(mirror) || c.TotalNodes() != nodes {
			t.Fatalf("step %d: size/nodes %d/%d want %d/%d", step, c.Size(), c.TotalNodes(), len(mirror), nodes)
		}
		for v := int32(0); v < g.N(); v++ {
			if c.Coverage(v) != cov[v] {
				t.Fatalf("step %d: coverage of %d is %d want %d", step, v, c.Coverage(v), cov[v])
			}
		}
		for id := range mirror {
			got := c.Set(int32(id))
			if len(got) != len(mirror[id]) {
				t.Fatalf("step %d: set %d length %d want %d", step, id, len(got), len(mirror[id]))
			}
			for j := range got {
				if got[j] != mirror[id][j] {
					t.Fatalf("step %d: set %d differs at %d", step, id, j)
				}
			}
		}
	}

	for i := 0; i < 40; i++ {
		c.AddRooted(randomSet(), 1)
		mirror = append(mirror, append([]int32(nil), c.Set(int32(len(mirror)))...))
	}
	check(0)
	for step := 1; step <= 300; step++ {
		switch op := r.Intn(10); {
		case op < 6 && len(mirror) > 0: // replace
			id := r.Intn(len(mirror))
			s := randomSet()
			c.Replace(int32(id), s, 1)
			mirror[id] = append([]int32(nil), s...)
		case op < 8: // add
			s := randomSet()
			c.AddRooted(s, 1)
			mirror = append(mirror, append([]int32(nil), s...))
		default: // truncate
			if len(mirror) > 5 {
				m := len(mirror) - 1 - r.Intn(4)
				c.Truncate(m)
				mirror = mirror[:m]
			}
		}
		if step%37 == 0 {
			check(step)
		}
	}
	check(301)

	// Greedy coverage against exhaustive recomputation on the final pool.
	seeds, covered := c.GreedyMaxCoverage(3, nil)
	if got := c.CoverageOf(seeds); got != covered {
		t.Fatalf("greedy covered %d but CoverageOf says %d", covered, got)
	}
}

// TestIndexMatchesRecount: the inverted index, whose offsets come from
// Λ_R, lists for every node exactly the stored sets a recount of the
// pool finds, in id order, on random pools churned by Add, Replace and
// Truncate. On a collection that also holds counts-only sets, where Λ_R
// overcounts the stored sets, building the index panics.
func TestIndexMatchesRecount(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Name: "idx", N: 150, AvgDeg: 3, UniformMix: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 4; seed++ {
		c := NewCollection(g)
		r := rng.New(seed)
		var mirror [][]int32
		randomSet := func() []int32 { // distinct nodes, as every sampled set holds
			perm := r.Perm(int(g.N()))[:1+r.Intn(40)]
			s := make([]int32, len(perm))
			for i, v := range perm {
				s[i] = int32(v)
			}
			return s
		}
		check := func(step int) {
			t.Helper()
			want := make([][]int32, g.N())
			for id, s := range mirror {
				for _, v := range s {
					want[v] = append(want[v], int32(id))
				}
			}
			for v := int32(0); v < g.N(); v++ {
				if got := c.IndexOf(v); !slices.Equal(got, want[v]) {
					t.Fatalf("seed %d step %d: node %d indexed in %v, a recount finds %v", seed, step, v, got, want[v])
				}
			}
		}
		for range 30 {
			s := randomSet()
			c.AddRooted(s, 1)
			mirror = append(mirror, s)
		}
		check(0)
		for step := 1; step <= 400; step++ {
			switch op := r.Intn(10); {
			case op < 6: // replace
				id, s := r.Intn(len(mirror)), randomSet()
				c.Replace(int32(id), s, 1)
				mirror[id] = s
			case op < 8: // add
				s := randomSet()
				c.AddRooted(s, 1)
				mirror = append(mirror, s)
			default: // truncate
				if len(mirror) > 5 {
					m := len(mirror) - 1 - r.Intn(4)
					c.Truncate(m)
					mirror = mirror[:m]
				}
			}
			if step%23 == 0 {
				check(step)
			}
		}
		check(401)
		c.AddCountsOnly(randomSet())
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("seed %d: IndexOf on a collection holding a counts-only set did not panic", seed)
				}
			}()
			c.IndexOf(0)
		}()
	}
}

// TestArgmaxAndGreedyTieBreakUnderReuse pins the smallest-id tie-break of
// both selection primitives, including after Replace mutated the pool —
// the determinism the reuse equivalence contract leans on.
func TestArgmaxAndGreedyTieBreakUnderReuse(t *testing.T) {
	g := gen.Line(10, 1.0)
	c := NewCollection(g)
	// Nodes 3 and 7 both covered twice; smaller id must win.
	c.AddRooted([]int32{7, 3}, 1)
	c.AddRooted([]int32{3}, 1)
	c.AddRooted([]int32{7}, 1)
	if v, cov := c.ArgmaxCoverage(nil); v != 3 || cov != 2 {
		t.Fatalf("argmax (%d,%d), want (3,2)", v, cov)
	}
	if v, _ := c.ArgmaxCoverage([]int32{3, 5, 7}); v != 3 {
		t.Fatalf("argmax over candidates picked %d, want 3", v)
	}
	seeds, _ := c.GreedyMaxCoverage(1, nil)
	if len(seeds) != 1 || seeds[0] != 3 {
		t.Fatalf("greedy picked %v, want [3]", seeds)
	}
	// Replace set 1 so 7 now ties 3 on a different support; still 3.
	c.Replace(1, []int32{3, 9}, 1)
	if v, _ := c.ArgmaxCoverage(nil); v != 3 {
		t.Fatalf("argmax after replace picked %d, want 3", v)
	}
	seeds, _ = c.GreedyMaxCoverage(2, nil)
	if seeds[0] != 3 {
		t.Fatalf("greedy after replace picked %v first, want 3", seeds)
	}
	// Shift the balance: drop the last set; 7 loses a count, 3 wins alone.
	c.Truncate(2)
	if v, cov := c.ArgmaxCoverage(nil); v != 3 || cov != 2 {
		t.Fatalf("argmax after truncate (%d,%d), want (3,2)", v, cov)
	}
}

// BenchmarkPrune measures the steady-state cost of a reuse round at the
// collection/engine level: scan the pool against a small activation
// delta, refresh the invalidated sets, top back up.
func BenchmarkPrune(b *testing.B) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Name: "prunebench", N: 20000, AvgDeg: 3, UniformMix: 0.4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	e := NewEngine(g, diffusion.IC, 0)
	defer e.Close()
	coll := NewCollection(g)
	active := bitset.New(int(g.N()))
	inactive := make([]int32, g.N())
	for i := range inactive {
		inactive[i] = int32(i)
	}
	const seed = 0xBE7C
	const target = 4096
	strat := MultiRoot(RoundFloor) // root count stable under small deltas
	etai := int64(1000)
	e.Generate(coll, Request{Strategy: strat, Inactive: inactive, Active: active,
		EtaI: etai, Seed: seed, Count: target})
	pick := rng.New(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Long runs would drain the residual and drift the workload; park
		// the timer and restart the campaign state when it runs low.
		if len(inactive) < int(g.N())/2 {
			b.StopTimer()
			active = bitset.New(int(g.N()))
			inactive = inactive[:0]
			for v := int32(0); v < g.N(); v++ {
				inactive = append(inactive, v)
			}
			coll.Reset()
			e.Generate(coll, Request{Strategy: strat, Inactive: inactive, Active: active,
				EtaI: etai, Seed: seed, Count: target})
			b.StartTimer()
		}
		// One observation: four residual nodes activate.
		var delta []int32
		for len(delta) < 4 {
			v := inactive[pick.Intn(len(inactive))]
			if !active.Get(v) {
				active.Set(v)
				delta = append(delta, v)
			}
		}
		out := inactive[:0]
		for _, v := range inactive {
			if !active.Get(v) {
				out = append(out, v)
			}
		}
		inactive = out
		stale := coll.Prune(delta, pruneStale(strat, seed, int64(len(inactive)), etai))
		e.Refresh(coll, Request{Strategy: strat, Inactive: inactive, Active: active,
			EtaI: etai, Seed: seed}, stale)
	}
}
