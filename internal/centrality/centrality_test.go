package centrality

import (
	"math"
	"testing"
	"testing/quick"

	"asti/internal/gen"
	"asti/internal/graph"
)

// cycle builds a directed n-cycle.
func cycle(n int32) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := int32(0); v < n; v++ {
		b.AddEdge(v, (v+1)%n, 0.5)
	}
	return b.MustBuild("cycle", true)
}

func TestPageRankUniformOnCycle(t *testing.T) {
	g := cycle(10)
	scores, iters, err := PageRank(g, PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if iters < 1 {
		t.Fatalf("iters = %d", iters)
	}
	want := 0.1
	for v, s := range scores {
		if math.Abs(s-want) > 1e-6 {
			t.Fatalf("node %d score %v, want %v (symmetric cycle)", v, s, want)
		}
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	g, err := gen.ErdosRenyi("er", 200, 4, true, 11)
	if err != nil {
		t.Fatal(err)
	}
	scores, _, err := PageRank(g, PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range scores {
		sum += s
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("scores sum to %v, want 1 (dangling mass redistributed)", sum)
	}
}

// TestPageRankMatchesDense compares power iteration against a dense
// matrix fixed point on a small graph.
func TestPageRankMatchesDense(t *testing.T) {
	g := gen.Figure1Graph()
	n := int(g.N())
	const d = 0.85
	scores, _, err := PageRank(g, PageRankOptions{Damping: d, Tolerance: 1e-13, MaxIter: 10000})
	if err != nil {
		t.Fatal(err)
	}
	// Dense iteration (independent implementation).
	cur := make([]float64, n)
	for i := range cur {
		cur[i] = 1 / float64(n)
	}
	for it := 0; it < 20000; it++ {
		next := make([]float64, n)
		var dangling float64
		for u := 0; u < n; u++ {
			outs := g.OutNeighbors(int32(u))
			if len(outs) == 0 {
				dangling += cur[u]
				continue
			}
			for _, v := range outs {
				next[v] += d * cur[u] / float64(len(outs))
			}
		}
		for i := range next {
			next[i] += (1-d)/float64(n) + d*dangling/float64(n)
		}
		cur = next
	}
	for v := 0; v < n; v++ {
		if math.Abs(scores[v]-cur[v]) > 1e-8 {
			t.Fatalf("node %d: power %v vs dense %v", v, scores[v], cur[v])
		}
	}
}

func TestPageRankAuthorityOrdering(t *testing.T) {
	// Star pointing IN to the hub: hub must outrank the leaves.
	const n = 9
	b := graph.NewBuilder(n)
	for v := int32(1); v < n; v++ {
		b.AddEdge(v, 0, 0.3)
	}
	g := b.MustBuild("instar", true)
	scores, _, err := PageRank(g, PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	order := Rank(scores)
	if order[0] != 0 {
		t.Fatalf("top PageRank node = %d, want hub 0", order[0])
	}
	for v := 1; v < n; v++ {
		if scores[v] >= scores[0] {
			t.Fatalf("leaf %d score %v >= hub %v", v, scores[v], scores[0])
		}
	}
}

func TestPageRankValidation(t *testing.T) {
	g := cycle(3)
	cases := []PageRankOptions{
		{Damping: 1.5},
		{Damping: -0.1},
		{Tolerance: -1},
		{MaxIter: -2},
	}
	for _, opts := range cases {
		if _, _, err := PageRank(g, opts); err == nil {
			t.Errorf("PageRank(%+v) did not error", opts)
		}
	}
	if _, _, err := PageRank(nil, PageRankOptions{}); err == nil {
		t.Error("PageRank(nil graph) did not error")
	}
}

func TestRankDeterministicTies(t *testing.T) {
	scores := []float64{0.5, 0.5, 0.9, 0.5}
	order := Rank(scores)
	want := []int32{2, 0, 1, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("Rank = %v, want %v", order, want)
		}
	}
}

func TestDegreeDiscountPicksHubFirst(t *testing.T) {
	g := gen.Star(8, 0.2) // hub 0 with 7 out-leaves
	seeds, err := DegreeDiscountIC(g, 3, 0.2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seeds[0] != 0 {
		t.Fatalf("first seed %d, want hub 0", seeds[0])
	}
	if len(seeds) != 3 {
		t.Fatalf("got %d seeds, want 3", len(seeds))
	}
}

func TestDegreeDiscountMask(t *testing.T) {
	g := gen.Star(8, 0.2)
	seeds, err := DegreeDiscountIC(g, 2, 0.2, func(v int32) bool { return v != 0 })
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range seeds {
		if s == 0 {
			t.Fatal("masked hub was selected")
		}
	}
}

func TestDegreeDiscountValidation(t *testing.T) {
	g := gen.Star(4, 0.5)
	if _, err := DegreeDiscountIC(nil, 1, 0.5, nil); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := DegreeDiscountIC(g, 0, 0.5, nil); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := DegreeDiscountIC(g, 1, 0, nil); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := DegreeDiscountIC(g, 1, 1.2, nil); err == nil {
		t.Error("p>1 accepted")
	}
	if _, err := DegreeDiscountIC(g, 1, math.NaN(), nil); err == nil {
		t.Error("p=NaN accepted")
	}
	if _, err := DegreeDiscountIC(g, 1, 0.5, func(int32) bool { return false }); err == nil {
		t.Error("empty candidate set accepted")
	}
}

func TestSingleDiscountDiscountsNeighbors(t *testing.T) {
	// Two disjoint stars; hub 0 has degree 4, hub 5 degree 3, and leaf 1
	// also points at 2,3 (degree 2+... construct explicitly).
	b := graph.NewBuilder(10)
	for v := int32(1); v <= 4; v++ {
		b.AddEdge(0, v, 0.5)
	}
	for v := int32(6); v <= 8; v++ {
		b.AddEdge(5, v, 0.5)
	}
	// Node 1 points at the same leaves as hub 0 — after seeding 0, its
	// effective degree drops, so hub 5 must be chosen second.
	b.AddEdge(1, 2, 0.5)
	b.AddEdge(1, 3, 0.5)
	b.AddEdge(1, 9, 0.5)
	g := b.MustBuild("twostars", true)

	seeds, err := SingleDiscount(g, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seeds[0] != 0 || seeds[1] != 5 {
		t.Fatalf("seeds = %v, want [0 5] (node 1 discounted by hub 0's seeding)", seeds)
	}
}

// bruteKCore is an O(n·m) reference peeling implementation.
func bruteKCore(g *graph.Graph) []int32 {
	n := int(g.N())
	deg := make([]int, n)
	alive := make([]bool, n)
	for v := 0; v < n; v++ {
		deg[v] = int(g.OutDegree(int32(v)) + g.InDegree(int32(v)))
		alive[v] = true
	}
	core := make([]int32, n)
	for k := 0; ; k++ {
		anyAlive := false
		for {
			changed := false
			for v := 0; v < n; v++ {
				if alive[v] && deg[v] <= k {
					core[v] = int32(k)
					alive[v] = false
					changed = true
					for _, u := range g.OutNeighbors(int32(v)) {
						if alive[u] {
							deg[u]--
						}
					}
					for _, e := range g.InEdges(int32(v)) {
						if alive[e.Src] {
							deg[e.Src]--
						}
					}
				}
			}
			if !changed {
				break
			}
		}
		for v := 0; v < n; v++ {
			if alive[v] {
				anyAlive = true
			}
		}
		if !anyAlive {
			return core
		}
	}
}

func TestKCoreMatchesBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := gen.ErdosRenyi("er", 60, 5, true, seed)
		if err != nil {
			return false
		}
		fast, err := KCore(g)
		if err != nil {
			return false
		}
		slow := bruteKCore(g)
		for v := range fast {
			if fast[v] != slow[v] {
				t.Logf("seed %d node %d: fast %d vs brute %d", seed, v, fast[v], slow[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestKCoreOnFixtures(t *testing.T) {
	// A clique of 4 (undirected as two directed edges each): every node
	// has total degree 6 and core number 6; pendant node 4 attaches to 0.
	b := graph.NewBuilder(5)
	for u := int32(0); u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			b.AddUndirected(u, v, 0.5)
		}
	}
	b.AddUndirected(0, 4, 0.5)
	g := b.MustBuild("clique+pendant", false)
	core, err := KCore(g)
	if err != nil {
		t.Fatal(err)
	}
	slow := bruteKCore(g)
	for v := range core {
		if core[v] != slow[v] {
			t.Fatalf("node %d: core %d, brute %d", v, core[v], slow[v])
		}
	}
	if Degeneracy(core) != core[0] {
		t.Fatalf("degeneracy %d, want clique core %d", Degeneracy(core), core[0])
	}
	if core[4] >= core[0] {
		t.Fatalf("pendant core %d not below clique core %d", core[4], core[0])
	}
}

func TestKCoreNilGraph(t *testing.T) {
	if _, err := KCore(nil); err == nil {
		t.Fatal("KCore(nil) did not error")
	}
}
