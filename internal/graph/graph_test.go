package graph

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"asti/internal/rng"
)

func triangle(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(3)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(1, 2, 0.25)
	b.AddEdge(2, 0, 1)
	g, err := b.Build("triangle", true)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuilderBasics(t *testing.T) {
	g := triangle(t)
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if got := g.OutNeighbors(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("out(0) = %v", got)
	}
	if got := g.InEdges(0); len(got) != 1 || got[0].Src != 2 {
		t.Fatalf("in(0) = %v", got)
	}
	if p := g.EdgeProb(1, 2); p != 0.25 {
		t.Fatalf("p(1,2) = %v", p)
	}
	if p := g.EdgeProb(2, 1); p != 0 {
		t.Fatalf("p(2,1) = %v for absent edge", p)
	}
	if g.Name() != "triangle" || !g.Directed() {
		t.Fatal("metadata lost")
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []func(*Builder){
		func(b *Builder) { b.AddEdge(0, 0, 0.5) },        // self loop
		func(b *Builder) { b.AddEdge(-1, 1, 0.5) },       // negative id
		func(b *Builder) { b.AddEdge(0, 99, 0.5) },       // out of range
		func(b *Builder) { b.AddEdge(0, 1, 0) },          // zero prob
		func(b *Builder) { b.AddEdge(0, 1, 1.001) },      // prob > 1
		func(b *Builder) { b.AddEdge(0, 1, -0.2) },       // negative prob
		func(b *Builder) { b.AddEdge(0, 1, math.NaN()) }, // NaN prob
		func(b *Builder) { b.AddEdge(0, 1, 1e-50) },      // 0 as a float32
	}
	for i, inject := range cases {
		b := NewBuilder(3)
		b.AddEdge(0, 1, 0.5)
		inject(b)
		if _, err := b.Build("bad", true); err == nil {
			t.Errorf("case %d: Build accepted invalid edge", i)
		}
	}
	if _, err := NewBuilder(0).Build("empty", true); err == nil {
		t.Error("Build accepted zero-node graph")
	}
}

func TestBuilderDeduplicates(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(0, 1, 0.9)
	g, err := b.Build("dup", true)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 || b.Dups() != 1 {
		t.Fatalf("m=%d dups=%d", g.M(), b.Dups())
	}
	if p := g.EdgeProb(0, 1); p != 0.5 {
		t.Fatalf("dedup kept %v, want first edge's 0.5", p)
	}
}

func TestUndirectedStoresBothDirections(t *testing.T) {
	b := NewBuilder(2)
	b.AddUndirected(0, 1, 0.3)
	g, err := b.Build("u", false)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 || g.Directed() {
		t.Fatalf("m=%d directed=%v", g.M(), g.Directed())
	}
	if g.EdgeProb(0, 1) == 0 || g.EdgeProb(1, 0) == 0 {
		t.Fatal("missing direction")
	}
}

// TestInOutConsistency is a property test on random graphs: every out-edge
// appears exactly once as an in-edge with the same probability, and degree
// sums match.
func TestInOutConsistency(t *testing.T) {
	r := rng.New(77)
	if err := quick.Check(func(seed uint32) bool {
		n := int32(r.Intn(40) + 2)
		b := NewBuilder(n)
		edges := map[[2]int32]float64{}
		for i := 0; i < int(n)*3; i++ {
			u, v := r.Int31n(n), r.Int31n(n)
			if u == v {
				continue
			}
			if _, ok := edges[[2]int32{u, v}]; ok {
				continue
			}
			p := 0.1 + 0.9*r.Float64()
			if p > 1 {
				p = 1
			}
			edges[[2]int32{u, v}] = p
			b.AddEdge(u, v, p)
		}
		g, err := b.Build("rand", true)
		if err != nil {
			return false
		}
		if g.M() != int64(len(edges)) {
			return false
		}
		var totalOut, totalIn int64
		for v := int32(0); v < n; v++ {
			totalOut += int64(g.OutDegree(v))
			totalIn += int64(g.InDegree(v))
		}
		if totalOut != g.M() || totalIn != g.M() {
			return false
		}
		// Every recorded edge is present in both layouts with equal prob.
		for e, p := range edges {
			id, ok := g.FindOutEdge(e[0], e[1])
			if !ok || float64(g.OutProbs(e[0])[id-g.OutOffset(e[0])]) != float64(float32(p)) {
				return false
			}
			found := false
			for _, in := range g.InEdges(e[1]) {
				if in.Src == e[0] && in.P == float32(p) {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyWeightedCascade(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 3, 0.9)
	b.AddEdge(1, 3, 0.9)
	b.AddEdge(2, 3, 0.9)
	b.AddEdge(3, 0, 0.9)
	g, err := b.Build("wc", true)
	if err != nil {
		t.Fatal(err)
	}
	g.ApplyWeightedCascade()
	for _, u := range []int32{0, 1, 2} {
		if p := g.EdgeProb(u, 3); p != float64(float32(1.0/3.0)) {
			t.Errorf("p(%d,3) = %v, want 1/3", u, p)
		}
	}
	if p := g.EdgeProb(3, 0); p != 1 {
		t.Errorf("p(3,0) = %v, want 1 (indeg 1)", p)
	}
	// In-aligned and out-aligned copies agree.
	for v := int32(0); v < g.N(); v++ {
		for _, e := range g.InEdges(v) {
			if g.EdgeProb(e.Src, v) != float64(e.P) {
				t.Fatalf("prob mismatch on ⟨%d,%d⟩", e.Src, v)
			}
		}
	}
}

func TestApplyUniformProb(t *testing.T) {
	g := triangle(t)
	if err := g.ApplyUniformProb(0.42); err != nil {
		t.Fatal(err)
	}
	if p := g.EdgeProb(0, 1); float32(p) != 0.42 {
		t.Fatalf("p = %v", p)
	}
	if err := g.ApplyUniformProb(0); err == nil {
		t.Fatal("accepted p=0")
	}
	if err := g.ApplyUniformProb(1.5); err == nil {
		t.Fatal("accepted p>1")
	}
	if err := g.ApplyUniformProb(math.NaN()); err == nil {
		t.Fatal("accepted p=NaN")
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := triangle(t)
	h := g.DegreeHistogram(OutDegrees)
	if len(h) != 1 || h[0].Degree != 1 || h[0].Count != 3 {
		t.Fatalf("triangle out-degree histogram: %+v", h)
	}
	var total int64
	for _, b := range g.DegreeHistogram(TotalDegrees) {
		total += b.Count
	}
	if total != int64(g.N()) {
		t.Fatalf("histogram counts sum to %d, want n", total)
	}
}

func TestLWCCAndComponents(t *testing.T) {
	// Two components: a 3-cycle and an edge pair.
	b := NewBuilder(5)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(1, 2, 0.5)
	b.AddEdge(2, 0, 0.5)
	b.AddEdge(3, 4, 0.5)
	g, err := b.Build("two-comp", true)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.LargestWCC(); got != 3 {
		t.Fatalf("LWCC = %d, want 3", got)
	}
	if got := g.NumWCC(); got != 2 {
		t.Fatalf("NumWCC = %d, want 2", got)
	}
}

func TestAvgDegree(t *testing.T) {
	g := triangle(t)
	if got := g.AvgDegree(); got != 1 {
		t.Fatalf("avg degree %v, want 1", got)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	g := triangle(t)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() || g2.Name() != g.Name() {
		t.Fatalf("round trip lost shape: n=%d m=%d name=%q", g2.N(), g2.M(), g2.Name())
	}
	for u := int32(0); u < g.N(); u++ {
		for i, v := range g.OutNeighbors(u) {
			if g2.EdgeProb(u, v) != float64(g.OutProbs(u)[i]) {
				t.Fatalf("edge ⟨%d,%d⟩ prob changed", u, v)
			}
		}
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := map[string]string{
		"no header":      "0 1 0.5\n",
		"bad node count": "x 3\n0 1 0.5\n",
		"bad edge line":  "2 1\n0 1 0.5 extra junk\n",
		"bad prob":       "2 1\n0 1 zebra\n",
		"self loop":      "2 1\n1 1 0.5\n",
		"NaN prob":       "3 2\n0 1 NaN\n1 2 0.5\n",
		"underflow prob": "3 2\n0 1 0.5\n1 2 1e-50\n",
		"count mismatch": "3 5\n0 1 0.5\n",
		"empty":          "",
	}
	for name, input := range cases {
		if _, err := ReadEdgeList(strings.NewReader(input)); err == nil {
			t.Errorf("%s: ReadEdgeList accepted %q", name, input)
		}
	}
}

func TestReadEdgeListDefaults(t *testing.T) {
	// Probability-free lines default to 0.1; undirected flag expands.
	input := "# asm-graph v1\n# name tiny\n# directed false\n# source-directed false\n2 1\n0 1\n"
	g, err := ReadEdgeList(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Fatalf("undirected expansion: m=%d", g.M())
	}
	if p := g.EdgeProb(0, 1); float32(p) != 0.1 {
		t.Fatalf("default prob %v", p)
	}
	if g.Directed() {
		t.Fatal("source-directed flag lost")
	}
}

// TestCodecRoundTripProperty (property): random graphs survive the text
// codec byte-for-byte in structure and probability.
func TestCodecRoundTripProperty(t *testing.T) {
	r := rng.New(123)
	if err := quick.Check(func(_ uint8) bool {
		n := int32(r.Intn(50) + 2)
		b := NewBuilder(n)
		for i := 0; i < int(n)*2; i++ {
			u, v := r.Int31n(n), r.Int31n(n)
			if u == v {
				continue
			}
			b.AddEdge(u, v, 0.05+0.95*r.Float64())
		}
		g, err := b.Build("prop", true)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			return false
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			return false
		}
		if g2.N() != g.N() || g2.M() != g.M() {
			return false
		}
		for u := int32(0); u < g.N(); u++ {
			adj := g.OutNeighbors(u)
			probs := g.OutProbs(u)
			for i, v := range adj {
				if float32(g2.EdgeProb(u, v)) != probs[i] {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
