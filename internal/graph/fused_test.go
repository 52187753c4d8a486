package graph

import (
	"testing"

	"asti/internal/rng"
)

// checkInMirrorsOut asserts the in-adjacency is exactly the out-adjacency
// reversed, probabilities included: InEdges(v) lists every ⟨u,v⟩ in
// ascending u with the out copy's p(u,v), and nothing else.
func checkInMirrorsOut(t *testing.T, g *Graph, label string) {
	t.Helper()
	want := make([][]InEdge, g.N())
	for u := int32(0); u < g.N(); u++ {
		probs := g.OutProbs(u)
		for i, v := range g.OutNeighbors(u) {
			want[v] = append(want[v], InEdge{Src: u, P: probs[i]})
		}
	}
	var total int64
	for v := int32(0); v < g.N(); v++ {
		got := g.InEdges(v)
		total += int64(len(got))
		if len(got) != len(want[v]) || int(g.InDegree(v)) != len(got) {
			t.Fatalf("%s: node %d: in-degree %d (InDegree %d), reversed out-degree %d",
				label, v, len(got), g.InDegree(v), len(want[v]))
		}
		for i, e := range got {
			if e != want[v][i] {
				t.Fatalf("%s: node %d edge %d: in {%d,%v}, reversed out {%d,%v}",
					label, v, i, e.Src, e.P, want[v][i].Src, want[v][i].P)
			}
		}
	}
	if total != g.M() {
		t.Fatalf("%s: %d in-edges, M() = %d", label, total, g.M())
	}
}

// TestInAdjacencyMirrorsOut is the property test over randomized graphs:
// after Build and after every probability mutator, the in-adjacency must
// equal the out-adjacency reversed, element for element.
func TestInAdjacencyMirrorsOut(t *testing.T) {
	r := rng.New(0xF05ED)
	for trial := 0; trial < 25; trial++ {
		n := int32(2 + r.Intn(40))
		b := NewBuilder(n)
		edges := r.Intn(4 * int(n))
		for e := 0; e < edges; e++ {
			u := r.Int31n(n)
			v := r.Int31n(n)
			if u == v {
				continue
			}
			// Mix uniform and non-uniform probabilities so both block
			// shapes occur.
			p := 0.3
			if r.Bernoulli(0.5) {
				p = 0.05 + 0.9*r.Float64()
			}
			b.AddEdge(u, v, p)
		}
		g, err := b.Build("fused-prop", true)
		if err != nil {
			t.Fatal(err)
		}
		checkInMirrorsOut(t, g, "build")

		g.ApplyWeightedCascade()
		checkInMirrorsOut(t, g, "weighted-cascade")

		if err := g.ApplyUniformProb(0.1); err != nil {
			t.Fatal(err)
		}
		checkInMirrorsOut(t, g, "uniform")

		g.ApplyTrivalency(uint64(trial))
		checkInMirrorsOut(t, g, "trivalency")
	}
}
