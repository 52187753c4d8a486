package graph

import (
	"testing"
)

func TestApplyTrivalencyConsistentViews(t *testing.T) {
	g := randomGraph(t, 3, 120, 600)
	g.ApplyTrivalency(42)
	levels := map[float32]bool{0.1: true, 0.01: true, 0.001: true}
	counts := map[float32]int{}
	for u := int32(0); u < g.N(); u++ {
		for _, v := range g.OutNeighbors(u) {
			p := float32(g.EdgeProb(u, v))
			if !levels[p] {
				t.Fatalf("edge (%d,%d) probability %v not a trivalency level", u, v, p)
			}
			counts[p]++
		}
	}
	// All three levels should appear on a 500+ edge graph.
	for lvl := range levels {
		if counts[lvl] == 0 {
			t.Fatalf("level %v never assigned (counts %v)", lvl, counts)
		}
	}
	// In-view must agree with out-view edge by edge.
	for v := int32(0); v < g.N(); v++ {
		for _, e := range g.InEdges(v) {
			if float64(e.P) != g.EdgeProb(e.Src, v) {
				t.Fatalf("edge (%d,%d): in-view %v != out-view %v", e.Src, v, e.P, g.EdgeProb(e.Src, v))
			}
		}
	}
}

func TestApplyTrivalencyDeterministic(t *testing.T) {
	a := randomGraph(t, 5, 80, 300)
	b := randomGraph(t, 5, 80, 300)
	a.ApplyTrivalency(7)
	b.ApplyTrivalency(7)
	if !graphsEqual(a, b) {
		t.Fatal("same seed produced different trivalency assignments")
	}
	c := randomGraph(t, 5, 80, 300)
	c.ApplyTrivalency(8)
	if graphsEqual(a, c) {
		t.Fatal("different seeds produced identical assignments")
	}
}
