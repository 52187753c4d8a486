package diffusion

import (
	"asti/internal/bitset"
	"asti/internal/graph"
	"asti/internal/rng"
)

// Simulator runs forward influence propagation with fresh randomness on
// each call, reusing scratch buffers across runs. It is the Monte-Carlo
// workhorse behind spread estimation; one Simulator serves one goroutine.
//
// Fresh randomness differs from a Realization: every Spread call is an
// independent sample of the live-edge process, conditioned on the residual
// graph (nodes in the active mask are treated as removed, matching the
// induced-subgraph semantics of the paper's G_i).
type Simulator struct {
	g     *graph.Graph
	model Model

	visited *bitset.Set
	queue   []int32
	touched []int32 // nodes whose visited bit must be cleared after a run

	// LT-only per-run state: mass of failed contacts per node, versioned by
	// epoch so runs don't pay an O(n) reset.
	failedMass []float64
	massEpoch  []int64
	epoch      int64
}

// NewSimulator returns a Simulator for g under the given model.
func NewSimulator(g *graph.Graph, model Model) *Simulator {
	if !model.Valid() {
		panic("diffusion: unknown model")
	}
	return &Simulator{
		g:       g,
		model:   model,
		visited: bitset.New(int(g.N())),
	}
}

// Spread runs one fresh propagation from seeds restricted to nodes not in
// active (nil = whole graph) and returns the number of newly activated
// nodes, including the seeds that were inactive.
//
// IC flips each examined out-edge once (every node is dequeued at most
// once, so the flips are consistent within a run). LT samples each touched
// node's single live in-edge on first contact; a choice landing on an
// active-masked or non-frontier node simply fails, which is exactly the
// residual live-edge distribution.
func (s *Simulator) Spread(seeds []int32, active *bitset.Set, r *rng.Source) int {
	count := 0
	s.epoch++
	s.queue = s.queue[:0]
	for _, seed := range seeds {
		if active != nil && active.Get(seed) {
			continue
		}
		if !s.visited.TestAndSet(seed) {
			s.queue = append(s.queue, seed)
			s.touched = append(s.touched, seed)
			count++
		}
	}
	for qi := 0; qi < len(s.queue); qi++ {
		u := s.queue[qi]
		adj := s.g.OutNeighbors(u)
		probs := s.g.OutProbs(u)
		for i, v := range adj {
			if s.visited.Get(v) || (active != nil && active.Get(v)) {
				continue
			}
			var live bool
			switch s.model {
			case IC:
				live = r.Bernoulli(float64(probs[i]))
			default: // LT
				// v's single live in-edge, sampled on first contact. If it
				// is not ⟨u,v⟩ the contact fails now; if the chosen source
				// activates later, the edgeLive check there succeeds. To
				// keep per-run state cheap we resample per contact — this
				// is the "triggering set resampling" shortcut; see note.
				live = s.contactLT(u, v, r)
			}
			if live {
				s.visited.Set(v)
				s.queue = append(s.queue, v)
				s.touched = append(s.touched, v)
				count++
			}
		}
	}
	// Sparse cleanup: clear only the bits we set.
	s.visited.ClearAll(s.touched)
	s.touched = s.touched[:0]
	return count
}

// contactLT decides whether the LT contact u→v succeeds. The classical LT
// process is equivalent to each node drawing a threshold λ_v ~ U[0,1] and
// activating once the weight of active in-neighbors reaches λ_v. Because
// each in-neighbor of v contacts v at most once and the weights sum to at
// most 1, the sequential view "the contact from u succeeds with probability
// p(u,v) / (1 - weight of in-neighbors that already failed)" reproduces the
// exact distribution; we implement the standard simpler equivalent of
// flipping p(u,v)/(remaining mass) per contact, tracking failed mass per
// node within a run.
func (s *Simulator) contactLT(u, v int32, r *rng.Source) bool {
	// Lazily allocated failed-mass tracking.
	if s.failedMass == nil {
		s.failedMass = make([]float64, s.g.N())
		s.massEpoch = make([]int64, s.g.N())
	}
	if s.massEpoch[v] != s.epoch {
		s.massEpoch[v] = s.epoch
		s.failedMass[v] = 0
	}
	p := s.edgeProbInto(u, v)
	rem := 1 - s.failedMass[v]
	if rem <= 0 {
		return false
	}
	if r.Bernoulli(p / rem) {
		return true
	}
	s.failedMass[v] += p
	return false
}

// edgeProbInto returns p(u,v) by scanning v's in-adjacency. In-degrees in
// our workloads are modest and each (u,v) pair is queried at most once per
// run, so a scan beats maintaining an extra index.
func (s *Simulator) edgeProbInto(u, v int32) float64 {
	for _, e := range s.g.InEdges(v) {
		if e.Src == u {
			return float64(e.P)
		}
	}
	return 0
}
