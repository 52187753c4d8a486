package oracle

import (
	"fmt"
	"math"
	"sort"

	"asti/internal/diffusion"
	"asti/internal/graph"
)

// The LT oracle mirrors the IC oracle with the linear-threshold
// realization space: each node independently picks at most one live
// in-edge — in-neighbor i with probability p(i,v), or none with the
// residual probability (the live-edge formulation of Kempe et al. that
// the paper's §2.1 recounts). Full-adoption feedback reveals, for every
// active node u, the status of each out-edge (u,v): live iff v chose u.
//
// States are information sets over the enumerated choice vectors, so the
// instance must stay tiny: Π_v (indeg_v + 1) ≤ maxLTWorlds.

const maxLTWorlds = 1 << 16

// ltInstance precomputes the LT realization machinery.
type ltInstance struct {
	g   *graph.Graph
	n   int
	eta int64
	// worlds enumerates every choice vector with non-zero probability;
	// worlds[w][v] is v's chosen in-neighbor (or −1).
	worlds  [][]int32
	weights []float64
}

// OptimalAdaptiveValueLT returns the exact optimum of Definition 2.1
// under the LT model with full-adoption feedback.
func OptimalAdaptiveValueLT(g *graph.Graph, eta int64) (float64, error) {
	inst, err := newLTInstance(g, eta)
	if err != nil {
		return 0, err
	}
	all := make([]int32, len(inst.worlds))
	for i := range all {
		all[i] = int32(i)
	}
	memo := map[string]float64{}
	return inst.value(0, all, memo), nil
}

// GreedyPolicyValueLT evaluates the exact truncated-greedy policy under
// LT (the policy TRIM approximates, per-model counterpart of
// GreedyPolicyValue).
func GreedyPolicyValueLT(g *graph.Graph, eta int64) (float64, error) {
	inst, err := newLTInstance(g, eta)
	if err != nil {
		return 0, err
	}
	all := make([]int32, len(inst.worlds))
	for i := range all {
		all[i] = int32(i)
	}
	memo := map[string]float64{}
	return inst.greedyValue(0, all, memo), nil
}

func newLTInstance(g *graph.Graph, eta int64) (*ltInstance, error) {
	if g.N() > 30 {
		return nil, fmt.Errorf("oracle: graph has %d nodes, limit 30", g.N())
	}
	if eta < 1 || eta > int64(g.N()) {
		return nil, fmt.Errorf("oracle: eta %d outside [1, n]", eta)
	}
	if err := diffusion.ValidateLT(g); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	count := 1.0
	for v := int32(0); v < g.N(); v++ {
		count *= float64(g.InDegree(v) + 1)
		if count > maxLTWorlds {
			return nil, fmt.Errorf("oracle: LT realization space exceeds %d worlds", maxLTWorlds)
		}
	}
	inst := &ltInstance{g: g, n: int(g.N()), eta: eta}

	choice := make([]int32, inst.n)
	var recurse func(v int32, p float64)
	recurse = func(v int32, p float64) {
		if p == 0 {
			return
		}
		if v == g.N() {
			world := append([]int32(nil), choice...)
			inst.worlds = append(inst.worlds, world)
			inst.weights = append(inst.weights, p)
			return
		}
		residual := 1.0
		for _, e := range g.InEdges(v) {
			residual -= float64(e.P)
			choice[v] = e.Src
			recurse(v+1, p*float64(e.P))
		}
		if residual < 0 {
			residual = 0
		}
		choice[v] = -1
		recurse(v+1, p*residual)
	}
	recurse(0, 1)
	return inst, nil
}

// reach returns the activation mask after seeding v on top of active
// under world w (traverse live chosen edges forward).
func (in *ltInstance) reach(v int32, active uint32, w int32) uint32 {
	if active&(1<<uint(v)) != 0 {
		return active
	}
	choice := in.worlds[w]
	out := active | 1<<uint(v)
	queue := []int32{v}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, x := range in.g.OutNeighbors(u) {
			if out&(1<<uint(x)) != 0 || choice[x] != u {
				continue
			}
			out |= 1 << uint(x)
			queue = append(queue, x)
		}
	}
	return out
}

// signature encodes what full-adoption feedback reveals once `active` is
// the activation mask under world w: for every node x whose chosen
// in-neighbor is active, the live edge (choice, x) is exposed. Encoded as
// the set of such x (the edge is determined by x and its choice).
func (in *ltInstance) signature(active uint32, w int32) uint32 {
	choice := in.worlds[w]
	var sig uint32
	for x := 0; x < in.n; x++ {
		c := choice[x]
		if c >= 0 && active&(1<<uint(c)) != 0 {
			sig |= 1 << uint(x)
		}
	}
	return sig
}

type ltGroup struct {
	active uint32
	ws     []int32
	weight float64
}

// partition groups the consistent worlds by the observation seeding v
// would produce.
func (in *ltInstance) partition(v int32, active uint32, consistent []int32) []ltGroup {
	type key struct{ active, sig uint32 }
	groups := map[key]*ltGroup{}
	var order []key
	for _, w := range consistent {
		na := in.reach(v, active, w)
		k := key{na, in.signature(na, w)}
		gp, ok := groups[k]
		if !ok {
			gp = &ltGroup{active: na}
			groups[k] = gp
			order = append(order, k)
		}
		gp.ws = append(gp.ws, w)
		gp.weight += in.weights[w]
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].active != order[j].active {
			return order[i].active < order[j].active
		}
		return order[i].sig < order[j].sig
	})
	out := make([]ltGroup, 0, len(order))
	for _, k := range order {
		out = append(out, *groups[k])
	}
	return out
}

func ltStateKey(active uint32, consistent []int32) string {
	buf := make([]byte, 0, 4+3*len(consistent))
	buf = append(buf, byte(active), byte(active>>8), byte(active>>16), byte(active>>24))
	for _, w := range consistent {
		buf = append(buf, byte(w), byte(w>>8), byte(w>>16))
	}
	return string(buf)
}

// value is the optimal expected number of additional seeds from a state.
func (in *ltInstance) value(active uint32, consistent []int32, memo map[string]float64) float64 {
	if popcount(active) >= in.eta {
		return 0
	}
	key := ltStateKey(active, consistent)
	if v, ok := memo[key]; ok {
		return v
	}
	var total float64
	for _, w := range consistent {
		total += in.weights[w]
	}
	best := math.Inf(1)
	for v := int32(0); v < int32(in.n); v++ {
		if active&(1<<uint(v)) != 0 {
			continue
		}
		var exp float64
		for _, gp := range in.partition(v, active, consistent) {
			if gp.weight == 0 {
				continue
			}
			exp += gp.weight / total * in.value(gp.active, gp.ws, memo)
		}
		if exp+1 < best {
			best = exp + 1
		}
	}
	memo[key] = best
	return best
}

// greedyValue evaluates the exact truncated-greedy policy from a state.
func (in *ltInstance) greedyValue(active uint32, consistent []int32, memo map[string]float64) float64 {
	if popcount(active) >= in.eta {
		return 0
	}
	key := ltStateKey(active, consistent)
	if v, ok := memo[key]; ok {
		return v
	}
	var total float64
	for _, w := range consistent {
		total += in.weights[w]
	}
	etaI := in.eta - popcount(active)
	bestNode, bestGain := int32(-1), -1.0
	for v := int32(0); v < int32(in.n); v++ {
		if active&(1<<uint(v)) != 0 {
			continue
		}
		var gain float64
		for _, w := range consistent {
			newly := popcount(in.reach(v, active, w)) - popcount(active)
			if newly > etaI {
				newly = etaI
			}
			gain += in.weights[w] / total * float64(newly)
		}
		if gain > bestGain {
			bestGain, bestNode = gain, v
		}
	}
	var exp float64
	for _, gp := range in.partition(bestNode, active, consistent) {
		if gp.weight == 0 {
			continue
		}
		exp += gp.weight / total * in.greedyValue(gp.active, gp.ws, memo)
	}
	memo[key] = exp + 1
	return exp + 1
}
