// Package sketch implements combined bottom-k reachability sketches for
// influence estimation (Cohen, Delling, Pajor, Werneck; CIKM 2014 — the
// paper's reference [13]).
//
// An Oracle is built over ℓ sampled live-edge instances of the graph.
// Every (root u, instance i) pair draws an independent uniform rank; each
// node keeps the k smallest ranks among the pairs it can reach. The
// classic bottom-k cardinality estimator then turns a node's sketch into
// an estimate of Σ_i I_i(v) — i.e. ℓ·E[I(v)] — in O(k) per query after a
// near-linear build.
//
// The package plays two roles in this repository. First, it is the
// library's fast whole-graph influence oracle (rank every node's
// expected spread at once, something RR-sampling does not give cheaply).
// Second, it is a negative control for the paper's §3.2 argument: a
// reachability sketch estimates the UNtruncated spread, and no rescaling
// turns it into an unbiased estimator of the truncated spread Γ — the gap
// that motivates mRR-sets. TestSketchCannotEstimateTruncated pins that.
package sketch

import (
	"errors"
	"fmt"
	"sort"

	"asti/internal/diffusion"
	"asti/internal/graph"
	"asti/internal/rng"
)

// Options configures BuildOracle.
type Options struct {
	// Instances is ℓ, the number of sampled live-edge worlds (default 64).
	Instances int
	// K is the bottom-k sketch size (default 64). Larger K tightens the
	// estimate: the bottom-k estimator's coefficient of variation is
	// about 1/√(K−2).
	K int
}

func (o *Options) fill() error {
	if o.Instances == 0 {
		o.Instances = 64
	}
	if o.K == 0 {
		o.K = 64
	}
	if o.Instances < 1 {
		return fmt.Errorf("sketch: instances %d < 1", o.Instances)
	}
	if o.K < 2 {
		return fmt.Errorf("sketch: k %d < 2 (bottom-k estimator needs k ≥ 2)", o.K)
	}
	return nil
}

// Oracle answers expected-spread queries from precomputed sketches.
type Oracle struct {
	n    int32
	ell  int
	k    int
	skts [][]float64 // per node, ascending ranks, len ≤ k
	// EdgesVisited counts reverse-BFS edge traversals during the build —
	// the near-linearity metric.
	EdgesVisited int64
}

// BuildOracle samples ℓ live-edge instances of (g, model) and builds
// every node's combined bottom-k reachability sketch.
func BuildOracle(g *graph.Graph, model diffusion.Model, opts Options, r *rng.Source) (*Oracle, error) {
	if g == nil {
		return nil, errors.New("sketch: nil graph")
	}
	if !model.Valid() {
		return nil, errors.New("sketch: unknown diffusion model")
	}
	if err := opts.fill(); err != nil {
		return nil, err
	}
	n := g.N()
	o := &Oracle{n: n, ell: opts.Instances, k: opts.K, skts: make([][]float64, n)}

	// Per-instance scratch: live reverse adjacency in CSR form.
	revHead := make([]int32, n+1)
	var revDst []int32
	order := make([]int32, n)
	ranks := make([]float64, n)
	queue := make([]int32, 0, n)
	visited := make([]int32, n) // epoch marks
	epoch := int32(0)

	for inst := 0; inst < opts.Instances; inst++ {
		revDst = o.sampleLiveReverse(g, model, r, revHead, revDst[:0])
		// Fresh independent ranks for this instance's roots.
		for v := range ranks {
			ranks[v] = r.Float64()
			order[v] = int32(v)
		}
		sort.Slice(order, func(i, j int) bool { return ranks[order[i]] < ranks[order[j]] })

		for _, root := range order {
			rank := ranks[root]
			epoch++
			// Reverse BFS from root over live edges. A node w that reaches v
			// reaches every root v reaches, so w's sketch dominates v's
			// entry-wise; if rank fails to enter v's bottom-k it would fail
			// everywhere upstream too — Cohen's pruning argument, which is
			// what makes the build near-linear.
			queue = queue[:0]
			if o.insert(root, rank) {
				queue = append(queue, root)
				visited[root] = epoch
			}
			for len(queue) > 0 {
				v := queue[0]
				queue = queue[1:]
				for _, w := range revDst[revHead[v]:revHead[v+1]] {
					o.EdgesVisited++
					if visited[w] == epoch {
						continue
					}
					visited[w] = epoch
					if !o.insert(w, rank) {
						continue // bottom-k unchanged: prune
					}
					queue = append(queue, w)
				}
			}
		}
	}
	return o, nil
}

// insert places rank into v's bottom-k sketch, reporting whether the
// sketch changed.
func (o *Oracle) insert(v int32, rank float64) bool {
	s := o.skts[v]
	if len(s) >= o.k && rank >= s[len(s)-1] {
		return false
	}
	i := sort.SearchFloat64s(s, rank)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = rank
	if len(s) > o.k {
		s = s[:o.k]
	}
	o.skts[v] = s
	return true
}

// sampleLiveReverse draws one live-edge instance and returns its reverse
// adjacency (dst stored per in-CSR head array). IC flips each edge
// independently; LT picks at most one live in-edge per node with the
// edge's probability (matching the paper's live-edge formulation of LT).
func (o *Oracle) sampleLiveReverse(g *graph.Graph, model diffusion.Model, r *rng.Source, head []int32, dst []int32) []int32 {
	n := g.N()
	pos := int32(0)
	for v := int32(0); v < n; v++ {
		head[v] = pos
		in := g.InEdges(v)
		switch model {
		case diffusion.IC:
			for _, e := range in {
				if r.Bernoulli(float64(e.P)) {
					dst = append(dst, e.Src)
					pos++
				}
			}
		default: // LT: at most one live in-edge
			x := r.Float64()
			var acc float64
			for _, e := range in {
				acc += float64(e.P)
				if x < acc {
					dst = append(dst, e.Src)
					pos++
					break
				}
			}
		}
	}
	head[n] = pos
	return dst
}

// Estimate returns the sketch estimate of E[I(v)].
func (o *Oracle) Estimate(v int32) (float64, error) {
	if v < 0 || v >= o.n {
		return 0, fmt.Errorf("sketch: node %d outside [0, %d)", v, o.n)
	}
	s := o.skts[v]
	if len(s) < o.k {
		// Sketch not full: the count is exact.
		return float64(len(s)) / float64(o.ell), nil
	}
	tau := s[o.k-1]
	return float64(o.k-1) / tau / float64(o.ell), nil
}

// EstimateAll returns the estimate for every node.
func (o *Oracle) EstimateAll() []float64 {
	out := make([]float64, o.n)
	for v := int32(0); v < o.n; v++ {
		out[v], _ = o.Estimate(v)
	}
	return out
}

// Top returns the k nodes with the largest estimated spread, descending,
// ties broken by id.
func (o *Oracle) Top(k int) ([]int32, error) {
	if k < 1 {
		return nil, fmt.Errorf("sketch: top k %d < 1", k)
	}
	est := o.EstimateAll()
	order := make([]int32, o.n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if est[a] != est[b] {
			return est[a] > est[b]
		}
		return a < b
	})
	if k > len(order) {
		k = len(order)
	}
	return order[:k], nil
}

// K returns the sketch size the oracle was built with.
func (o *Oracle) K() int { return o.k }

// Instances returns ℓ, the number of live-edge worlds sampled.
func (o *Oracle) Instances() int { return o.ell }
