// Package rrset implements reverse-reachable set sampling: classic
// single-root RR-sets (Borgs et al. 2014) and the paper's multi-root
// reverse-reachable (mRR) sets (Definition 3.2), for both the IC and LT
// models, over residual graphs.
//
// A random mRR-set is generated by choosing a size-k set K of roots
// uniformly from the inactive nodes and collecting every inactive node
// that reaches K in a random realization, via one stochastic reverse BFS
// started from all of K (edge coins are consistent within the set because
// each node is dequeued at most once). The root-set size k follows the
// paper's randomized rounding of n_i/η_i, which is what buys the
// (1−1/e)-sandwich of Theorem 3.3.
//
// # Residual stability
//
// Sampling is residual-stable: the generator consumes randomness in a
// pattern that does not depend on the active mask. Root candidates are
// drawn by rejection from the full id range [0, n) (skipping active
// nodes), and the reverse BFS draws its edge coin before checking whether
// the endpoint is masked. Consequence: regenerating a set from the same
// per-set seed after more nodes were activated yields the IDENTICAL set,
// provided (a) the root count k is unchanged and k < n_i, and (b) the
// previously generated set contains none of the newly activated nodes —
// the masked nodes were never reached, so masking them changes nothing.
// This is what lets Collection.Prune keep most of an mRR pool across
// adaptive rounds while staying byte-identical to full regeneration.
package rrset

import (
	"math"
	"math/bits"

	"asti/internal/bitset"
	"asti/internal/graph"
	"asti/internal/rng"

	"asti/internal/diffusion"
)

// Version identifies a sampler stream-consumption contract. Within one
// version, the bytes a sampler draws from its per-set stream — and hence
// every generated set and every downstream selection — are a fixed
// function of (graph, model, seed), for any worker count, reuse mode, or
// crash/passivate/reactivate history. Across versions the distribution
// of generated sets is identical but the stream layout is not, so a
// version is pinned at session/policy creation and recorded in the
// write-ahead journal: old logs replay under the version that wrote
// them, byte-identically, while fresh sessions default to the newest.
type Version int

const (
	// V1 is the original contract: one Bernoulli coin (one Float64 draw
	// for p ∈ (0,1)) per in-edge under IC, one draw per dequeued node
	// under LT.
	V1 Version = 1
	// V2 keeps V1's layout everywhere except uniform-probability IC
	// in-edge blocks (the paper's §6.1 uniform and weighted-cascade
	// settings), where per-edge coins are replaced by geometric-jump
	// skipping: draw skip ~ Geom(p) and jump straight to the next live
	// edge, cutting draws per block from deg(v) to ≈ p·deg(v)+1.
	V2 Version = 2
)

// DefaultVersion is the contract new samplers resolve to when none is
// requested explicitly.
const DefaultVersion = V2

// Valid reports whether v names a known sampler contract.
func (v Version) Valid() bool { return v == V1 || v == V2 }

// Sampler generates RR/mRR sets, reusing scratch buffers. One Sampler
// serves one goroutine.
type Sampler struct {
	g     *graph.Graph
	model diffusion.Model
	ver   Version

	// The graph's in-adjacency headers (graph.FusedIn), held directly so
	// the hot loop's block lookup does not chase through g.
	inOff  []int64
	inEdge []graph.InEdge

	// Per-node IC propagation plan, decided once at construction so the
	// hot loop dispatches on a byte instead of re-deriving block shape
	// (uniform? p in range? jump profitable?) per dequeued node.
	plan []icNode

	visited *bitset.Set

	// EdgesExamined accumulates the number of in-edges looked at across all
	// generated sets; the cost model behind Lemma 3.8 (and our EPT
	// benchmarks) counts exactly this.
	EdgesExamined int64
	// RngDraws accumulates the number of values consumed from the per-set
	// streams by the propagate kernel (edge coins and geometric jumps, not
	// root draws). V2's skipping exists to shrink exactly this number.
	RngDraws int64
}

// NewSampler returns a Sampler for g under the given model, speaking the
// default stream contract.
func NewSampler(g *graph.Graph, model diffusion.Model) *Sampler {
	return NewSamplerVersion(g, model, DefaultVersion)
}

// NewSamplerVersion returns a Sampler pinned to the given stream
// contract (0 resolves to DefaultVersion).
func NewSamplerVersion(g *graph.Graph, model diffusion.Model, ver Version) *Sampler {
	if !model.Valid() {
		panic("rrset: unknown model")
	}
	if ver == 0 {
		ver = DefaultVersion
	}
	if !ver.Valid() {
		panic("rrset: unknown sampler version")
	}
	s := &Sampler{
		g: g, model: model, ver: ver,
		visited: bitset.New(int(g.N())),
	}
	s.inOff, s.inEdge = g.FusedIn()
	if model == diffusion.IC {
		s.buildPlan()
	}
	return s
}

// PrimeActive seeds the visited scratch with the active mask (nil
// clears it), letting every later call on this sampler pass active ==
// nil: the hot loop's single visited test then subsumes the active
// test, since an active node looks permanently visited. The priming
// survives across sets — each set's sparse cleanup removes only its own
// nodes, which are never active — so one copy serves a whole batch
// generated under one mask. Callers that prime MUST pass active == nil
// until the next PrimeActive; mixing primed state with a non-nil mask
// double-checks harmlessly, but a stale primed mask with active == nil
// excludes the wrong nodes.
func (s *Sampler) PrimeActive(active *bitset.Set) {
	if active == nil {
		s.visited.Reset()
		return
	}
	s.visited.CopyFrom(active)
}

// Per-node IC propagation strategies. The plan snapshots the graph's
// probabilities at sampler construction (graphs are immutable once
// handed to algorithms; probability mutators run during setup only).
const (
	// planCoins: general per-edge Bernoulli coins (non-uniform block).
	planCoins uint8 = iota
	// planUniform: uniform block with p ∈ (0,1) — one coin per edge,
	// resolved against the precomputed integer threshold in aux.
	planUniform
	// planGeom: uniform block where the geometric jump pays (V2 only);
	// aux holds the bits of the block's ln(1−p).
	planGeom
	// planTakeAll: uniform p ≥ 1 — every edge live, no draws.
	planTakeAll
	// planSkipAll: uniform p ≤ 0 — no edge can fire, no draws.
	planSkipAll
)

// icNode packs everything the IC hot loop needs about one dequeued node
// into a single 24-byte record: the in-block location and the
// dispatch byte with its plan constant. Keeping these in one record
// matters as much as what is in it — split across parallel arrays
// (offsets, plan bytes, constants), one random node lookup costs three
// cache lines; packed, it costs one.
type icNode struct {
	off int64 // first in-edge of the node (graph.FusedIn index)
	// aux is the plan constant: the pre-shifted integer coin threshold
	// (planUniform) or the bits of the block's ln(1−p) (planGeom).
	aux  uint64
	deg  int32 // in-degree (block length at off)
	kind uint8 // plan* dispatch byte
}

// buildPlan derives the per-node IC dispatch plan from the graph's
// in-blocks and the sampler's stream contract. Each block is scanned
// once: uniform blocks (every edge carrying the same p — the common case
// under the paper's §6.1 uniform and weighted-cascade settings) get a
// single-constant plan, every other block per-edge coins.
func (s *Sampler) buildPlan() {
	n := int(s.g.N())
	s.plan = make([]icNode, n)
	for v := 0; v < n; v++ {
		np := &s.plan[v]
		np.off = s.inOff[v]
		np.deg = int32(s.inOff[v+1] - s.inOff[v])
		in := s.inEdge[np.off : np.off+int64(np.deg)]
		if !uniformBlock(in) {
			np.kind = planCoins
			continue
		}
		p := float64(in[0].P)
		switch {
		case p <= 0:
			np.kind = planSkipAll
		case p >= 1:
			np.kind = planTakeAll
		case s.ver >= V2 && useGeomSkip(p, len(in)):
			np.kind = planGeom
			np.aux = math.Float64bits(math.Log1p(-p))
		default:
			np.kind = planUniform
			// A coin drawn as k = Uint64()>>11 accepts iff k < ⌈p·2⁵³⌉,
			// which decides exactly as Float64() < p does (Float64() is
			// k·2⁻⁵³, and p·2⁵³ is exact, scaling by a power of two).
			// Pre-shift the threshold so the hot loop compares the raw
			// 64-bit draw: Uint64()>>11 >= thr ⟺ Uint64() >= thr<<11
			// exactly (floor division), and thr ≤ 2⁵³−1 because p < 1
			// strictly, so the shift cannot overflow.
			np.aux = uint64(math.Ceil(p*(1<<53))) << 11
		}
	}
}

// uniformBlock reports whether a non-empty in-block carries one
// probability on every edge.
func uniformBlock(in []graph.InEdge) bool {
	for _, e := range in {
		if e.P != in[0].P {
			return false
		}
	}
	return len(in) > 0
}

// Version returns the sampler's stream contract.
func (s *Sampler) Version() Version { return s.ver }

// RootSize draws the randomized-rounding root count for a residual graph
// with ni inactive nodes and shortfall etai: k = ⌊ni/etai⌋+1 with
// probability equal to the fractional part of ni/etai, else ⌊ni/etai⌋
// (paper §3.3). The expectation of k is exactly ni/etai. etai must be in
// [1, ni].
//
// The draw always consumes exactly one value from r — even when ni/etai
// is integral — so the per-set stream position after it never depends on
// the round's parameters. Residual stability (and hence cross-round pool
// reuse) relies on this: a set whose root count replays unchanged must
// see every later draw at the same stream offset.
func RootSize(ni, etai int64, r *rng.Source) int {
	kLow := ni / etai
	frac := float64(ni)/float64(etai) - float64(kLow)
	k := kLow
	if r.Float64() < frac {
		k++
	}
	if k < 1 {
		k = 1
	}
	if k > ni {
		k = ni
	}
	return int(k)
}

// MRRStable generates one mRR-set with k roots drawn uniformly without
// replacement from the inactive nodes, consuming randomness in a
// residual-stable pattern: candidates are rejection-sampled from [0, n)
// against the active mask, so the draw sequence is a function of the raw
// stream alone, never of the inactive list's layout. inactive must be
// exactly the complement of active. It is consulted only when k == n_i:
// every inactive node is then a root and every other node is active, so
// the reverse BFS could add nothing, and the set is inactive itself, in
// order, with no draws and no edges examined. That set depends on the
// inactive list, so it is never considered reusable (see Collection.Prune).
//
//asm:hotpath
func (s *Sampler) MRRStable(k int, inactive []int32, active *bitset.Set, r *rng.Source, dst []int32) []int32 {
	if k <= 0 || k > len(inactive) {
		panic("rrset: root count out of range")
	}
	if k == len(inactive) {
		return append(dst, inactive...)
	}
	base := len(dst)
	// Rejection-sample roots from [0, n) with the generator state and the
	// visited words held in locals (see propagateIC for why). The draw
	// below reproduces Int31n's Lemire rejection bit-for-bit — the root
	// stream is part of the versioned contracts and must not move.
	lr := *r
	vw := s.visited.Words()
	un := uint64(s.g.N())
	for len(dst)-base < k {
		hi, lo := bits.Mul64(lr.Uint64(), un)
		if lo < un {
			thresh := -un % un
			for lo < thresh {
				hi, lo = bits.Mul64(lr.Uint64(), un)
			}
		}
		c := uint32(hi)
		if active != nil && active.Get(int32(c)) {
			continue
		}
		w, mask := c>>6, uint64(1)<<(c&63)
		if word := vw[w]; word&mask == 0 {
			vw[w] = word | mask
			dst = append(dst, int32(c))
		} // else: duplicate (or primed-active) root candidate
	}
	*r = lr
	return s.propagate(active, r, dst, base)
}

// RRStable generates one classic single-root RR-set with the root
// rejection-sampled from [0, n) against the active mask (residual-stable;
// see MRRStable).
//
//asm:hotpath
func (s *Sampler) RRStable(active *bitset.Set, r *rng.Source, dst []int32) []int32 {
	base := len(dst)
	n := s.g.N()
	for {
		c := r.Int31n(n)
		if active != nil && active.Get(c) {
			continue
		}
		if s.visited.TestAndSet(c) {
			continue // primed-active candidate (visited is clean otherwise)
		}
		dst = append(dst, c)
		break
	}
	return s.propagate(active, r, dst, base)
}

// propagate runs the stochastic reverse BFS from the pre-seeded frontier:
// dst[base:] holds the roots (marked visited already) and doubles as the
// BFS queue — accepted nodes are appended and dequeued by index, so the
// frontier needs no separate scratch buffer.
//
// Every edge coin (or geometric jump) is drawn BEFORE the visited/active
// check, so the number of draws per dequeued node depends only on the
// stream and the node's in-degree/probabilities (IC), or is exactly one
// (LT) — never on the mask. This mask-independent consumption is the
// residual-stability property Collection.Prune relies on; see the package
// comment. V2's jump path preserves it: whether the jump is taken is a
// pure function of (p, deg), and the jump lengths are a function of the
// stream alone.
//
//asm:hotpath
func (s *Sampler) propagate(active *bitset.Set, r *rng.Source, dst []int32, base int) []int32 {
	if s.model == diffusion.IC {
		dst = s.propagateIC(active, r, dst, base)
	} else {
		dst = s.propagateLT(active, r, dst, base)
	}
	// Sparse cleanup of the visited scratch (primed-active bits are never
	// in dst, so priming survives).
	s.visited.ClearAll(dst[base:])
	return dst
}

// propagateIC is the IC hot loop: per dequeued node, one plan-byte
// dispatch over its in-block. Edge and draw counts accumulate in
// locals and flush to the Sampler once per set.
//
//asm:hotpath
func (s *Sampler) propagateIC(active *bitset.Set, r *rng.Source, dst []int32, base int) []int32 {
	// Field loads hoisted out of the loop: the compiler cannot keep s.*
	// in registers across the method calls below, but these never change
	// mid-walk.
	inEdge, plans := s.inEdge, s.plan
	visited := s.visited
	// The visited words too: probing through the *Set would reload the
	// slice header per probe (the appends below could alias it for all
	// the compiler knows).
	vw := visited.Words()
	// Generator state by value: lr's fields live in registers for the
	// whole walk (through *r they would be four loads and four stores per
	// draw — the compiler cannot prove the pointee is unaliased by the
	// bitset and queue stores). The out-of-line plan cases sync lr back
	// through *r around their calls; every return path writes lr back.
	lr := *r
	var edges, draws int64
	for qi := base; qi < len(dst); qi++ {
		np := plans[dst[qi]]
		deg := int64(np.deg)
		edges += deg
		if deg == 0 {
			continue
		}
		in := inEdge[np.off : np.off+deg]
		var d int64
		switch np.kind {
		case planUniform:
			// Uniform block, p ∈ (0,1): one coin per edge with the same
			// stream, decisions and draw count as icCoins — but resolved by
			// comparing the raw 64-bit draw against the block's precomputed
			// pre-shifted integer threshold (see buildPlan), which drops
			// the per-edge int→float conversion, the float compare and the
			// mantissa shift. The edge record is only loaded on a hit, so
			// misses — the common case at low p — touch nothing but the
			// stream. Spelled out inline because this is the dominant case
			// and a call boundary per dequeued node is measurable.
			thr := np.aux
			for i := range in {
				if lr.Uint64() >= thr {
					continue
				}
				u := uint32(in[i].Src)
				w, mask := u>>6, uint64(1)<<(u&63)
				if vw[w]&mask != 0 || (active != nil && active.Get(int32(u))) {
					continue
				}
				vw[w] |= mask
				dst = append(dst, int32(u))
			}
			d = deg
		case planCoins:
			*r = lr
			dst, d = s.icCoins(in, active, r, dst)
			lr = *r
		case planGeom:
			*r = lr
			dst, d = s.icGeomSkip(in, math.Float64frombits(np.aux), active, r, dst)
			lr = *r
		case planTakeAll:
			dst = s.icTakeAll(in, active, dst)
		} // planSkipAll: nothing can fire, nothing is drawn
		draws += d
	}
	*r = lr
	s.EdgesExamined += edges
	s.RngDraws += draws
	return dst
}

// propagateLT is the LT walk: per dequeued node, one Float64 picks v's
// single live in-edge (or the residual mass).
//
//asm:hotpath
func (s *Sampler) propagateLT(active *bitset.Set, r *rng.Source, dst []int32, base int) []int32 {
	var edges, draws int64
	for qi := base; qi < len(dst); qi++ {
		v := dst[qi]
		lo, hi := s.inOff[v], s.inOff[v+1]
		if hi == lo {
			continue
		}
		in := s.inEdge[lo:hi]
		draws++
		x := r.Float64()
		var acc float64
		ci := -1
		for i := range in {
			acc += float64(in[i].P)
			if x < acc {
				ci = i
				break
			}
		}
		if ci < 0 {
			// The residual mass won: every entry was scanned.
			edges += int64(len(in))
			continue
		}
		edges += int64(ci + 1)
		u := in[ci].Src
		if s.visited.Get(u) || (active != nil && active.Get(u)) {
			continue
		}
		s.visited.Set(u)
		dst = append(dst, u)
	}
	s.EdgesExamined += edges
	s.RngDraws += draws
	return dst
}

// icCoins is the per-edge Bernoulli walk over one in-block — V1's
// contract, and V2's on non-uniform blocks (draw-for-draw identical to
// V1 there). The coin consumption replicates rng.Bernoulli exactly: no
// draw for p outside (0,1), one Float64 otherwise. Returns the grown
// dst and the block's draw count.
//
//asm:hotpath
func (s *Sampler) icCoins(in []graph.InEdge, active *bitset.Set, r *rng.Source, dst []int32) ([]int32, int64) {
	var draws int64
	for _, e := range in {
		p := float64(e.P)
		if p <= 0 {
			continue
		}
		if p < 1 {
			draws++
			if r.Float64() >= p {
				continue
			}
		}
		u := e.Src
		if s.visited.Get(u) || (active != nil && active.Get(u)) {
			continue
		}
		s.visited.Set(u)
		dst = append(dst, u)
	}
	return dst, draws
}

// icTakeAll handles uniform p ≥ 1 blocks: every edge fires, no draws —
// exactly what icCoins does edge-by-edge there, minus the loop's dead
// branches.
//
//asm:hotpath
func (s *Sampler) icTakeAll(in []graph.InEdge, active *bitset.Set, dst []int32) []int32 {
	vw := s.visited.Words()
	for i := range in {
		u := uint32(in[i].Src)
		w, mask := u>>6, uint64(1)<<(u&63)
		if vw[w]&mask != 0 || (active != nil && active.Get(int32(u))) {
			continue
		}
		vw[w] |= mask
		dst = append(dst, int32(u))
	}
	return dst
}

// icGeomSkip walks one uniform-probability block by geometric jumps
// (V2 only): the gap to the next live edge is Geom(p)-distributed —
// P(skip = k) = (1−p)^k·p via skip = ⌊ln u / ln(1−p)⌋, u ∈ (0,1] — so
// the block costs ≈ p·deg+1 draws instead of deg. lnq is the block's
// ln(1−p), precomputed by buildPlan. Jump lengths depend only on the
// stream, keeping consumption mask-independent.
//
//asm:hotpath
func (s *Sampler) icGeomSkip(in []graph.InEdge, lnq float64, active *bitset.Set, r *rng.Source, dst []int32) ([]int32, int64) {
	var draws int64
	for i := 0; ; i++ {
		draws++
		u := 1 - r.Float64() // (0,1]: Log is finite, u == 1 gives skip 0
		// Compared as a float: for tiny p the quotient can exceed 2⁶³,
		// where an int64 conversion would wrap to a negative jump. Below
		// that, skip >= rest ⟺ ⌊skip⌋ >= rest, so the decision is the
		// truncated one.
		skip := math.Log(u) / lnq
		if skip >= float64(len(in)-i) {
			return dst, draws // jumped past the block's end
		}
		i += int(skip)
		src := in[i].Src
		if s.visited.Get(src) || (active != nil && active.Get(src)) {
			continue
		}
		s.visited.Set(src)
		dst = append(dst, src)
	}
}

// useGeomSkip decides per-edge coins vs. the geometric jump for a
// uniform block: the jump spends ≈ p·d+1 draws against d integer-coin
// draws, but each jump draw pays a math.Log and a float division —
// measured at ≈9× an integer coin (≈50ns vs ≈5.7ns per draw on the
// BenchmarkPropagate IC rows; the gap is the log, not the RNG) — so it
// must clear the coin count by that factor before it wins:
// d·c > (p·d+1)·9c ⟺ d·(1−9p) > 9, i.e. d > 18 under weighted
// cascade's p = 1/d, and only ever for p < 1/9 (the left side is
// negative beyond that). The rule is a pure function of (p, d), so V2's
// stream consumption stays deterministic per node.
func useGeomSkip(p float64, d int) bool {
	return float64(d)*(1-9*p) > 9
}
