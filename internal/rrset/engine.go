package rrset

import (
	"runtime"
	"sync"
	"sync/atomic"

	"asti/internal/bitset"
	"asti/internal/diffusion"
	"asti/internal/graph"
	"asti/internal/rng"
)

// Rounding selects how a multi-root strategy derives the root-set size k
// from n_i/η_i. The paper's randomized rounding (§3.3) is the default; the
// fixed variants exist for the ablation that motivates it (Remark after
// Corollary 3.4).
type Rounding int

const (
	// RoundRandomized draws k = ⌊n_i/η_i⌋+1 with probability equal to the
	// fractional part, else ⌊n_i/η_i⌋ (E[k] = n_i/η_i exactly).
	RoundRandomized Rounding = iota
	// RoundFloor always uses k = ⌊n_i/η_i⌋.
	RoundFloor
	// RoundCeil always uses k = ⌊n_i/η_i⌋ + 1.
	RoundCeil
)

// RootStrategy selects how each sampled set draws its roots: a classic
// single-root RR-set, or the paper's multi-root mRR-set with one of the
// three root-size rounding modes.
type RootStrategy struct {
	multi    bool
	rounding Rounding
}

// SingleRoot is the classic RR-set strategy (one uniform root).
func SingleRoot() RootStrategy { return RootStrategy{} }

// MultiRoot is the paper's mRR strategy with the given rounding of
// n_i/η_i.
func MultiRoot(r Rounding) RootStrategy { return RootStrategy{multi: true, rounding: r} }

// Multi reports whether the strategy samples multi-root sets.
func (s RootStrategy) Multi() bool { return s.multi }

// rootSize applies the strategy's rounding of ni/etai (multi-root only).
func (s RootStrategy) rootSize(ni, etai int64, r *rng.Source) int {
	switch s.rounding {
	case RoundFloor:
		k := ni / etai
		if k < 1 {
			k = 1
		}
		return int(k)
	case RoundCeil:
		k := ni/etai + 1
		if k > ni {
			k = ni
		}
		return int(k)
	default:
		return RootSize(ni, etai, r)
	}
}

// Request describes one generation batch: how many sets to add, drawn with
// which root strategy over which residual view, under which batch seed.
type Request struct {
	// Strategy picks single-root RR vs multi-root mRR sampling.
	Strategy RootStrategy
	// Inactive lists the residual nodes (the exact complement of Active).
	// Roots are rejection-sampled from [0, n) against the Active mask; the
	// list itself is consulted for n_i, and a set drawn with k == n_i roots
	// is the list itself (see Sampler.MRRStable).
	Inactive []int32
	// Active masks removed nodes (nil = none). It is read concurrently by
	// the workers and must not be mutated during Generate.
	Active *bitset.Set
	// EtaI is the remaining shortfall η_i; used only by multi-root
	// strategies to size the root set.
	EtaI int64
	// Count is the number of sets to generate.
	Count int
	// Seed is the batch seed: set i of the batch derives its private
	// generator as SplitMix64(Seed+FirstIndex+i), making the output
	// byte-identical for every worker count (including 1).
	Seed uint64
	// FirstIndex offsets the per-set seed derivation, giving every pool
	// position a stable seed across calls: generating positions [0,1000)
	// in one call equals generating [0,500) then [500,1000) with
	// FirstIndex 500. Cross-round pool reuse leans on this — a position's
	// seed never changes, so an untouched stored set IS what regeneration
	// would produce.
	FirstIndex int64
	// CountsOnly updates only the coverage counts Λ_R(v) in the target
	// Collection without storing the sets.
	CountsOnly bool
}

// RootSizeAt replays the root-size draw that generateOne performs for the
// pool position idx under batch seed: it is the first consumption of the
// per-set stream, so replaying it is exact. Prune uses it to detect sets
// whose root count would differ under the round's new n_i/η_i.
func (s RootStrategy) RootSizeAt(seed uint64, idx int64, ni, etai int64) int {
	if !s.multi {
		return 1
	}
	var src rng.Source
	src.Seed(rng.SplitMix64(seed + uint64(idx)))
	return s.rootSize(ni, etai, &src)
}

// GenStats reports instrumentation for one Generate call.
type GenStats struct {
	// Sets is the number of sets generated (== Request.Count).
	Sets int64
	// SetNodes is Σ|R| over the generated sets.
	SetNodes int64
	// EdgesExamined counts in-edges inspected during the reverse BFSes (the
	// cost model behind Lemma 3.8).
	EdgesExamined int64
	// RngDraws counts stream values the reverse-BFS kernel consumed (edge
	// coins and geometric jumps; see Sampler.RngDraws).
	RngDraws int64
}

// minParallelSets is the batch size below which fanning out is not
// worth starting goroutines and Generate runs on the caller alone. Both
// paths use the same per-set seeding, so the dispatch decision never
// changes output.
const minParallelSets = 256

// minTaskGrain is the smallest number of sets a worker claims at once.
const minTaskGrain = 64

// Engine is the shared concurrent mRR/RR sampling engine that every
// consumer (TRIM, OPIM-C, IMM, ATEUC) drives through Generate, with one
// Sampler scratch per worker. Set i of a batch seeds its private
// generator as SplitMix64(batchSeed+i), so the stream of generated sets
// is identical for any worker count — parallelism is purely a speed
// knob, never a semantics knob. An Engine holds no goroutines between
// calls: a large batch runs on the caller plus goroutines that start for
// that call and are joined before it returns.
//
// An Engine is not safe for concurrent use: one goroutine calls Generate
// at a time.
type Engine struct {
	g       *graph.Graph
	model   diffusion.Model
	workers int
	ver     Version

	// states[w] is worker w's scratch, built on first use. states[0] is
	// the caller's: the sequential path and every fan-out run on it.
	states []*workerState
}

// workerState is one worker's private scratch: a Sampler plus reusable
// output arenas.
type workerState struct {
	sampler *Sampler
	out     []int32 // concatenated sets of the current batch
	lens    []int32 // per-set lengths of the current batch
	rootKs  []int32 // per-set root counts of the current batch
}

// taskResult is one fan-out task's sets, as segments of the arenas of
// the worker that ran it; they stay valid until that worker's next batch
// resets the arenas.
type taskResult struct {
	data   []int32
	lens   []int32
	rootKs []int32
}

// NewEngine returns an Engine for g under the given model, speaking the
// default sampler stream contract. workers <= 0 selects GOMAXPROCS;
// workers == 1 keeps everything on the calling goroutine. Output is
// identical for every setting.
func NewEngine(g *graph.Graph, model diffusion.Model, workers int) *Engine {
	return NewEngineVersion(g, model, workers, DefaultVersion)
}

// NewEngineVersion is NewEngine pinned to a sampler stream contract
// (0 resolves to DefaultVersion). Every worker speaks the same version,
// so the version — like the worker count — never leaks into which sets
// are generated, only into how the stream is consumed.
func NewEngineVersion(g *graph.Graph, model diffusion.Model, workers int, ver Version) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if ver == 0 {
		ver = DefaultVersion
	}
	return &Engine{g: g, model: model, workers: workers, ver: ver}
}

// newWorkerState builds one worker's scratch, pre-sizing the output
// arena from graph stats (mean set size tracks mean in-degree) so early
// batches do not regrow it from nil.
func newWorkerState(g *graph.Graph, model diffusion.Model, ver Version) *workerState {
	est := (4*int(g.M()/int64(g.N())) + 16) * minTaskGrain
	if est > 1<<20 {
		est = 1 << 20
	}
	return &workerState{
		sampler: NewSamplerVersion(g, model, ver),
		out:     make([]int32, 0, est),
		lens:    make([]int32, 0, minTaskGrain),
		rootKs:  make([]int32, 0, minTaskGrain),
	}
}

// Graph returns the graph the engine samples over.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Model returns the engine's diffusion model.
func (e *Engine) Model() diffusion.Model { return e.model }

// Workers returns the resolved worker count.
func (e *Engine) Workers() int { return e.workers }

// Version returns the engine's sampler stream contract.
func (e *Engine) Version() Version { return e.ver }

// Close drops the engine's scratch, releasing its sampler memory now
// rather than when the Engine is collected. The engine stays usable: the
// next Generate rebuilds what it needs. Close is not safe to race with
// Generate.
func (e *Engine) Close() { e.states = nil }

// scratch returns the first n worker states, building any missing.
func (e *Engine) scratch(n int) []*workerState {
	for len(e.states) < n {
		e.states = append(e.states, newWorkerState(e.g, e.model, e.ver))
	}
	return e.states[:n]
}

// position returns the pool position of a batch's i-th set, which its
// seed derives from: ids[i] when regenerating stored sets (Refresh),
// base+i when growing the pool (Generate).
func position(base int64, ids []int32, i int) int64 {
	if ids != nil {
		return int64(ids[i])
	}
	return base + int64(i)
}

// generateOne samples one set under the strategy into dst, via the
// residual-stable sampler paths, returning the extended slice and the
// drawn root count.
func generateOne(s *Sampler, strat RootStrategy, inactive []int32, active *bitset.Set, etai int64, r *rng.Source, dst []int32) ([]int32, int32) {
	if strat.multi {
		k := strat.rootSize(int64(len(inactive)), etai, r)
		return s.MRRStable(k, inactive, active, r, dst), int32(k)
	}
	return s.RRStable(active, r, dst), 1
}

// Generate adds req.Count sets to coll and returns the batch's
// instrumentation. Every consumer's pool growth routes through here.
func (e *Engine) Generate(coll *Collection, req Request) GenStats {
	if req.CountsOnly {
		return e.generate(req, req.Count, nil, func(_ int, set []int32, _ int32) { coll.AddCountsOnly(set) })
	}
	return e.generate(req, req.Count, nil, func(_ int, set []int32, k int32) { coll.AddRooted(set, k) })
}

// Refresh regenerates the identified stored sets of coll in place, each
// from its position-stable seed SplitMix64(req.Seed + id) over the
// request's residual view. It is the regeneration half of cross-round pool
// reuse: Collection.Prune names the invalidated sets, Refresh re-derives
// them, and the pool ends byte-identical to full regeneration at a cost
// proportional to the activation delta. req.Count is ignored; ids must be
// ascending stored-set ids (as returned by Prune).
func (e *Engine) Refresh(coll *Collection, req Request, ids []int32) GenStats {
	return e.generate(req, len(ids), ids, func(i int, set []int32, k int32) { coll.Replace(ids[i], set, k) })
}

// generate is the single sampling loop of the codebase, behind both
// Generate and Refresh: it draws need sets, set i from the seed of its
// pool position, and hands each to commit in i order. The per-set
// seeding and the ordered commit make what lands in the Collection —
// and therefore every downstream selection — identical for any worker
// count.
func (e *Engine) generate(req Request, need int, ids []int32, commit func(i int, set []int32, k int32)) GenStats {
	if need <= 0 {
		return GenStats{}
	}
	stats := GenStats{Sets: int64(need)}
	if e.workers == 1 || need < minParallelSets {
		ws := e.scratch(1)[0]
		edges0, draws0 := ws.sampler.EdgesExamined, ws.sampler.RngDraws
		ws.sampler.PrimeActive(req.Active)
		var src rng.Source
		for i := 0; i < need; i++ {
			src.Seed(rng.SplitMix64(req.Seed + uint64(position(req.FirstIndex, ids, i))))
			set, k := generateOne(ws.sampler, req.Strategy, req.Inactive, nil, req.EtaI, &src, ws.out[:0])
			ws.out = set // keep the grown buffer; commit copies
			commit(i, set, k)
			stats.SetNodes += int64(len(set))
		}
		stats.EdgesExamined = ws.sampler.EdgesExamined - edges0
		stats.RngDraws = ws.sampler.RngDraws - draws0
		return stats
	}

	ordered, edges, draws := e.fanOut(req, need, ids)
	i := 0
	for _, tr := range ordered {
		var off int32
		for si, l := range tr.lens {
			set := tr.data[off : off+l]
			off += l
			commit(i, set, tr.rootKs[si])
			i++
			stats.SetNodes += int64(len(set))
		}
	}
	stats.EdgesExamined = edges
	stats.RngDraws = draws
	return stats
}

// fanOut generates need sets (fresh positions, or the given stored ids
// when non-nil) on the caller plus up to workers−1 goroutines started for
// this call and joined before it returns. The batch is cut into tasks of
// consecutive sets; each worker claims tasks from an atomic counter and
// stores each result at its task index, so the results come back in task
// order whichever worker ran what. It also returns the examined-edge and
// stream-draw totals.
func (e *Engine) fanOut(req Request, need int, ids []int32) ([]taskResult, int64, int64) {
	grain := max((need+e.workers*4-1)/(e.workers*4), minTaskGrain)
	numTasks := (need + grain - 1) / grain
	results := make([]taskResult, numTasks)
	var next, edges, draws atomic.Int64
	work := func(ws *workerState) {
		// The previous batch's results are committed by now, so the arenas
		// they pointed into can be reclaimed.
		ws.out, ws.lens, ws.rootKs = ws.out[:0], ws.lens[:0], ws.rootKs[:0]
		edges0, draws0 := ws.sampler.EdgesExamined, ws.sampler.RngDraws
		// One mask copy up front buys a single-bitset hot loop for the
		// whole batch (see Sampler.PrimeActive); active is nil below.
		ws.sampler.PrimeActive(req.Active)
		var src rng.Source
		for ti := int(next.Add(1) - 1); ti < numTasks; ti = int(next.Add(1) - 1) {
			lo, hi := ti*grain, min((ti+1)*grain, need)
			dataStart, lensStart := len(ws.out), len(ws.lens)
			for i := lo; i < hi; i++ {
				src.Seed(rng.SplitMix64(req.Seed + uint64(position(req.FirstIndex, ids, i))))
				setStart := len(ws.out)
				var k int32
				ws.out, k = generateOne(ws.sampler, req.Strategy, req.Inactive, nil, req.EtaI, &src, ws.out)
				ws.lens = append(ws.lens, int32(len(ws.out)-setStart))
				ws.rootKs = append(ws.rootKs, k)
			}
			results[ti] = taskResult{data: ws.out[dataStart:], lens: ws.lens[lensStart:], rootKs: ws.rootKs[lensStart:]}
		}
		edges.Add(ws.sampler.EdgesExamined - edges0)
		draws.Add(ws.sampler.RngDraws - draws0)
	}
	states := e.scratch(min(e.workers, numTasks))
	var wg sync.WaitGroup
	for _, ws := range states[1:] {
		wg.Add(1)
		go func(ws *workerState) {
			defer wg.Done()
			work(ws)
		}(ws)
	}
	work(states[0])
	wg.Wait()
	return results, edges.Load(), draws.Load()
}
