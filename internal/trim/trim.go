// Package trim implements the paper's core algorithmic contribution:
// TRIM (Algorithm 2) — truncated influence maximization for one seed per
// round — and its batched generalization TRIM-B (Algorithm 3), as adaptive
// Policies for the ASTI framework.
//
// Both follow the OPIM-C online-processing pattern: start from a small
// pool of multi-root reverse-reachable (mRR) sets, compute the empirical
// best node (or greedy batch), bound its quality from below and the
// optimum from above with martingale concentration bounds, and double the
// pool until the ratio certifies a (1−1/e)(1−ε)-approximation (times ρ_b
// for batches).
//
// The same machinery, with single-root RR-sets and the untruncated
// n_i-scaled estimator, yields the AdaptIM baseline (§6.1): set Truncated
// to false. Keeping every other knob identical is what isolates the
// paper's claimed mechanism — truncation shrinks the required sample size
// from ∝ n_i/OPT′_i to ∝ η_i/OPT_i.
//
// All sampling routes through the shared rrset.Engine, whose
// deterministic per-set seeding keeps the selected seeds identical for
// every Workers setting.
package trim

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"asti/internal/adaptive"
	"asti/internal/rrset"
	"asti/internal/stats"
)

// Rounding selects how the mRR root-set size k is derived from n_i/η_i;
// it is the engine's rrset.Rounding re-exported for configuration.
type Rounding = rrset.Rounding

const (
	// RoundRandomized draws k = ⌊n_i/η_i⌋+1 with probability equal to the
	// fractional part, else ⌊n_i/η_i⌋ (E[k] = n_i/η_i exactly).
	RoundRandomized = rrset.RoundRandomized
	// RoundFloor always uses k = ⌊n_i/η_i⌋.
	RoundFloor = rrset.RoundFloor
	// RoundCeil always uses k = ⌊n_i/η_i⌋ + 1.
	RoundCeil = rrset.RoundCeil
)

// Config parameterizes a Policy.
type Config struct {
	// Epsilon is the approximation slack ε ∈ (0,1); the paper's
	// experiments use 0.5.
	Epsilon float64
	// Batch is the per-round batch size b ≥ 1; b = 1 is TRIM, b > 1 is
	// TRIM-B.
	Batch int
	// Truncated selects the paper's truncated objective with mRR-sets
	// (true) or the vanilla-spread objective with single-root RR-sets
	// (false, the AdaptIM baseline).
	Truncated bool
	// Rounding selects the root-size rounding mode (truncated mode only).
	Rounding Rounding
	// MaxSetsPerRound optionally caps the mRR pool per round (0 = the
	// paper's θmax only). Benchmarks use it to bound worst-case memory.
	MaxSetsPerRound int64
	// Workers sets the sampling engine's worker count: 0 uses GOMAXPROCS,
	// 1 stays on the calling goroutine, n > 1 uses n workers. Selections
	// are identical for every setting (the engine seeds each set
	// independently), so parallelism is purely a speed knob.
	Workers int
	// ReusePool carries the mRR pool across rounds: instead of resetting
	// and regenerating up to θ_max sets per round, the policy prunes the
	// sets invalidated by the activation delta (member hit, or root-count
	// shift under the new n_i/η_i), regenerates exactly those in place,
	// and tops the pool up to the round's target. Every pool position has
	// a run-stable seed, so the reused pool is byte-identical to full
	// regeneration: reuse changes speed, never output. The facade, serve
	// and the CLIs enable it by default (asti.WithPoolReuse to opt out);
	// the zero value keeps the Reset-per-round path.
	//
	// Reuse needs the activation delta (adaptive.State.Delta); when a host
	// loop does not supply it the policy silently falls back to full
	// regeneration for that round.
	ReusePool bool
	// SamplerVersion pins the sampler's stream-consumption contract
	// (rrset.V1 or rrset.V2). The zero value resolves to
	// rrset.DefaultVersion at New time, so a constructed Policy always
	// carries an explicit version — which is what the serve layer journals
	// and replays: a session recovered from a write-ahead log re-runs
	// under the version that wrote it, byte-identically, regardless of
	// what fresh sessions default to. Selections are identically
	// distributed across versions; only the stream layout (and speed)
	// differs.
	SamplerVersion rrset.Version
}

// Stats aggregates instrumentation across every round the policy served.
type Stats struct {
	// Rounds counts SelectBatch invocations.
	Rounds int64
	// Sets counts generated mRR/RR sets.
	Sets int64
	// SetNodes counts Σ|R| over generated sets.
	SetNodes int64
	// EdgesExamined counts in-edges inspected during reverse BFS.
	EdgesExamined int64
	// RngDraws counts stream values the reverse-BFS kernel consumed; the
	// V2 sampler's geometric skipping exists to shrink this relative to
	// EdgesExamined.
	RngDraws int64
	// Doublings counts pool-doubling steps taken.
	Doublings int64
	// HitCap counts rounds that exhausted T iterations without certifying
	// the target ratio (the t = T fallback in Algorithm 2 Line 11).
	HitCap int64
	// SetsReused counts stored sets carried across a round boundary
	// without regeneration (pool reuse only).
	SetsReused int64
	// SetsRefreshed counts stored sets regenerated in place by the prune
	// path (they are also counted in Sets).
	SetsRefreshed int64
	// FullRegens counts reuse-enabled rounds that fell back to full
	// regeneration (no usable delta, empty pool, or the stale fraction
	// crossed the prune cutoff). The fallback produces the identical pool,
	// just without the incremental savings.
	FullRegens int64
	// PeakPoolSize is the largest pool (set count) any round ended with.
	PeakPoolSize int64
}

// Policy is a TRIM/TRIM-B adaptive policy. One value may serve many runs
// sequentially (not concurrently); Reset — which adaptive.NewCampaign
// applies — clears the cross-round pool state so each run starts a fresh
// campaign.
type Policy struct {
	cfg  Config
	name string
	// engine is the shared sampling engine, created lazily for the run's
	// graph/model and reused (with its scratch) across rounds.
	engine *rrset.Engine
	// coll is the reusable mRR pool: Reset in O(touched) each round, or —
	// with ReusePool — pruned and topped up across rounds.
	coll *rrset.Collection
	// runSeed is the run's pool seed: position j of the pool always
	// samples from SplitMix64(runSeed+j), in every round and both reuse
	// modes. Drawn from the policy stream at the start of each run.
	runSeed uint64
	// lastRound/lastNi snapshot the previous SelectBatch, to detect run
	// boundaries and validate the activation delta.
	lastRound int
	lastNi    int64
	// lastPool is the pool size the previous round ended with: the next
	// round warm-starts from max(θ_0, lastPool) (capped), skipping the
	// part of the doubling ladder the previous round already climbed.
	// Both reuse modes follow the same schedule — the value is part of
	// the deterministic pool function, not a reuse-only shortcut.
	lastPool int64
	// fallbacks counts consecutive reuse rounds that fell back to full
	// regeneration. Two strikes mean the campaign entered a regime where
	// the pool churns wholesale (typically the late-η_i root-count
	// shifts), so batch-size-1 rounds stop storing sets and revert to the
	// cheaper counts-only generation — storage and counters never affect
	// selections, only speed.
	fallbacks int
	// Stats accumulates instrumentation; callers may reset it between runs.
	Stats Stats
}

// New validates cfg and returns a Policy.
func New(cfg Config) (*Policy, error) {
	if cfg.Epsilon <= 0 || cfg.Epsilon >= 1 {
		return nil, fmt.Errorf("trim: epsilon %v outside (0,1)", cfg.Epsilon)
	}
	if cfg.Batch < 1 {
		return nil, fmt.Errorf("trim: batch size %d must be >= 1", cfg.Batch)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("trim: negative worker count %d", cfg.Workers)
	}
	if cfg.SamplerVersion == 0 {
		cfg.SamplerVersion = rrset.DefaultVersion
	}
	if !cfg.SamplerVersion.Valid() {
		return nil, fmt.Errorf("trim: unknown sampler version %d", cfg.SamplerVersion)
	}
	var name string
	switch {
	case !cfg.Truncated:
		name = "AdaptIM"
	case cfg.Batch == 1:
		name = "ASTI"
	default:
		name = fmt.Sprintf("ASTI-%d", cfg.Batch)
	}
	return &Policy{cfg: cfg, name: name}, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *Policy {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements adaptive.Policy.
func (p *Policy) Name() string { return p.name }

// Config returns the policy's configuration.
func (p *Policy) Config() Config { return p.cfg }

// Engine returns the policy's sampling engine (nil before the first
// round).
func (p *Policy) Engine() *rrset.Engine { return p.engine }

// Close releases the policy's sampling engine and pool. The policy may be
// used again afterwards — the next round recreates the engine.
func (p *Policy) Close() {
	if p.engine != nil {
		p.engine.Close()
		p.engine = nil
		p.coll = nil
	}
	p.lastRound, p.lastNi, p.lastPool, p.fallbacks = 0, 0, 0, 0
}

// Reset clears cross-run state (the carried pool and run-seed bookkeeping)
// so the next SelectBatch starts a fresh campaign. adaptive.NewCampaign
// invokes it; instrumentation and the sampling engine survive.
func (p *Policy) Reset() {
	p.lastRound, p.lastNi, p.lastPool, p.fallbacks = 0, 0, 0, 0
	if p.coll != nil {
		p.coll.Reset()
	}
}

// PoolSize returns the current mRR pool size in sets (0 before the first
// round). Benchmarks read it between rounds to trace pool growth.
func (p *Policy) PoolSize() int {
	if p.coll == nil {
		return 0
	}
	return p.coll.Size()
}

// PoolBytes estimates the heap bytes held by the policy's mRR pool (0
// before the first round, and again after Close). The serve layer reads
// it through the session's status for per-session memory accounting;
// see rrset.Collection.MemoryBytes for what the estimate covers.
func (p *Policy) PoolBytes() int64 {
	if p.coll == nil {
		return 0
	}
	return p.coll.MemoryBytes()
}

// strategy returns the configured root strategy.
func (p *Policy) strategy() rrset.RootStrategy {
	if p.cfg.Truncated {
		return rrset.MultiRoot(p.cfg.Rounding)
	}
	return rrset.SingleRoot()
}

// reuseStaleCutoffPct is the stale-set percentage beyond which the prune
// path abandons per-set surgery and falls back to a full regeneration.
// Either way the resulting pool is identical; the cutoff only avoids
// paying prune bookkeeping on rounds where almost everything was
// invalidated anyway.
const reuseStaleCutoffPct = 75

// prepare points the reusable engine and collection at the round's
// graph/model (replacing them if a previous run used a different graph)
// and brings the pool to the round's starting target: a fresh generation
// of positions [0, target) after Reset, or — on reuse rounds — a prune of
// the carried pool plus an in-place refresh and top-up to the same
// positions. Both paths produce the identical pool; fresh reports whether
// this SelectBatch starts a new run (the caller must have drawn runSeed
// for fresh rounds beforehand). It returns true when the carried pool was
// reused — the round must then keep storing sets (the pool stays
// prunable), so the caller disables countsOnly for its doublings.
func (p *Policy) prepare(st *adaptive.State, target int64, countsOnly bool, fresh bool) bool {
	if p.engine == nil || p.engine.Graph() != st.G || p.engine.Model() != st.Model ||
		p.engine.Version() != p.cfg.SamplerVersion {
		if p.engine != nil {
			p.engine.Close()
		}
		p.engine = rrset.NewEngineVersion(st.G, st.Model, p.cfg.Workers, p.cfg.SamplerVersion)
		p.coll = rrset.NewCollection(st.G)
		fresh = true
	}
	if p.cfg.ReusePool && !fresh && p.reusePool(st, target) {
		p.fallbacks = 0
		p.generate(st, target, false)
		return true
	}
	// Once degraded to counts-only (fallbacks == 2) the empty stored pool
	// makes reusePool fail by design; stop counting those rounds as
	// fallbacks so Stats.FullRegens means "pruning was tried and lost".
	if p.cfg.ReusePool && !fresh && p.fallbacks < 2 {
		p.Stats.FullRegens++
		p.fallbacks++
	}
	p.coll.Reset()
	p.generate(st, target, countsOnly)
	return false
}

// reusePool prunes the pool carried from the previous round down to the
// sets still valid for this round's residual graph and regenerates the
// invalidated ones in place. It reports false when the pool must instead
// be rebuilt from scratch (missing/inconsistent delta, empty pool, or
// stale fraction beyond the cutoff) — the caller then takes the Reset
// path, which yields the identical pool.
func (p *Policy) reusePool(st *adaptive.State, target int64) bool {
	delta := st.Delta
	ni := st.Ni()
	// A nil delta is fine as long as the residual truly did not change
	// (a no-op observation: n_i equal implies η_i equal, so no set can
	// have gone stale); otherwise the change is unaccounted for and the
	// pool cannot be trusted.
	if p.lastNi-int64(len(delta)) != ni {
		return false
	}
	if p.coll.Stored() == 0 || p.coll.Stored() != p.coll.Size() {
		return false // nothing stored to reuse (e.g. counts-only history)
	}
	if int64(p.coll.Stored()) > target {
		// A fresh pool would start at the round target; shed the excess so
		// reuse stays invisible in the output (doubling regrows the same
		// positions if the bounds ask for them again).
		p.coll.Truncate(int(target))
	}
	stored := p.coll.Stored()
	etai := st.EtaI()
	strat := p.strategy()
	stale := p.coll.Prune(delta, func(id, rootK int32) bool {
		if !strat.Multi() {
			return false // single-root: k is always 1
		}
		if rootK == 0 {
			return true // unknown provenance
		}
		k := strat.RootSizeAt(p.runSeed, int64(id), ni, etai)
		// A changed root count changes the set; k == n_i makes the set the
		// inactive list itself, in list order, which a kept set holding
		// the same nodes need not match — regenerate rather than reason
		// about it.
		return int64(k) >= ni || k != int(rootK)
	})
	if len(stale)*100 >= stored*reuseStaleCutoffPct {
		return false
	}
	gs := p.engine.Refresh(p.coll, rrset.Request{
		Strategy: strat,
		Inactive: st.Inactive,
		Active:   st.Active,
		EtaI:     etai,
		Seed:     p.runSeed,
	}, stale)
	p.Stats.Sets += gs.Sets
	p.Stats.SetNodes += gs.SetNodes
	p.Stats.EdgesExamined += gs.EdgesExamined
	p.Stats.RngDraws += gs.RngDraws
	p.Stats.SetsRefreshed += int64(len(stale))
	p.Stats.SetsReused += int64(stored - len(stale))
	return true
}

// SelectBatch implements adaptive.Policy: one round of truncated (or
// vanilla) influence maximization on the residual graph. A round with a
// single inactive node, or a truncated round at η_i = 1 (a campaign's
// last), returns the smallest inactive id without sampling, which is
// what sampling would select; the pool then stays the previous round's.
func (p *Policy) SelectBatch(st *adaptive.State) ([]int32, error) {
	ni := st.Ni()
	etai := st.EtaI()
	if ni <= 0 {
		return nil, errors.New("trim: empty residual graph")
	}
	if etai <= 0 {
		return nil, errors.New("trim: threshold already reached")
	}
	p.Stats.Rounds++

	// fresh marks the start of a new run (first call after Reset, or a
	// round sequence the policy cannot account for): the pool seed is
	// redrawn and the pool rebuilt. The detection uses only values equal
	// in both reuse modes, so the policy-stream consumption — and hence
	// every selection — is identical with reuse on or off.
	fresh := p.lastRound == 0 || st.Round != p.lastRound+1
	if fresh {
		p.runSeed = st.Rng.Uint64()
		p.lastPool = 0
	}
	p.lastRound = st.Round
	defer func() {
		p.lastNi = st.Ni()
		if p.coll != nil {
			p.lastPool = int64(p.coll.Size())
		}
	}()

	b := p.cfg.Batch
	if int64(b) > ni {
		b = int(ni)
	}
	// Sampling decides nothing with a single inactive node, nor under the
	// truncated objective at a shortfall of one: every mRR set then has
	// n_i/η_i = n_i roots, so each is the whole residual V_i, and every
	// candidate covers the whole pool. Both selectors break that tie
	// toward the smallest id, Inactive is ascending, and the greedy stops
	// after one pick because it covers every set: the sampled answer is
	// Inactive[0], for every rounding mode. The untruncated objective
	// does not tie, so AdaptIM still samples.
	if ni == 1 || (etai == 1 && p.cfg.Truncated) {
		return []int32{st.Inactive[0]}, nil
	}

	eps := p.cfg.Epsilon
	epsHat := 99 * eps / (100 - eps)
	rhoB := stats.RhoB(b)
	// δ ← ε / (100·(1−1/e)·(1−ε)·η_i). The vanilla variant has no η_i in
	// its analysis; n_i takes its place (OPIM-C style δ ≈ 1/n).
	scale := etai
	if !p.cfg.Truncated {
		scale = ni
	}
	delta := eps / (100 * (1 - 1/math.E) * (1 - eps) * float64(scale))

	ln6d := math.Log(6 / delta)
	// ln C(n_i, b): the union bound over candidate solutions. For b = 1 it
	// degenerates to ln n_i, recovering Algorithm 2 from Algorithm 3.
	lnChoose := stats.LogChoose(ni, int64(b))

	sq := math.Sqrt(ln6d) + math.Sqrt((lnChoose+ln6d)/rhoB)
	thetaMax := 2 * float64(ni) * sq * sq / (float64(b) * epsHat * epsHat)
	theta0 := thetaMax * float64(b) * epsHat * epsHat / float64(ni)
	if theta0 < 1 {
		theta0 = 1
	}
	T := int(math.Ceil(math.Log2(thetaMax/theta0))) + 1
	if T < 1 {
		T = 1
	}
	a1 := math.Log(3*float64(T)/delta) + lnChoose
	a2 := math.Log(3 * float64(T) / delta)

	cap64 := int64(math.Ceil(thetaMax))
	if p.cfg.MaxSetsPerRound > 0 && cap64 > p.cfg.MaxSetsPerRound {
		cap64 = p.cfg.MaxSetsPerRound
	}

	// Counts-only pools cannot be pruned (no stored sets to keep), so the
	// reuse path stores sets even at batch size 1; the coverage counts —
	// all the b == 1 selection reads — are identical either way. After
	// two consecutive full-regeneration fallbacks the policy stops paying
	// for storage it cannot exploit and degrades to counts-only for the
	// rest of the run.
	countsOnly := b == 1 && (!p.cfg.ReusePool || p.fallbacks >= 2)
	target := int64(math.Ceil(theta0))
	// Warm start: pick up at the pool size the previous round certified
	// with, instead of re-climbing the doubling ladder from θ_0. The
	// martingale bounds only tighten with more samples, and the schedule
	// is shared by both reuse modes (lastPool is identical in both), so
	// warm-starting never changes the selected seeds — it removes the
	// early doubling iterations reuse would otherwise regenerate.
	if target < p.lastPool && !fresh {
		target = p.lastPool
	}
	if target > cap64 {
		target = cap64
	}
	if p.prepare(st, target, countsOnly, fresh) {
		countsOnly = false // reused pools stay stored through the doublings
	}
	coll := p.coll

	for t := 1; ; t++ {
		var seeds []int32
		var covered int64
		if b == 1 {
			v, cov := coll.ArgmaxCoverage(st.Inactive)
			seeds, covered = []int32{v}, cov
		} else {
			seeds, covered = coll.GreedyMaxCoverage(b, st.Inactive)
		}
		if len(seeds) == 0 {
			// No set coverage at all (degenerate residual graph): any
			// inactive node is as good as any other. A copy, as the host
			// loop compacts st.Inactive in place.
			return slices.Clone(st.Inactive[:min(b, len(st.Inactive))]), nil
		}
		lower := stats.CoverageLower(float64(covered), a1)
		upper := stats.CoverageUpper(float64(covered)/rhoB, a2)
		if upper > 0 && lower/upper >= rhoB*(1-epsHat) {
			p.notePool()
			return seeds, nil
		}
		if t >= T || int64(coll.Size()) >= cap64 {
			p.Stats.HitCap++
			p.notePool()
			return seeds, nil
		}
		// Double the pool (Algorithm 2/3 Line 12).
		next := int64(coll.Size()) * 2
		if next > cap64 {
			next = cap64
		}
		p.Stats.Doublings++
		p.generate(st, next, countsOnly)
	}
}

// generate grows the pool to the requested number of sets through the
// shared engine. countsOnly skips set storage (batch size 1 needs only the
// coverage counts). Pool position j always samples from
// SplitMix64(runSeed+j) — the position-stable seeding that makes pools a
// pure function of (runSeed, residual, size), independent of how they were
// built.
func (p *Policy) generate(st *adaptive.State, total int64, countsOnly bool) {
	need := total - int64(p.coll.Size())
	if need <= 0 {
		return
	}
	gs := p.engine.Generate(p.coll, rrset.Request{
		Strategy:   p.strategy(),
		Inactive:   st.Inactive,
		Active:     st.Active,
		EtaI:       st.EtaI(),
		Count:      int(need),
		Seed:       p.runSeed,
		FirstIndex: int64(p.coll.Size()),
		CountsOnly: countsOnly,
	})
	p.Stats.Sets += gs.Sets
	p.Stats.SetNodes += gs.SetNodes
	p.Stats.EdgesExamined += gs.EdgesExamined
	p.Stats.RngDraws += gs.RngDraws
}

// notePool records the round's final pool size in the peak statistic.
func (p *Policy) notePool() {
	if s := int64(p.coll.Size()); s > p.Stats.PeakPoolSize {
		p.Stats.PeakPoolSize = s
	}
}
