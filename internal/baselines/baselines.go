// Package baselines implements every comparator in the paper's evaluation
// (§6.1):
//
//   - ATEUC — the state-of-the-art NON-adaptive seed-minimization
//     algorithm (Han et al. 2017), reconstructed from its description: an
//     RR-set based greedy that grows a candidate seed set until its
//     lower-bounded expected spread reaches η, with an upper/lower
//     candidate-size pair (Su, Sl) and the |Su| ≤ 2|Sl| stopping rule.
//   - AdaptIM — the adaptive influence-maximization transplant: greedy on
//     the *untruncated* marginal spread with single-root RR-sets. It has
//     no code here: callers build trim.Config{Batch: 1, Truncated: false},
//     so the only difference from ASTI is the paper's claimed mechanism.
//   - MCGreedy — Monte-Carlo greedy (CELF-style evaluation of every
//     candidate), the closest practical stand-in for the oracle policy of
//     Golovin & Krause; tractable only on small graphs, used as a quality
//     reference in tests and ablations.
//   - Degree / Random — trivial adaptive heuristics for sanity floors.
package baselines

import (
	"errors"
	"fmt"
	"math"

	"asti/internal/adaptive"
	"asti/internal/diffusion"
	"asti/internal/estimator"
	"asti/internal/graph"
	"asti/internal/rng"
	"asti/internal/rrset"
	"asti/internal/stats"
)

// ATEUC is the non-adaptive baseline. One value serves many Select calls
// sequentially.
type ATEUC struct {
	// Epsilon is the estimation slack (paper setting: recommended values
	// from Han et al.; we reuse the sweep's ε).
	Epsilon float64
	// MaxSets caps the RR pool (0 = default cap of 2^20 sets).
	MaxSets int64
	// Workers sets the sampling engine's worker count (0 = GOMAXPROCS,
	// 1 = sequential). The selected seeds are identical for every setting.
	Workers int
	// Stats instrumentation.
	Stats ATEUCStats
}

// ATEUCStats aggregates instrumentation across Select calls.
type ATEUCStats struct {
	// Sets counts generated RR sets.
	Sets int64
	// Doublings counts pool-doubling steps taken.
	Doublings int64
	// HitCap counts runs that exhausted the iteration budget without
	// certifying the target ratio.
	HitCap int64
}

// Name identifies the baseline in reports.
func (a *ATEUC) Name() string { return "ATEUC" }

// Select chooses a seed set S non-adaptively such that (w.h.p.)
// E[I(S)] ≥ eta. The caller then scores S per realization with
// adaptive.EvaluateFixedSet; unlike the adaptive policies nothing
// guarantees I_φ(S) ≥ η on individual realizations.
func (a *ATEUC) Select(g *graph.Graph, model diffusion.Model, eta int64, r *rng.Source) ([]int32, error) {
	if a.Epsilon <= 0 || a.Epsilon >= 1 {
		return nil, fmt.Errorf("ateuc: epsilon %v outside (0,1)", a.Epsilon)
	}
	n := int64(g.N())
	if eta < 1 || eta > n {
		return nil, fmt.Errorf("ateuc: eta %d outside [1, n=%d]", eta, n)
	}
	cap64 := a.MaxSets
	if cap64 <= 0 {
		cap64 = 1 << 20
	}

	inactive := make([]int32, g.N())
	for i := range inactive {
		inactive[i] = int32(i)
	}
	engine := rrset.NewEngine(g, model, a.Workers)
	defer engine.Close()
	coll := rrset.NewCollection(g)

	// Failure budget and per-check confidence, OPIM-style.
	delta := 1 / float64(n)
	lnN := math.Log(float64(n))
	rounds := int(math.Ceil(math.Log2(float64(cap64)))) + 1
	a1 := math.Log(3*float64(rounds)/delta) + lnN
	a2 := math.Log(3 * float64(rounds) / delta)

	theta := int64(math.Ceil(8 * (lnN + math.Log(3/delta)) / (a.Epsilon * a.Epsilon)))
	if theta < 64 {
		theta = 64
	}
	if theta > cap64 {
		theta = cap64
	}

	for {
		if need := theta - int64(coll.Size()); need > 0 {
			gs := engine.Generate(coll, rrset.Request{
				Strategy: rrset.SingleRoot(), Inactive: inactive,
				Count: int(need), Seed: r.Uint64(),
			})
			a.Stats.Sets += gs.Sets
		}
		su, sl, ok := a.attempt(g, coll, eta, a1, a2, int64(coll.Size()) >= cap64)
		if ok && (len(su) <= 2*sl || int64(coll.Size()) >= cap64) {
			if int64(coll.Size()) >= cap64 && len(su) > 2*sl {
				a.Stats.HitCap++
			}
			return su, nil
		}
		if int64(coll.Size()) >= cap64 {
			a.Stats.HitCap++
			if len(su) > 0 {
				return su, nil
			}
			return nil, errors.New("ateuc: could not certify a seed set within the sample cap")
		}
		a.Stats.Doublings++
		theta = int64(coll.Size()) * 2
		if theta > cap64 {
			theta = cap64
		}
	}
}

// attempt runs one greedy pass over the current RR pool. It returns the
// upper candidate Su (first greedy prefix whose lower-bounded expected
// spread reaches eta), the optimum-size lower bound |Sl|, and whether Su
// is complete. When `final` is set the raw estimate is accepted in place
// of the lower bound so the algorithm always terminates at the cap.
func (a *ATEUC) attempt(g *graph.Graph, coll *rrset.Collection, eta int64, a1, a2 float64, final bool) (su []int32, sl int, ok bool) {
	n := float64(g.N())
	theta := float64(coll.Size())
	covered := make([]bool, coll.Size())
	marg := make([]int64, g.N())
	for v := int32(0); v < g.N(); v++ {
		marg[v] = coll.Coverage(v)
	}
	var coverage int64
	sl = 0
	for {
		// Greedy pick.
		var best int32 = -1
		var bestCov int64
		for v := int32(0); v < g.N(); v++ {
			if best < 0 || marg[v] > bestCov {
				best, bestCov = v, marg[v]
			}
		}
		if best < 0 || (bestCov == 0 && len(su) > 0) {
			// Exhausted: every RR set covered yet LB < η.
			return su, maxInt(sl, 1), false
		}
		su = append(su, best)
		coverage += bestCov
		for _, id := range coll.IndexOf(best) {
			if covered[id] {
				continue
			}
			covered[id] = true
			for _, w := range coll.Set(id) {
				marg[w]--
			}
		}
		j := len(su)
		// Lower-bound check for Su.
		lb := n * stats.CoverageLower(float64(coverage), a1) / theta
		if final {
			lb = n * float64(coverage) / theta
		}
		// Sl: the first prefix size j whose ρ_j-inflated upper bound
		// reaches η certifies that smaller sets cannot; while the bound
		// stays below η, OPT must exceed j.
		ub := n * stats.CoverageUpper(float64(coverage)/stats.RhoB(j), a2) / theta
		if ub < float64(eta) {
			sl = j + 1
		}
		if lb >= float64(eta) {
			return su, maxInt(sl, 1), true
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// MCGreedy is the Monte-Carlo greedy adaptive policy: per round it
// estimates every inactive node's expected (truncated) marginal spread by
// simulation and picks the best. Exact up to sampling noise, and
// exponential-free — but Θ(n_i · samples) simulations per round, so only
// for small graphs.
type MCGreedy struct {
	// Samples per candidate evaluation.
	Samples int
	// Truncated selects the paper's truncated objective; false evaluates
	// vanilla marginal spread.
	Truncated bool
}

// Name implements adaptive.Policy.
func (p *MCGreedy) Name() string {
	if p.Truncated {
		return "MCGreedy"
	}
	return "MCGreedy-vanilla"
}

// SelectBatch implements adaptive.Policy.
func (p *MCGreedy) SelectBatch(st *adaptive.State) ([]int32, error) {
	if p.Samples <= 0 {
		return nil, errors.New("mcgreedy: samples must be positive")
	}
	etai := st.EtaI()
	var best int32 = -1
	bestVal := math.Inf(-1)
	for _, v := range st.Inactive {
		var val float64
		if p.Truncated {
			val = estimator.MCTruncated(st.G, st.Model, []int32{v}, st.Active, etai, p.Samples, st.Rng)
		} else {
			val = estimator.MCSpread(st.G, st.Model, []int32{v}, st.Active, p.Samples, st.Rng)
		}
		if val > bestVal {
			best, bestVal = v, val
		}
	}
	if best < 0 {
		return nil, errors.New("mcgreedy: no inactive nodes")
	}
	return []int32{best}, nil
}

// Degree is the adaptive highest-out-degree heuristic.
type Degree struct{}

// Name implements adaptive.Policy.
func (Degree) Name() string { return "Degree" }

// SelectBatch implements adaptive.Policy.
func (Degree) SelectBatch(st *adaptive.State) ([]int32, error) {
	var best int32 = -1
	var bestDeg int32 = -1
	for _, v := range st.Inactive {
		if d := st.G.OutDegree(v); d > bestDeg {
			best, bestDeg = v, d
		}
	}
	if best < 0 {
		return nil, errors.New("degree: no inactive nodes")
	}
	return []int32{best}, nil
}

// Random is the adaptive uniform-random heuristic.
type Random struct{}

// Name implements adaptive.Policy.
func (Random) Name() string { return "Random" }

// SelectBatch implements adaptive.Policy.
func (Random) SelectBatch(st *adaptive.State) ([]int32, error) {
	if len(st.Inactive) == 0 {
		return nil, errors.New("random: no inactive nodes")
	}
	return []int32{st.Inactive[st.Rng.Intn(len(st.Inactive))]}, nil
}
