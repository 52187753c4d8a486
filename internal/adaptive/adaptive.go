// Package adaptive implements the paper's ASTI framework (Algorithm 1):
// the adaptive select–observe–select loop for seed minimization.
//
// A Policy encapsulates one round of seed selection on the current
// residual graph (TRIM, TRIM-B and the AdaptIM baseline are Policies). A
// Campaign is the loop itself: each round the policy proposes a batch,
// the batch's realized influence is observed, the activated nodes are
// removed from the residual graph, and the loop stops as soon as at
// least η nodes are active — the property that makes adaptive policies
// always feasible (§1, §6.2). Run drives a Campaign against one fixed
// Realization φ; serve.Session drives one against a client's
// observations.
package adaptive

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"asti/internal/bitset"
	"asti/internal/diffusion"
	"asti/internal/graph"
	"asti/internal/rng"
)

// State is the residual view a Policy selects against in round i: the
// original graph plus the mask of already-activated nodes. It corresponds
// to the paper's residual graph G_i = subgraph induced by the inactive
// nodes V_i, with shortfall η_i = η − (n − n_i).
type State struct {
	// G is the full (immutable) graph; the residual view is G minus
	// Active.
	G *graph.Graph
	// Model is the diffusion model of the campaign.
	Model diffusion.Model
	// Eta is the original threshold η.
	Eta int64
	// Active marks nodes activated in previous rounds.
	Active *bitset.Set
	// Inactive lists the nodes of the residual graph (V_i), kept compact.
	Inactive []int32
	// Delta lists the nodes removed from Inactive by the most recent
	// observation — the activation delta between the previous round's
	// residual and this one (nil on round 1, or when the host loop cannot
	// vouch for it). Policies use it to reuse sampling state across
	// rounds; a nil Delta only ever costs speed, never correctness.
	Delta []int32
	// Round is the 1-based current round index.
	Round int
	// Rng is the policy's private randomness stream for this run.
	Rng *rng.Source
}

// Ni returns n_i, the residual node count.
func (st *State) Ni() int64 { return int64(len(st.Inactive)) }

// Activated returns n − n_i, the number of active nodes.
func (st *State) Activated() int64 { return int64(st.G.N()) - st.Ni() }

// EtaI returns η_i = η − (n − n_i), the remaining shortfall.
func (st *State) EtaI() int64 { return st.Eta - st.Activated() }

// Policy selects the next seed batch for a residual state. Implementations
// must return seeds drawn from st.Inactive; returning an empty batch is an
// error surfaced by Run.
type Policy interface {
	// Name identifies the policy in reports ("ASTI", "ASTI-8", "AdaptIM").
	Name() string
	// SelectBatch picks the next batch of seed nodes.
	SelectBatch(st *State) ([]int32, error)
}

// RoundTrace records what one round selected and observed.
type RoundTrace struct {
	// Seeds is the batch selected this round.
	Seeds []int32
	// Marginal is the realized marginal spread of the batch: the number of
	// nodes newly activated this round (Appendix D's per-seed series).
	Marginal int64
	// NiBefore and EtaIBefore snapshot the residual state the batch was
	// selected in.
	NiBefore   int64
	EtaIBefore int64
}

// Result summarizes one adaptive run on one realization.
type Result struct {
	// Policy is the policy's report name.
	Policy string
	// Seeds is the full seed sequence in selection order.
	Seeds []int32
	// Rounds traces each batch.
	Rounds []RoundTrace
	// Spread is the total number of activated nodes at termination.
	Spread int64
	// ReachedEta reports whether Spread ≥ η (always true for adaptive
	// policies run to completion; recorded for symmetry with non-adaptive
	// evaluation).
	ReachedEta bool
	// Duration is the policy-side selection time (observation time between
	// rounds is excluded: in the field it is the marketing campaign, not
	// computation).
	Duration time.Duration
}

// NumSeeds returns the number of selected seeds.
func (r *Result) NumSeeds() int { return len(r.Seeds) }

// ErrNoProgress is returned when a policy yields an empty batch while the
// threshold is not yet reached.
var ErrNoProgress = errors.New("adaptive: policy returned no seeds before reaching eta")

// Campaign is Algorithm 1's loop state, kept once for every host of a
// Policy: Run drives it against a realization, serve.Session against a
// client's observations. Each round Propose selects a batch on the
// residual graph and Commit folds the batch's observed influence back
// in; the campaign is over once EtaI() ≤ 0. A Campaign is not safe for
// concurrent use.
type Campaign struct {
	// State is the residual view the policy selects against. Its Round
	// counts proposals, a batch still awaiting Commit included.
	State
	// Policy proposes the batches.
	Policy Policy
	// Seeds is the committed seed sequence in selection order.
	Seeds []int32
	// Rounds traces each committed round.
	Rounds []RoundTrace
	// SelectTime is the cumulative policy-side selection time.
	SelectTime time.Duration
}

// NewCampaign starts a campaign to activate at least eta nodes of g under
// model: every node inactive, no round proposed, and policy's cross-run
// state reset. src drives the policy's sampling.
func NewCampaign(g *graph.Graph, model diffusion.Model, eta int64, policy Policy, src *rng.Source) (*Campaign, error) {
	if err := validate(g, model, eta); err != nil {
		return nil, err
	}
	if policy == nil {
		return nil, errors.New("adaptive: nil policy")
	}
	// A policy may carry cross-run state, such as a sampling pool, and
	// declares it with a Reset method: every campaign starts fresh.
	if r, ok := policy.(interface{ Reset() }); ok {
		r.Reset()
	}
	return &Campaign{
		State: State{
			G:        g,
			Model:    model,
			Eta:      eta,
			Active:   bitset.New(int(g.N())),
			Inactive: allNodes(g.N()),
			Rng:      src,
		},
		Policy: policy,
	}, nil
}

// Propose counts the next round and runs the policy on the residual
// state, adding the time it takes to SelectTime. An empty batch is
// ErrNoProgress; a batch with an out-of-range, active or repeated seed
// is an error too. On any failure, a panic in the policy included, the
// round is not counted. The returned batch is the caller's copy: a
// policy may return a view of Inactive, which Commit rewrites.
func (c *Campaign) Propose() ([]int32, error) {
	c.Round++
	counted := false
	defer func() {
		if !counted {
			c.Round--
		}
	}()
	//asm:nondet-ok wall-clock timing statistic only; SelectTime never feeds seed selection or the rng
	t0 := time.Now()
	batch, err := c.Policy.SelectBatch(&c.State)
	//asm:nondet-ok same timing statistic as above
	c.SelectTime += time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("adaptive: round %d: %w", c.Round, err)
	}
	if len(batch) == 0 {
		return nil, ErrNoProgress
	}
	if err := ValidateBatch(c.G, c.Active, batch); err != nil {
		return nil, fmt.Errorf("adaptive: round %d: %w", c.Round, err)
	}
	counted = true
	return slices.Clone(batch), nil
}

// Commit closes the proposed round: the batch Propose returned and the
// observed activated nodes (in range; already-active ones are ignored)
// become active, the nodes this activates leave Inactive and form the
// next round's Delta, and the round's trace is recorded. It returns the
// number of newly activated nodes.
func (c *Campaign) Commit(batch, activated []int32) int64 {
	before := c.Activated()
	trace := RoundTrace{Seeds: batch, NiBefore: c.Ni(), EtaIBefore: c.EtaI()}
	for _, v := range batch {
		c.Active.Set(v)
	}
	for _, v := range activated {
		c.Active.Set(v)
	}
	c.Inactive, c.Delta = CompactInactive(c.Inactive, c.Active)
	trace.Marginal = c.Activated() - before
	c.Seeds = append(c.Seeds, batch...)
	c.Rounds = append(c.Rounds, trace)
	return trace.Marginal
}

// Run executes policy against realization φ until at least eta nodes are
// active. seedRng drives the policy's internal sampling; φ supplies the
// (initially hidden) ground truth.
func Run(g *graph.Graph, model diffusion.Model, eta int64, policy Policy, φ *diffusion.Realization, seedRng *rng.Source) (*Result, error) {
	c, err := NewCampaign(g, model, eta, policy, seedRng)
	if err != nil {
		return nil, err
	}
	if φ.Graph() != g || φ.Model() != model {
		return nil, errors.New("adaptive: realization does not match graph/model")
	}
	for c.EtaI() > 0 {
		batch, err := c.Propose()
		if err != nil {
			return nil, err
		}
		// Observe the batch's realized influence in φ restricted to the
		// residual graph. Observation time is not selection time: in the
		// field it is the marketing campaign, not computation.
		c.Commit(batch, φ.Spread(batch, c.Active))
	}
	spread := c.Activated()
	return &Result{
		Policy:     policy.Name(),
		Seeds:      c.Seeds,
		Rounds:     c.Rounds,
		Spread:     spread,
		ReachedEta: spread >= eta,
		Duration:   c.SelectTime,
	}, nil
}

// EvaluateFixedSet measures a non-adaptively chosen seed set S on a single
// realization: the realized spread and whether it reaches η. This is how
// the paper scores ATEUC per realization (Fig. 8, Table 3 N/A cells).
func EvaluateFixedSet(φ *diffusion.Realization, S []int32, eta int64) (spread int64, reached bool) {
	spread = int64(φ.SpreadSize(S, nil))
	return spread, spread >= eta
}

func validate(g *graph.Graph, model diffusion.Model, eta int64) error {
	if g == nil {
		return errors.New("adaptive: nil graph")
	}
	if !model.Valid() {
		return errors.New("adaptive: unknown diffusion model")
	}
	if eta < 1 || eta > int64(g.N()) {
		return fmt.Errorf("adaptive: eta %d outside [1, n=%d]", eta, g.N())
	}
	return nil
}

func allNodes(n int32) []int32 {
	xs := make([]int32, n)
	for i := range xs {
		xs[i] = int32(i)
	}
	return xs
}

// ValidateBatch rejects batches containing out-of-range, already-active
// or repeated seeds — the guard Propose applies to every proposal.
func ValidateBatch(g *graph.Graph, active *bitset.Set, batch []int32) error {
	for i, s := range batch {
		if s < 0 || s >= g.N() || active.Get(s) {
			return fmt.Errorf("policy selected invalid or active seed %d", s)
		}
		if slices.Contains(batch[:i], s) {
			return fmt.Errorf("policy selected seed %d twice", s)
		}
	}
	return nil
}

// CompactInactive removes newly activated nodes from the inactive list in
// place, preserving order, and returns the surviving list alongside the
// removed nodes — the activation delta Commit feeds back to policies via
// State.Delta (so sampling pools can be pruned instead of rebuilt). delta
// is nil when nothing was removed; otherwise it is freshly allocated (the
// kept prefix overwrites the input's storage).
func CompactInactive(inactive []int32, active *bitset.Set) (kept, delta []int32) {
	out := inactive[:0]
	for _, v := range inactive {
		if !active.Get(v) {
			out = append(out, v)
		} else {
			delta = append(delta, v)
		}
	}
	return out, delta
}
