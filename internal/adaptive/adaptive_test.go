package adaptive

import (
	"errors"
	"slices"
	"testing"

	"asti/internal/bitset"
	"asti/internal/diffusion"
	"asti/internal/gen"
	"asti/internal/graph"
	"asti/internal/rng"
)

// policyFunc adapts a closure into a Policy for probing loop behavior.
type policyFunc struct {
	name string
	fn   func(*State) ([]int32, error)
}

func (p policyFunc) Name() string                           { return p.name }
func (p policyFunc) SelectBatch(st *State) ([]int32, error) { return p.fn(st) }

// pickFirst is a trivial policy selecting the lowest-id inactive node.
type pickFirst struct{}

func (pickFirst) Name() string { return "pick-first" }
func (pickFirst) SelectBatch(st *State) ([]int32, error) {
	return []int32{st.Inactive[0]}, nil
}

// badPolicy returns an already-active or out-of-range seed.
type badPolicy struct{ seed int32 }

func (badPolicy) Name() string { return "bad" }
func (b badPolicy) SelectBatch(st *State) ([]int32, error) {
	return []int32{b.seed}, nil
}

// emptyPolicy returns no seeds.
type emptyPolicy struct{}

func (emptyPolicy) Name() string                        { return "empty" }
func (emptyPolicy) SelectBatch(*State) ([]int32, error) { return nil, nil }

// errPolicy propagates an error.
type errPolicy struct{}

func (errPolicy) Name() string { return "err" }
func (errPolicy) SelectBatch(*State) ([]int32, error) {
	return nil, errors.New("boom")
}

func smallGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{Name: "t", N: 120, AvgDeg: 2, UniformMix: 0.3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRunValidation(t *testing.T) {
	g := smallGraph(t)
	φ := diffusion.SampleRealization(g, diffusion.IC, rng.New(1))
	for _, eta := range []int64{0, -5, int64(g.N()) + 1} {
		if _, err := Run(g, diffusion.IC, eta, pickFirst{}, φ, rng.New(2)); err == nil {
			t.Errorf("eta=%d accepted", eta)
		}
	}
	if _, err := Run(nil, diffusion.IC, 1, pickFirst{}, φ, rng.New(2)); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := Run(g, diffusion.Model(7), 1, pickFirst{}, φ, rng.New(2)); err == nil {
		t.Error("bad model accepted")
	}
	// Mismatched realization.
	g2 := smallGraph(t)
	φ2 := diffusion.SampleRealization(g2, diffusion.IC, rng.New(1))
	if _, err := Run(g, diffusion.IC, 10, pickFirst{}, φ2, rng.New(2)); err == nil {
		t.Error("mismatched realization accepted")
	}
	φLT := diffusion.SampleRealization(g, diffusion.LT, rng.New(1))
	if _, err := Run(g, diffusion.IC, 10, pickFirst{}, φLT, rng.New(2)); err == nil {
		t.Error("model-mismatched realization accepted")
	}
}

func TestRunPolicyErrors(t *testing.T) {
	g := smallGraph(t)
	φ := diffusion.SampleRealization(g, diffusion.IC, rng.New(1))
	if _, err := Run(g, diffusion.IC, 10, emptyPolicy{}, φ, rng.New(2)); !errors.Is(err, ErrNoProgress) {
		t.Errorf("empty batch: got %v, want ErrNoProgress", err)
	}
	if _, err := Run(g, diffusion.IC, 10, errPolicy{}, φ, rng.New(2)); err == nil {
		t.Error("policy error swallowed")
	}
	if _, err := Run(g, diffusion.IC, 10, badPolicy{seed: -1}, φ, rng.New(2)); err == nil {
		t.Error("out-of-range seed accepted")
	}
}

// TestCampaignFailedProposalCountsNoRound: a proposal that fails — a
// policy error, an empty or invalid batch, or a panic in the policy —
// leaves the round count where it was, so the next proposal is numbered
// as a replay of the committed history would number it.
func TestCampaignFailedProposalCountsNoRound(t *testing.T) {
	g := smallGraph(t)
	panics := policyFunc{name: "panics", fn: func(*State) ([]int32, error) { panic("boom") }}
	for _, pol := range []Policy{errPolicy{}, emptyPolicy{}, badPolicy{seed: -1}, panics} {
		c, err := NewCampaign(g, diffusion.IC, 10, pol, rng.New(2))
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() { _ = recover() }()
			if _, err := c.Propose(); err == nil {
				t.Errorf("%s: failed proposal accepted", pol.Name())
			}
		}()
		if c.Round != 0 {
			t.Errorf("%s: round %d after a failed proposal, want 0", pol.Name(), c.Round)
		}
	}
}

func TestRunRejectsActiveSeed(t *testing.T) {
	// A policy that keeps returning node 0 must be rejected on round 2.
	g := gen.Line(4, 1.0)
	φ := diffusion.SampleRealization(g, diffusion.IC, rng.New(1))
	_, err := Run(g, diffusion.IC, 4, badPolicy{seed: 3}, φ, rng.New(2))
	// seed 3 activates only node 3 (tail); round 2 re-selects node 3 which
	// is now active.
	if err == nil {
		t.Fatal("re-selected active seed accepted")
	}
}

// TestValidateBatch pins the proposal guard: in-range, inactive,
// distinct seeds pass; an out-of-range, already-active or repeated seed
// fails.
func TestValidateBatch(t *testing.T) {
	g := gen.Line(4, 1.0)
	active := bitset.New(4)
	active.Set(1)
	for _, tc := range []struct {
		batch []int32
		ok    bool
	}{
		{[]int32{0, 2, 3}, true},
		{[]int32{-1}, false},
		{[]int32{4}, false},
		{[]int32{0, 1}, false},
		{[]int32{2, 0, 2}, false},
	} {
		if err := ValidateBatch(g, active, tc.batch); (err == nil) != tc.ok {
			t.Errorf("ValidateBatch(%v) = %v, want ok=%v", tc.batch, err, tc.ok)
		}
	}
}

// TestRunAlwaysReachesEta: the structural guarantee of adaptivity — any
// valid policy run to completion meets the threshold on every realization.
func TestRunAlwaysReachesEta(t *testing.T) {
	g := smallGraph(t)
	for seed := uint64(0); seed < 10; seed++ {
		φ := diffusion.SampleRealization(g, diffusion.IC, rng.New(seed))
		res, err := Run(g, diffusion.IC, 60, pickFirst{}, φ, rng.New(seed+100))
		if err != nil {
			t.Fatal(err)
		}
		if res.Spread < 60 || !res.ReachedEta {
			t.Fatalf("seed %d: spread %d", seed, res.Spread)
		}
	}
}

// TestRunTracesConsistent: round traces decompose the final spread, the
// shortfall strictly decreases, and seed count matches the trace.
func TestRunTracesConsistent(t *testing.T) {
	g := smallGraph(t)
	φ := diffusion.SampleRealization(g, diffusion.IC, rng.New(5))
	res, err := Run(g, diffusion.IC, 50, pickFirst{}, φ, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	var total, seeds int64
	prevEta := int64(1 << 60)
	for _, tr := range res.Rounds {
		total += tr.Marginal
		seeds += int64(len(tr.Seeds))
		if tr.Marginal < int64(len(tr.Seeds)) {
			t.Fatalf("marginal %d below batch size %d", tr.Marginal, len(tr.Seeds))
		}
		if tr.EtaIBefore >= prevEta {
			t.Fatalf("shortfall did not decrease: %d then %d", prevEta, tr.EtaIBefore)
		}
		prevEta = tr.EtaIBefore
	}
	if total != res.Spread {
		t.Fatalf("trace marginals sum to %d, spread %d", total, res.Spread)
	}
	if seeds != int64(len(res.Seeds)) || res.NumSeeds() != len(res.Seeds) {
		t.Fatal("seed bookkeeping inconsistent")
	}
}

// TestStateAccessors checks the η_i / n_i arithmetic.
func TestStateAccessors(t *testing.T) {
	g := gen.Line(10, 1.0)
	st := &State{G: g, Eta: 7, Inactive: []int32{0, 1, 2, 3}}
	if st.Ni() != 4 {
		t.Fatalf("Ni = %d", st.Ni())
	}
	if st.Activated() != 6 {
		t.Fatalf("Activated = %d", st.Activated())
	}
	if st.EtaI() != 1 { // 7 - (10-4)
		t.Fatalf("EtaI = %d", st.EtaI())
	}
}

// TestEvaluateFixedSet: deterministic line, fixed seed set.
func TestEvaluateFixedSet(t *testing.T) {
	g := gen.Line(5, 1.0)
	φ := diffusion.SampleRealization(g, diffusion.IC, rng.New(1))
	spread, reached := EvaluateFixedSet(φ, []int32{0}, 5)
	if spread != 5 || !reached {
		t.Fatalf("spread=%d reached=%v", spread, reached)
	}
	spread, reached = EvaluateFixedSet(φ, []int32{4}, 2)
	if spread != 1 || reached {
		t.Fatalf("tail: spread=%d reached=%v", spread, reached)
	}
}

// TestEtaEqualsN: the extreme threshold forces activating every node.
func TestEtaEqualsN(t *testing.T) {
	g := gen.Line(6, 0.5)
	φ := diffusion.SampleRealization(g, diffusion.IC, rng.New(9))
	res, err := Run(g, diffusion.IC, 6, pickFirst{}, φ, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Spread != 6 {
		t.Fatalf("spread %d, want all 6", res.Spread)
	}
}

func TestCompactInactiveEdgeCases(t *testing.T) {
	mk := func(vs ...int32) *bitset.Set {
		s := bitset.New(10)
		for _, v := range vs {
			s.Set(v)
		}
		return s
	}

	// Empty delta: nothing active among the inactive — list unchanged,
	// nil delta.
	in := []int32{1, 3, 5, 7}
	kept, delta := CompactInactive(in, mk())
	if len(kept) != 4 || delta != nil {
		t.Fatalf("empty delta: kept %v delta %v", kept, delta)
	}
	for i, v := range []int32{1, 3, 5, 7} {
		if kept[i] != v {
			t.Fatalf("empty delta reordered: %v", kept)
		}
	}

	// All activated: empty kept list, delta is the whole input in order.
	kept, delta = CompactInactive([]int32{2, 4, 6}, mk(2, 4, 6))
	if len(kept) != 0 {
		t.Fatalf("all-activated kept %v", kept)
	}
	if len(delta) != 3 || delta[0] != 2 || delta[1] != 4 || delta[2] != 6 {
		t.Fatalf("all-activated delta %v", delta)
	}

	// Already-compacted input (active nodes not in the list): unchanged,
	// nil delta — removal is relative to the list, not the mask.
	kept, delta = CompactInactive([]int32{1, 3, 5}, mk(0, 2, 4))
	if len(kept) != 3 || delta != nil {
		t.Fatalf("already-compacted: kept %v delta %v", kept, delta)
	}

	// Mixed: order preserved on both sides.
	kept, delta = CompactInactive([]int32{0, 1, 2, 3, 4}, mk(1, 3))
	if len(kept) != 3 || kept[0] != 0 || kept[1] != 2 || kept[2] != 4 {
		t.Fatalf("mixed kept %v", kept)
	}
	if len(delta) != 2 || delta[0] != 1 || delta[1] != 3 {
		t.Fatalf("mixed delta %v", delta)
	}

	// Empty input.
	kept, delta = CompactInactive(nil, mk(1))
	if len(kept) != 0 || delta != nil {
		t.Fatalf("empty input: kept %v delta %v", kept, delta)
	}
}

// TestRunSuppliesDelta pins that the loop feeds each round's activation
// delta to the policy: Delta must be nil on round 1 and exactly the nodes
// removed from Inactive afterwards.
func TestRunSuppliesDelta(t *testing.T) {
	g := smallGraph(t)
	φ := diffusion.SampleRealization(g, diffusion.IC, rng.New(4))
	var rounds int
	pol := policyFunc{
		name: "delta-probe",
		fn: func(st *State) ([]int32, error) {
			rounds++
			if rounds == 1 && st.Delta != nil {
				t.Errorf("round 1 got delta %v", st.Delta)
			}
			if rounds > 1 && len(st.Delta) == 0 {
				t.Errorf("round %d got no delta", rounds)
			}
			for _, v := range st.Delta {
				if !st.Active.Get(v) {
					t.Errorf("round %d delta node %d not active", rounds, v)
				}
				for _, u := range st.Inactive {
					if u == v {
						t.Errorf("round %d delta node %d still inactive", rounds, v)
					}
				}
			}
			return st.Inactive[:1], nil
		},
	}
	if _, err := Run(g, diffusion.IC, int64(g.N()/2), pol, φ, rng.New(5)); err != nil {
		t.Fatal(err)
	}
	if rounds < 2 {
		t.Skipf("campaign ended in %d round(s)", rounds)
	}
}

// TestRunRecordsBatchAliasingInactive: a policy may return a view of
// st.Inactive (trim's no-coverage fallback once did). Run must record the
// seeds the policy returned, not what compaction later shifts into that
// view's storage.
func TestRunRecordsBatchAliasingInactive(t *testing.T) {
	g := gen.Line(10, 0.01)
	φ := diffusion.SampleRealization(g, diffusion.IC, rng.New(1))
	var returned [][]int32
	pol := policyFunc{
		name: "inactive-view",
		fn: func(st *State) ([]int32, error) {
			returned = append(returned, append([]int32(nil), st.Inactive[0]))
			return st.Inactive[:1], nil
		},
	}
	res, err := Run(g, diffusion.IC, 3, pol, φ, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	var want []int32
	for _, b := range returned {
		want = append(want, b...)
	}
	if !slices.Equal(res.Seeds, want) {
		t.Fatalf("Run recorded seeds %v, policy returned %v", res.Seeds, want)
	}
	if len(res.Rounds) != len(returned) {
		t.Fatalf("%d round traces for %d batches", len(res.Rounds), len(returned))
	}
	for i, r := range res.Rounds {
		if !slices.Equal(r.Seeds, returned[i]) {
			t.Errorf("round %d trace reads %v, policy returned %v", i+1, r.Seeds, returned[i])
		}
	}
}
