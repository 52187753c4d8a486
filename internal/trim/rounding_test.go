package trim

import (
	"testing"

	"asti/internal/adaptive"
	"asti/internal/diffusion"
	"asti/internal/gen"
	"asti/internal/rng"
)

// TestRoundingModesAllFeasible runs all three root-size rounding modes
// end-to-end; every mode must stay feasible (the ablation shows their
// estimator bands differ, not their correctness).
func TestRoundingModesAllFeasible(t *testing.T) {
	g, err := gen.ErdosRenyi("er", 300, 5, true, 21)
	if err != nil {
		t.Fatal(err)
	}
	g.ApplyWeightedCascade()
	const eta = 60
	world := diffusion.SampleRealization(g, diffusion.IC, rng.New(5))
	for _, mode := range []Rounding{RoundRandomized, RoundFloor, RoundCeil} {
		pol := MustNew(Config{Epsilon: 0.5, Batch: 1, Truncated: true, Rounding: mode})
		res, err := adaptive.Run(g, diffusion.IC, eta, pol, world, rng.New(6))
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if res.Spread < eta {
			t.Fatalf("mode %v: spread %d < eta", mode, res.Spread)
		}
	}
}

// TestMaxSetsPerRoundCapsWork verifies the memory cap engages: with a
// tiny cap the policy must still terminate feasibly and record HitCap.
func TestMaxSetsPerRoundCapsWork(t *testing.T) {
	g, err := gen.ErdosRenyi("er", 400, 5, true, 23)
	if err != nil {
		t.Fatal(err)
	}
	g.ApplyWeightedCascade()
	const eta = 80
	world := diffusion.SampleRealization(g, diffusion.IC, rng.New(7))
	pol := MustNew(Config{Epsilon: 0.2, Batch: 1, Truncated: true, MaxSetsPerRound: 32})
	res, err := adaptive.Run(g, diffusion.IC, eta, pol, world, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Spread < eta {
		t.Fatalf("spread %d < eta", res.Spread)
	}
	if pol.Stats.HitCap == 0 {
		t.Fatal("tiny sample cap never engaged (HitCap = 0)")
	}
	if pol.Stats.Sets > 32*int64(len(res.Rounds))*2 {
		t.Fatalf("cap ignored: %d sets over %d rounds", pol.Stats.Sets, len(res.Rounds))
	}
}

// TestNameDerivation covers the policy-name rules.
func TestNameDerivation(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{Epsilon: 0.5, Batch: 1, Truncated: true}, "ASTI"},
		{Config{Epsilon: 0.5, Batch: 4, Truncated: true}, "ASTI-4"},
		{Config{Epsilon: 0.5, Batch: 1, Truncated: false}, "AdaptIM"},
	}
	for _, tc := range cases {
		if got := MustNew(tc.cfg).Name(); got != tc.want {
			t.Errorf("Name(%+v) = %q, want %q", tc.cfg, got, tc.want)
		}
	}
}
