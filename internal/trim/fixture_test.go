package trim

import (
	"slices"
	"testing"

	"asti/internal/diffusion"
	"asti/internal/gen"
	"asti/internal/rrset"
)

// TestTRIMBSelectionFixture pins TRIM-B's selections to frozen values:
// the batches of fixed-seed ASTI-4 and ASTI-8 echo campaigns with pool
// reuse on, and the greedy's picks and coverage on a fixed mRR pool. A
// journal replays its proposals through the same code, so a change to
// the greedy's tie-breaking or to the pool it reads must fail here, not
// orphan the uncheckpointed suffix of a journal an older binary wrote.
// The sampler version is pinned so a new default does not move them.
func TestTRIMBSelectionFixture(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		Name: "trimb-fixture", N: 1500, AvgDeg: 3, UniformMix: 0.4, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	campaigns := []struct {
		b    int
		want []int32
	}{
		{4, []int32{4, 7, 2, 3, 0, 17, 1, 13, 14, 19, 9, 55, 6, 22, 143, 5, 27, 11, 129, 29}},
		{8, []int32{4, 7, 2, 0, 17, 3, 5, 14, 1, 19, 55, 6, 130, 13, 9, 53, 22, 27, 29, 129,
			15, 18, 104, 143, 70, 16, 11, 204, 39, 98, 226, 30, 108, 42, 49, 35, 121, 69, 90, 40}},
	}
	for _, c := range campaigns {
		pol := MustNew(Config{Epsilon: 0.5, Batch: c.b, Truncated: true, Workers: 1,
			ReusePool: true, SamplerVersion: rrset.V2})
		got := runScriptedRounds(t, pol, g, 300, 5)
		pol.Close()
		if !slices.Equal(got, c.want) {
			t.Errorf("ASTI-%d echo campaign selected\n%v\nwant\n%v", c.b, got, c.want)
		}
		if pol.Stats.SetsReused == 0 {
			t.Errorf("ASTI-%d campaign reused no sets: the fixture no longer covers the reuse path", c.b)
		}
	}

	eng := rrset.NewEngineVersion(g, diffusion.IC, 1, rrset.V2)
	defer eng.Close()
	coll := rrset.NewCollection(g)
	all := make([]int32, g.N())
	var cands []int32 // every third node activated, as trim's Inactive list
	for i := range all {
		all[i] = int32(i)
		if i%3 != 0 {
			cands = append(cands, int32(i))
		}
	}
	eng.Generate(coll, rrset.Request{Strategy: rrset.MultiRoot(rrset.RoundRandomized),
		Inactive: all, EtaI: 60, Count: 3000, Seed: 0xF1C5})
	pools := []struct {
		name    string
		cands   []int32
		want    []int32
		covered int64
	}{
		{"all nodes", nil, []int32{4, 3, 2, 7, 0, 1, 19, 13, 17, 6}, 2962},
		{"candidate list", cands, []int32{4, 7, 2, 19, 17, 13, 1, 22, 226, 230}, 2950},
	}
	for _, p := range pools {
		seeds, covered := coll.GreedyMaxCoverage(10, p.cands)
		if !slices.Equal(seeds, p.want) || covered != p.covered {
			t.Errorf("greedy over %s: %v covering %d, want %v covering %d",
				p.name, seeds, covered, p.want, p.covered)
		}
	}
}
