package trim

import (
	"fmt"
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

// TestFullCampaignFixture pins whole echo campaigns, run to η, to frozen
// proposal sequences: ASTI at η = 12 and ASTI-4 at η = 25, under IC and
// LT, with pool reuse on, one worker and the V2 sampler. Every campaign
// ends with a round selected at a shortfall of one, which the policy
// answers without sampling; the sequences were recorded while that
// round still sampled a pool, so they pin the shortcut to the sampled
// answer. Each campaign must also select identically with four
// sampling workers and with pool reuse off.
func TestFullCampaignFixture(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		Name: "campaign-fixture", N: 400, AvgDeg: 3, UniformMix: 0.4, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	campaigns := []struct {
		b     int
		eta   int64
		model diffusion.Model
		want  [][]int32
	}{
		{1, 12, diffusion.IC, [][]int32{{3}, {0}, {2}, {8}, {7}, {10}, {11}, {30}, {6}, {45}, {1}, {4}}},
		{1, 12, diffusion.LT, [][]int32{{3}, {0}, {2}, {7}, {8}, {11}, {6}, {5}, {30}, {38}, {1}, {4}}},
		{4, 25, diffusion.IC, [][]int32{{3, 0, 11, 2}, {7, 5, 6, 8}, {10, 30, 38, 76}, {1, 47, 24, 31},
			{45, 37, 42, 200}, {39, 15, 71, 22}, {4}}},
		{4, 25, diffusion.LT, [][]int32{{3, 0, 1, 11}, {2, 8, 6, 45}, {7, 30, 5, 24}, {10, 42, 38, 26},
			{29, 76, 15, 14}, {31, 32, 49, 39}, {4}}},
	}
	for _, c := range campaigns {
		for _, v := range []struct {
			workers int
			reuse   bool
		}{{1, true}, {4, true}, {1, false}} {
			pol := MustNew(Config{Epsilon: 0.5, Batch: c.b, Truncated: true, Workers: v.workers,
				ReusePool: v.reuse, SamplerVersion: rrset.V2})
			camp := echoCampaign(t, pol, g, c.model, c.eta)
			pol.Close()
			name := fmt.Sprintf("%s %v η=%d workers=%d reuse=%v", pol.Name(), c.model, c.eta, v.workers, v.reuse)
			if last := camp.Rounds[len(camp.Rounds)-1]; last.EtaIBefore != 1 {
				t.Errorf("%s: last round selected at η_i = %d, want 1", name, last.EtaIBefore)
			}
			got := make([][]int32, len(camp.Rounds))
			for i, rt := range camp.Rounds {
				got[i] = rt.Seeds
			}
			if !slices.EqualFunc(got, c.want, slices.Equal[[]int32]) {
				t.Errorf("%s selected\n%v\nwant\n%v", name, got, c.want)
			}
		}
	}
}
