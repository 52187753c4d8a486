package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
	"time"

	"asti/internal/adaptive"
	"asti/internal/bitset"
	"asti/internal/diffusion"
	"asti/internal/gen"
	"asti/internal/graph"
	"asti/internal/rng"
	"asti/internal/rrset"
	"asti/internal/stats"
	"asti/internal/trim"
)

// RoundPerf is one adaptive round of a perf run: what the sampling pool
// did and how long selection took.
type RoundPerf struct {
	// Round is the 1-based round index (rounds of every realization are
	// concatenated in order).
	Round int `json:"round"`
	// Generated counts sets sampled this round (fresh top-up plus in-place
	// refreshes).
	Generated int64 `json:"generated"`
	// Reused counts sets carried over from the previous round unchanged.
	Reused int64 `json:"reused"`
	// PoolSize is the pool size at the end of the round.
	PoolSize int64 `json:"pool_size"`
	// Seconds is the selection latency of the round.
	Seconds float64 `json:"seconds"`
}

// PerfRun aggregates one mode (pool reuse on or off) of a perf
// experiment.
type PerfRun struct {
	// Mode is "reuse" or "reset".
	Mode string `json:"mode"`
	// Seconds is total selection time across all realizations.
	Seconds float64 `json:"seconds"`
	// SetsPerSec is sets generated per selection second.
	SetsPerSec float64 `json:"sets_per_sec"`
	// SetsGenerated / SetsReused total the per-round pool activity.
	SetsGenerated int64 `json:"sets_generated"`
	SetsReused    int64 `json:"sets_reused"`
	// RngDraws counts the random draws the samplers consumed — the
	// direct readout of what geometric edge-coin skipping saves (v2
	// draws far fewer than v1 on uniform-probability blocks while
	// selecting the same seeds).
	RngDraws int64 `json:"rng_draws"`
	// P50RoundSeconds / P99RoundSeconds are round-latency percentiles.
	P50RoundSeconds float64 `json:"p50_round_seconds"`
	P99RoundSeconds float64 `json:"p99_round_seconds"`
	// PeakPoolSize is the largest pool any round ended with.
	PeakPoolSize int64 `json:"peak_pool_size"`
	// Rounds counts selection rounds across all realizations.
	Rounds int `json:"rounds"`
}

// setRounds records the round count and the round-latency percentiles
// of rounds, which it leaves in round order.
func (pr *PerfRun) setRounds(rounds []RoundPerf) {
	pr.Rounds = len(rounds)
	lat := make([]float64, len(rounds))
	for i, rp := range rounds {
		lat[i] = rp.Seconds
	}
	pr.P50RoundSeconds = stats.Quantile(lat, 0.50)
	pr.P99RoundSeconds = stats.Quantile(lat, 0.99)
}

// PerfReport is the machine-readable result of a perf experiment,
// written as BENCH_<experiment>.json so the perf trajectory can be
// tracked PR-over-PR.
type PerfReport struct {
	Experiment   string  `json:"experiment"`
	Profile      string  `json:"profile"`
	Dataset      string  `json:"dataset"`
	Model        string  `json:"model"`
	N            int64   `json:"n"`
	Eta          int64   `json:"eta"`
	Epsilon      float64 `json:"epsilon"`
	Realizations int     `json:"realizations"`
	Workers      int     `json:"workers"`
	// SamplerVersion is the sampler stream contract the runs used
	// (reports from different versions are not comparable draw-for-draw).
	SamplerVersion int `json:"sampler_version"`
	// Speedup is reset selection time over reuse selection time.
	Speedup float64 `json:"speedup"`
	// IdenticalSelections reports the determinism contract held: both
	// modes selected the same seed sequences.
	IdenticalSelections bool      `json:"identical_selections"`
	Runs                []PerfRun `json:"runs"`
	// ReuseRounds details every round of the reuse run.
	ReuseRounds []RoundPerf `json:"reuse_rounds"`
	// SmallDelta is a scripted multi-round campaign whose observations
	// activate only the proposed batch — the smallest possible activation
	// delta, pool reuse's target regime. internal/trim's
	// BenchmarkSelectBatch measures the same scenario shape at micro
	// scale (on its own graph and seeds).
	SmallDelta SmallDeltaPerf `json:"small_delta"`
}

// SmallDeltaPerf is the scripted small-activation-delta comparison of
// BENCH json reports (the BenchmarkSelectBatch scenario).
type SmallDeltaPerf struct {
	Rounds        int     `json:"rounds"`
	ReuseSeconds  float64 `json:"reuse_seconds"`
	ResetSeconds  float64 `json:"reset_seconds"`
	Speedup       float64 `json:"speedup"`
	SetsGenerated int64   `json:"sets_generated"`
	SetsReused    int64   `json:"sets_reused"`
	Identical     bool    `json:"identical_selections"`
}

// writeBenchJSON writes the report into dir (created if needed) as
// BENCH_<experiment>.json and returns the path written.
func writeBenchJSON(dir string, rep *PerfReport) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+rep.Experiment+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// roundRecorder wraps a trim policy to trace per-round selection latency
// and pool activity (deltas of the policy's cumulative Stats).
type roundRecorder struct {
	pol    *trim.Policy
	rounds []RoundPerf
	last   trim.Stats
}

func (rr *roundRecorder) Name() string { return rr.pol.Name() }

func (rr *roundRecorder) Reset() { adaptive.ResetPolicy(rr.pol) }

func (rr *roundRecorder) SelectBatch(st *adaptive.State) ([]int32, error) {
	t0 := time.Now()
	batch, err := rr.pol.SelectBatch(st)
	secs := time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	s := rr.pol.Stats
	rr.rounds = append(rr.rounds, RoundPerf{
		Round:     st.Round,
		Generated: s.Sets - rr.last.Sets,
		Reused:    s.SetsReused - rr.last.SetsReused,
		PoolSize:  int64(rr.pol.PoolSize()),
		Seconds:   secs,
	})
	rr.last = s
	return batch, nil
}

// smallDeltaRun times a scripted campaign on g whose observation after
// every round activates exactly the proposed batch, with reuse on and
// off, verifying identical selections (the same scenario shape as
// internal/trim's BenchmarkSelectBatch, at harness scale).
func smallDeltaRun(g *graph.Graph, p Profile) (SmallDeltaPerf, error) {
	eta := etaFor(g, 0.3)
	const rounds = 10
	script := func(reuse bool) (float64, []int32, *trim.Policy, error) {
		pol := trim.MustNew(trim.Config{Epsilon: p.Epsilon, Batch: 1, Truncated: true,
			MaxSetsPerRound: p.MaxSetsPerRound, Workers: p.Workers, ReusePool: reuse})
		adaptive.ResetPolicy(pol)
		n := int(g.N())
		active := bitset.New(n)
		inactive := make([]int32, n)
		for i := range inactive {
			inactive[i] = int32(i)
		}
		st := &adaptive.State{
			G: g, Model: diffusion.IC, Eta: eta,
			Active: active, Inactive: inactive,
			Rng: rng.New(p.Seed ^ 0xD17A),
		}
		var seeds []int32
		t0 := time.Now()
		for r := 1; r <= rounds; r++ {
			st.Round = r
			batch, err := pol.SelectBatch(st)
			if err != nil {
				pol.Close()
				return 0, nil, nil, err
			}
			for _, v := range batch {
				active.Set(v)
			}
			seeds = append(seeds, batch...)
			st.Inactive, st.Delta = adaptive.CompactInactive(st.Inactive, active)
		}
		return time.Since(t0).Seconds(), seeds, pol, nil
	}
	onSecs, onSeeds, onPol, err := script(true)
	if err != nil {
		return SmallDeltaPerf{}, err
	}
	defer onPol.Close()
	offSecs, offSeeds, offPol, err := script(false)
	if err != nil {
		return SmallDeltaPerf{}, err
	}
	defer offPol.Close()
	identical := len(onSeeds) == len(offSeeds)
	for i := 0; identical && i < len(onSeeds); i++ {
		identical = onSeeds[i] == offSeeds[i]
	}
	sd := SmallDeltaPerf{
		Rounds:        rounds,
		ReuseSeconds:  onSecs,
		ResetSeconds:  offSecs,
		SetsGenerated: onPol.Stats.Sets,
		SetsReused:    onPol.Stats.SetsReused,
		Identical:     identical,
	}
	if onSecs > 0 {
		sd.Speedup = offSecs / onSecs
	}
	return sd, nil
}

// trimReuse measures the cross-round pool-reuse optimization on the TRIM
// hot path: the same worlds are replayed with reuse on and off, the seed
// selections are verified identical (the determinism contract), and the
// wall-clock, per-round pool activity and latency percentiles of both
// modes are reported — machine-readably as BENCH_trim.json when the
// runner's BenchDir is set.
func (r *Runner) trimReuse(w io.Writer) error {
	spec, err := gen.Dataset("synth-nethept")
	if err != nil {
		return err
	}
	g, err := spec.Generate(r.Profile.scaleFor(spec.Name))
	if err != nil {
		return err
	}
	// η/n at the top of the paper's sweep: many rounds with small
	// activation deltas relative to the residual — the regime reuse
	// targets (and serve.Session's steady state).
	eta := etaFor(g, 0.2)
	worlds := sampleWorlds(g, diffusion.IC, r.Profile.Realizations, r.Profile.Seed^0x5EED)

	run := func(reuse bool) (*PerfRun, []RoundPerf, [][]int32, error) {
		mode := "reset"
		if reuse {
			mode = "reuse"
		}
		pr := &PerfRun{Mode: mode}
		var rounds []RoundPerf
		var seeds [][]int32
		for i, φ := range worlds {
			pol := trim.MustNew(trim.Config{Epsilon: r.Profile.Epsilon, Batch: 1, Truncated: true,
				MaxSetsPerRound: r.Profile.MaxSetsPerRound, Workers: r.Profile.Workers, ReusePool: reuse})
			rec := &roundRecorder{pol: pol}
			res, err := adaptive.Run(g, diffusion.IC, eta, rec, φ, rng.New(r.Profile.Seed+uint64(i)*31))
			if err != nil {
				pol.Close()
				return nil, nil, nil, err
			}
			pr.Seconds += res.Duration.Seconds()
			pr.SetsGenerated += pol.Stats.Sets
			pr.SetsReused += pol.Stats.SetsReused
			pr.RngDraws += pol.Stats.RngDraws
			if pol.Stats.PeakPoolSize > pr.PeakPoolSize {
				pr.PeakPoolSize = pol.Stats.PeakPoolSize
			}
			rounds = append(rounds, rec.rounds...)
			seeds = append(seeds, res.Seeds)
			pol.Close()
		}
		pr.setRounds(rounds)
		if pr.Seconds > 0 {
			pr.SetsPerSec = float64(pr.SetsGenerated) / pr.Seconds
		}
		return pr, rounds, seeds, nil
	}

	reuseRun, reuseRounds, reuseSeeds, err := run(true)
	if err != nil {
		return err
	}
	resetRun, _, resetSeeds, err := run(false)
	if err != nil {
		return err
	}
	small, err := smallDeltaRun(g, r.Profile)
	if err != nil {
		return err
	}

	identical := len(reuseSeeds) == len(resetSeeds)
	for i := 0; identical && i < len(reuseSeeds); i++ {
		if len(reuseSeeds[i]) != len(resetSeeds[i]) {
			identical = false
			break
		}
		for j := range reuseSeeds[i] {
			if reuseSeeds[i][j] != resetSeeds[i][j] {
				identical = false
				break
			}
		}
	}

	rep := &PerfReport{
		Experiment:          "trim",
		Profile:             r.Profile.Name,
		Dataset:             g.Name(),
		Model:               diffusion.IC.String(),
		N:                   int64(g.N()),
		Eta:                 eta,
		Epsilon:             r.Profile.Epsilon,
		Realizations:        len(worlds),
		Workers:             r.Profile.Workers,
		SamplerVersion:      int(rrset.DefaultVersion),
		IdenticalSelections: identical,
		Runs:                []PerfRun{*reuseRun, *resetRun},
		ReuseRounds:         reuseRounds,
		SmallDelta:          small,
	}
	if reuseRun.Seconds > 0 {
		rep.Speedup = resetRun.Seconds / reuseRun.Seconds
	}

	fmt.Fprintf(w, "# TRIM pool reuse — prune-and-top-up vs per-round reset on %s, IC, η=%d (%d realizations)\n",
		g.Name(), eta, len(worlds))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mode\tselection s\tsets/s\tgenerated\treused\tp50 round\tp99 round\tpeak pool")
	for _, pr := range rep.Runs {
		fmt.Fprintf(tw, "%s\t%.3g\t%.3g\t%d\t%d\t%.3gs\t%.3gs\t%d\n",
			pr.Mode, pr.Seconds, pr.SetsPerSec, pr.SetsGenerated, pr.SetsReused,
			pr.P50RoundSeconds, pr.P99RoundSeconds, pr.PeakPoolSize)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "speedup %.2f×; selections identical across modes: %v\n", rep.Speedup, identical)
	fmt.Fprintf(w, "small-delta campaign (%d rounds, batch-only observations): %.2f× (%.3gs vs %.3gs), %d reused / %d generated\n",
		small.Rounds, small.Speedup, small.ReuseSeconds, small.ResetSeconds, small.SetsReused, small.SetsGenerated)
	if !identical || !small.Identical {
		return fmt.Errorf("bench: pool reuse changed the selected seeds")
	}
	if r.BenchDir != "" {
		path, err := writeBenchJSON(r.BenchDir, rep)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", path)
	}
	return nil
}
