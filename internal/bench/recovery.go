package bench

import (
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
	"time"

	"asti/internal/diffusion"
	"asti/internal/gen"
	"asti/internal/graph"
	"asti/internal/rng"
	"asti/internal/rrset"
	"asti/internal/serve"
)

// StepLatency summarizes one mode's per-step (NextBatch+Observe) latency.
type StepLatency struct {
	// Mode is "memory" or "journal".
	Mode string `json:"mode"`
	// Steps counts measured steps.
	Steps int `json:"steps"`
	// P50Seconds / P99Seconds are step-latency percentiles.
	P50Seconds float64 `json:"p50_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
	// MeanSeconds is the mean step latency.
	MeanSeconds float64 `json:"mean_seconds"`
}

// RecoveryPoint is the measured recovery latency at one campaign length.
type RecoveryPoint struct {
	// Rounds is how many committed rounds the journal held.
	Rounds int `json:"rounds"`
	// Trials is the number of kill-and-recover repetitions.
	Trials int `json:"trials"`
	// P50Seconds / P99Seconds are Recover-call latency percentiles
	// across trials.
	P50Seconds float64 `json:"p50_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
	// Identical reports the acceptance check: every trial's recovered
	// session proposed the byte-identical next batch to an uninterrupted
	// session at the same point.
	Identical bool `json:"identical_next_batch"`
}

// CheckpointedRecoveryPoint is the measured recovery latency at one
// (campaign length, checkpoint interval) pair, with checkpointing and
// journal compaction enabled. Once the campaign is at least one interval
// long, recovery restores the newest trusted checkpoint and replays
// only the suffix, so the latency tracks the interval rather than the
// campaign length.
type CheckpointedRecoveryPoint struct {
	// Rounds is how many committed rounds the journal held.
	Rounds int `json:"rounds"`
	// Interval is the checkpoint interval in rounds (WithCheckpointEvery).
	Interval int `json:"checkpoint_interval"`
	// Trials is the number of kill-and-recover repetitions.
	Trials int `json:"trials"`
	// P50Seconds / P99Seconds are Recover-call latency percentiles
	// across trials.
	P50Seconds float64 `json:"p50_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
	// FromCheckpoint reports whether every trial's recovery restored a
	// checkpoint (expected exactly when Rounds >= Interval).
	FromCheckpoint bool `json:"from_checkpoint"`
	// Identical reports the acceptance check: every trial's recovered
	// session proposed the byte-identical next batch to an uninterrupted
	// session at the same point.
	Identical bool `json:"identical_next_batch"`
}

// PassivationPoint is the measured passivate→reactivate round trip at
// one campaign length: what parking an idle session costs, and what the
// first call after it pays to replay the session back to life.
type PassivationPoint struct {
	// Rounds is how many committed rounds the session held.
	Rounds int `json:"rounds"`
	// Trials is the number of passivate→reactivate repetitions.
	Trials int `json:"trials"`
	// PassivateP50Seconds / PassivateP99Seconds are Manager.Passivate
	// latency percentiles across trials (releasing the engine, pool and
	// journal writer).
	PassivateP50Seconds float64 `json:"passivate_p50_seconds"`
	PassivateP99Seconds float64 `json:"passivate_p99_seconds"`
	// ReactivateP50Seconds / ReactivateP99Seconds are the latency of the
	// Manager.Session lookup that replays the log and resumes the
	// session.
	ReactivateP50Seconds float64 `json:"reactivate_p50_seconds"`
	ReactivateP99Seconds float64 `json:"reactivate_p99_seconds"`
	// Identical reports the acceptance check: every trial's reactivated
	// session proposed the byte-identical next batch to an uninterrupted
	// session at the same point.
	Identical bool `json:"identical_next_batch"`
}

// ServePerfReport is the machine-readable result of the serve-recovery
// experiment (BENCH_serve.json): what durability costs per step and what
// recovery costs per journaled round.
type ServePerfReport struct {
	Experiment string  `json:"experiment"`
	Profile    string  `json:"profile"`
	Dataset    string  `json:"dataset"`
	Model      string  `json:"model"`
	N          int64   `json:"n"`
	Eta        int64   `json:"eta"`
	Epsilon    float64 `json:"epsilon"`
	// SamplerVersion is the sampler stream contract the sessions ran
	// under (the manager default at measurement time).
	SamplerVersion int `json:"sampler_version"`
	// Steps compares per-step latency with and without the journal on
	// otherwise identical sessions fed identical observations.
	Steps []StepLatency `json:"steps"`
	// OverheadP50Seconds is the p50 journal write overhead per step,
	// measured pairwise: both modes replay the identical campaign (same
	// seed, same world, warmed caches), so step i in journal mode and
	// step i in memory mode do the same selection work, and the median of
	// the per-step differences isolates the fsync cost from the
	// selection-time noise that dwarfs it (a mode-level p50 difference is
	// dominated by that noise and can even come out negative).
	OverheadP50Seconds float64 `json:"overhead_p50_seconds"`
	// IdenticalSelections reports that journaled and in-memory sessions
	// proposed identical seed sequences (durability is semantics-free).
	IdenticalSelections bool `json:"identical_selections"`
	// Recovery is the recovery-latency curve vs rounds replayed, with
	// checkpointing disabled: the pure full-replay baseline.
	Recovery []RecoveryPoint `json:"recovery"`
	// CheckpointedRecovery is the recovery-latency surface over (rounds,
	// checkpoint interval) with checkpointing and compaction on.
	CheckpointedRecovery []CheckpointedRecoveryPoint `json:"checkpointed_recovery"`
	// Passivation is the idle passivate→reactivate round-trip curve vs
	// rounds replayed.
	Passivation []PassivationPoint `json:"passivation"`
}

// serveRecovery measures the durable-session subsystem: the per-step
// cost of write-ahead journaling (fsync per transition) and the
// p50/p99 latency of Manager.Recover as a function of how many rounds
// the journal holds, verifying after every recovery that the resumed
// session proposes the byte-identical next batch to an uninterrupted
// run. Machine-readable as BENCH_serve.json when BenchDir is set.
func (r *Runner) serveRecovery(w io.Writer) error {
	spec, err := gen.Dataset("synth-nethept")
	if err != nil {
		return err
	}
	g, err := spec.Generate(r.Profile.scaleFor(spec.Name))
	if err != nil {
		return err
	}
	reg := serve.NewRegistry()
	if err := reg.RegisterGraph(spec.Name, g); err != nil {
		return err
	}
	eta := etaFor(g, 0.1)
	cfg := serve.Config{Dataset: spec.Name, Eta: eta, Epsilon: r.Profile.Epsilon,
		Workers: 1, MaxSetsPerRound: r.Profile.MaxSetsPerRound, Seed: r.Profile.Seed}
	fmt.Fprintf(w, "# Serve recovery — journal overhead and replay latency on %s (n=%d), IC, η=%d\n",
		g.Name(), g.N(), eta)

	// Per-step overhead: identical campaigns (same seed, same world),
	// with and without a journal.
	φ := diffusion.SampleRealization(g, diffusion.IC, rng.New(r.Profile.Seed^0x77A1))
	runMode := func(journaled bool) (StepLatency, []float64, []int32, error) {
		mode := "memory"
		var opts []serve.ManagerOption
		var dir string
		if journaled {
			mode = "journal"
			d, err := os.MkdirTemp("", "asti-bench-wal")
			if err != nil {
				return StepLatency{}, nil, nil, err
			}
			dir = d
			opts = append(opts, serve.WithJournalDir(dir))
		}
		mgr := serve.NewManager(reg, 0, opts...)
		defer func() {
			mgr.CloseAll()
			if dir != "" {
				os.RemoveAll(dir)
			}
		}()
		s, err := mgr.Create(cfg)
		if err != nil {
			return StepLatency{}, nil, nil, err
		}
		var seeds []int32
		lats, err := driveSessionInto(s, φ, &seeds)
		if err != nil {
			return StepLatency{}, nil, nil, err
		}
		var total float64
		fl := make([]float64, len(lats))
		for i, d := range lats {
			fl[i] = d.Seconds()
			total += d.Seconds()
		}
		sl := StepLatency{Mode: mode, Steps: len(lats),
			P50Seconds: percentileF(fl, 0.50), P99Seconds: percentileF(fl, 0.99)}
		if len(lats) > 0 {
			sl.MeanSeconds = total / float64(len(lats))
		}
		return sl, fl, seeds, nil
	}
	// One unmeasured warmup campaign absorbs the cold-start costs (page
	// cache, allocator growth, branch predictors) that would otherwise
	// land entirely on whichever measured mode runs first and swamp the
	// sub-millisecond fsync cost being measured.
	if _, _, _, err := runMode(false); err != nil {
		return err
	}
	mem, memSteps, memSeeds, err := runMode(false)
	if err != nil {
		return err
	}
	jrn, jrnSteps, jrnSeeds, err := runMode(true)
	if err != nil {
		return err
	}
	identical := slices.Equal(memSeeds, jrnSeeds)
	// Both campaigns take the same steps in the same order, so pair them:
	// the per-step difference cancels the shared selection work and its
	// median is the journal's own cost.
	pairs := len(memSteps)
	if len(jrnSteps) < pairs {
		pairs = len(jrnSteps)
	}
	diffs := make([]float64, pairs)
	for i := range diffs {
		diffs[i] = jrnSteps[i] - memSteps[i]
	}

	// Recovery latency vs rounds replayed: journal exactly R committed
	// rounds (batch-only observations keep R controllable), kill, time
	// Recover, check the next proposal against an uninterrupted session.
	const trials = 3
	points := []int{2, 5, 10}
	var curve []RecoveryPoint
	var ckcurve []CheckpointedRecoveryPoint
	var pcurve []PassivationPoint
	for _, rounds := range points {
		pt, err := recoveryPoint(reg, cfg, g, rounds, trials)
		if err != nil {
			return err
		}
		curve = append(curve, *pt)
		for _, interval := range []int{4, 8} {
			ck, err := checkpointedRecoveryPoint(reg, cfg, rounds, interval, trials)
			if err != nil {
				return err
			}
			ckcurve = append(ckcurve, *ck)
		}
		pp, err := passivationPoint(reg, cfg, rounds, trials)
		if err != nil {
			return err
		}
		pcurve = append(pcurve, *pp)
	}

	rep := &ServePerfReport{
		Experiment:           "serve",
		Profile:              r.Profile.Name,
		Dataset:              g.Name(),
		Model:                diffusion.IC.String(),
		N:                    int64(g.N()),
		Eta:                  eta,
		Epsilon:              r.Profile.Epsilon,
		SamplerVersion:       int(rrset.DefaultVersion),
		Steps:                []StepLatency{mem, jrn},
		OverheadP50Seconds:   percentileF(diffs, 0.50),
		IdenticalSelections:  identical,
		Recovery:             curve,
		CheckpointedRecovery: ckcurve,
		Passivation:          pcurve,
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mode\tsteps\tp50 step\tp99 step\tmean step")
	for _, sl := range rep.Steps {
		fmt.Fprintf(tw, "%s\t%d\t%.3gs\t%.3gs\t%.3gs\n", sl.Mode, sl.Steps, sl.P50Seconds, sl.P99Seconds, sl.MeanSeconds)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "journal overhead: %+.3gs per step (p50); selections identical: %v\n",
		rep.OverheadP50Seconds, identical)
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "rounds replayed\ttrials\tp50 recovery\tp99 recovery\tidentical next batch")
	allIdentical := identical
	for _, pt := range rep.Recovery {
		fmt.Fprintf(tw, "%d\t%d\t%.3gs\t%.3gs\t%v\n", pt.Rounds, pt.Trials, pt.P50Seconds, pt.P99Seconds, pt.Identical)
		allIdentical = allIdentical && pt.Identical
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "rounds\tckpt interval\ttrials\tp50 recovery\tp99 recovery\tfrom checkpoint\tidentical next batch")
	for _, pt := range rep.CheckpointedRecovery {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.3gs\t%.3gs\t%v\t%v\n", pt.Rounds, pt.Interval, pt.Trials,
			pt.P50Seconds, pt.P99Seconds, pt.FromCheckpoint, pt.Identical)
		allIdentical = allIdentical && pt.Identical
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "rounds held\ttrials\tp50 passivate\tp99 passivate\tp50 reactivate\tp99 reactivate\tidentical next batch")
	for _, pt := range rep.Passivation {
		fmt.Fprintf(tw, "%d\t%d\t%.3gs\t%.3gs\t%.3gs\t%.3gs\t%v\n", pt.Rounds, pt.Trials,
			pt.PassivateP50Seconds, pt.PassivateP99Seconds,
			pt.ReactivateP50Seconds, pt.ReactivateP99Seconds, pt.Identical)
		allIdentical = allIdentical && pt.Identical
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if !allIdentical {
		return fmt.Errorf("bench: recovered or reactivated sessions diverged from uninterrupted runs")
	}
	if r.BenchDir != "" {
		if err := writeBenchFile(r.BenchDir, rep.Experiment, rep); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", benchPath(r.BenchDir, rep.Experiment))
	}
	return nil
}

// recoveryPoint runs `trials` independent kill-and-recover cycles, each
// journaling exactly `rounds` committed rounds before the "kill"
// (abandoning the manager un-closed, as SIGKILL leaves it), and times
// Manager.Recover. Every recovered session's next proposal is verified
// against an uninterrupted reference session at the same point.
func recoveryPoint(reg *serve.Registry, cfg serve.Config, g *graph.Graph, rounds, trials int) (*RecoveryPoint, error) {
	// Uninterrupted reference: same config, same batch-only observations.
	refMgr := serve.NewManager(reg, 0)
	defer refMgr.CloseAll()
	ref, err := refMgr.Create(cfg)
	if err != nil {
		return nil, err
	}
	if err := driveBatchOnly(ref, rounds); err != nil {
		return nil, err
	}
	wantNext, err := ref.NextBatch()
	if err != nil {
		return nil, err
	}

	// WithCheckpointEvery(0) pins this curve to full replay: it is the
	// baseline the checkpointed curve is judged against.
	pt := &RecoveryPoint{Rounds: rounds, Trials: trials, Identical: true}
	lats := make([]float64, 0, trials)
	for i := 0; i < trials; i++ {
		lat, got, _, err := killAndRecover(reg, cfg, rounds, serve.WithCheckpointEvery(0))
		if err != nil {
			return nil, err
		}
		lats = append(lats, lat)
		if !slices.Equal(got, wantNext) {
			pt.Identical = false
		}
	}
	pt.P50Seconds = percentileF(lats, 0.50)
	pt.P99Seconds = percentileF(lats, 0.99)
	return pt, nil
}

// checkpointedRecoveryPoint is recoveryPoint with checkpointing at the
// given interval (and journal compaction, the default) enabled on the
// journaling manager and the recovering one alike.
func checkpointedRecoveryPoint(reg *serve.Registry, cfg serve.Config, rounds, interval, trials int) (*CheckpointedRecoveryPoint, error) {
	refMgr := serve.NewManager(reg, 0)
	defer refMgr.CloseAll()
	ref, err := refMgr.Create(cfg)
	if err != nil {
		return nil, err
	}
	if err := driveBatchOnly(ref, rounds); err != nil {
		return nil, err
	}
	wantNext, err := ref.NextBatch()
	if err != nil {
		return nil, err
	}

	pt := &CheckpointedRecoveryPoint{Rounds: rounds, Interval: interval, Trials: trials,
		FromCheckpoint: true, Identical: true}
	lats := make([]float64, 0, trials)
	for i := 0; i < trials; i++ {
		lat, got, restores, err := killAndRecover(reg, cfg, rounds, serve.WithCheckpointEvery(interval))
		if err != nil {
			return nil, err
		}
		lats = append(lats, lat)
		if restores != 1 {
			pt.FromCheckpoint = false
		}
		if !slices.Equal(got, wantNext) {
			pt.Identical = false
		}
	}
	if rounds >= interval != pt.FromCheckpoint {
		return nil, fmt.Errorf("bench: %d-round recovery with interval %d: from_checkpoint=%v, want %v",
			rounds, interval, pt.FromCheckpoint, rounds >= interval)
	}
	pt.P50Seconds = percentileF(lats, 0.50)
	pt.P99Seconds = percentileF(lats, 0.99)
	return pt, nil
}

// killAndRecover journals one campaign for `rounds` rounds, abandons it,
// recovers into a fresh manager (built with the same extra options), and
// returns the Recover latency, the recovered session's next proposed
// batch, and how many sessions recovery restored from a checkpoint.
func killAndRecover(reg *serve.Registry, cfg serve.Config, rounds int, opts ...serve.ManagerOption) (float64, []int32, int, error) {
	dir, err := os.MkdirTemp("", "asti-bench-recover")
	if err != nil {
		return 0, nil, 0, err
	}
	defer os.RemoveAll(dir)
	withDir := append([]serve.ManagerOption{serve.WithJournalDir(dir)}, opts...)
	mgr := serve.NewManager(reg, 0, withDir...)
	s, err := mgr.Create(cfg)
	if err != nil {
		return 0, nil, 0, err
	}
	if err := driveBatchOnly(s, rounds); err != nil {
		return 0, nil, 0, err
	}
	id := s.ID()
	// CloseAll releases the policy's worker pool without writing closed
	// records, so the on-disk journal is byte-identical to what a SIGKILL
	// would leave — no resource leak, same recovery input.
	mgr.CloseAll()

	m := serve.NewManager(reg, 0, withDir...)
	defer m.CloseAll()
	t0 := time.Now()
	rep, err := m.Recover("")
	lat := time.Since(t0).Seconds()
	if err != nil {
		return 0, nil, 0, err
	}
	if rep.Recovered != 1 {
		return 0, nil, 0, fmt.Errorf("bench: recovered %d sessions, want 1 (warnings: %v)", rep.Recovered, rep.Warnings)
	}
	rs, err := m.Session(id)
	if err != nil {
		return 0, nil, 0, err
	}
	got, err := rs.NextBatch()
	if err != nil {
		return 0, nil, 0, err
	}
	return lat, got, rep.CheckpointRestores, nil
}

// passivationPoint runs `trials` passivate→reactivate round trips, each
// on a fresh session journaled for exactly `rounds` committed rounds,
// timing Manager.Passivate (release) and the Manager.Session lookup
// that replays the log (reactivation). Every reactivated session's next
// proposal is verified against an uninterrupted reference session.
func passivationPoint(reg *serve.Registry, cfg serve.Config, rounds, trials int) (*PassivationPoint, error) {
	refMgr := serve.NewManager(reg, 0)
	defer refMgr.CloseAll()
	ref, err := refMgr.Create(cfg)
	if err != nil {
		return nil, err
	}
	if err := driveBatchOnly(ref, rounds); err != nil {
		return nil, err
	}
	wantNext, err := ref.NextBatch()
	if err != nil {
		return nil, err
	}

	pt := &PassivationPoint{Rounds: rounds, Trials: trials, Identical: true}
	pass := make([]float64, 0, trials)
	react := make([]float64, 0, trials)
	for i := 0; i < trials; i++ {
		dir, err := os.MkdirTemp("", "asti-bench-passivate")
		if err != nil {
			return nil, err
		}
		mgr := serve.NewManager(reg, 0, serve.WithJournalDir(dir))
		s, err := mgr.Create(cfg)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		trialErr := func() error {
			defer mgr.CloseAll()
			if err := driveBatchOnly(s, rounds); err != nil {
				return err
			}
			id := s.ID()
			t0 := time.Now()
			ok, err := mgr.Passivate(id)
			pass = append(pass, time.Since(t0).Seconds())
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("bench: session %s not passivated", id)
			}
			t1 := time.Now()
			rs, err := mgr.Session(id) // reactivates by replaying the log
			react = append(react, time.Since(t1).Seconds())
			if err != nil {
				return err
			}
			got, err := rs.NextBatch()
			if err != nil {
				return err
			}
			if !slices.Equal(got, wantNext) {
				pt.Identical = false
			}
			return nil
		}()
		os.RemoveAll(dir)
		if trialErr != nil {
			return nil, trialErr
		}
	}
	pt.PassivateP50Seconds = percentileF(pass, 0.50)
	pt.PassivateP99Seconds = percentileF(pass, 0.99)
	pt.ReactivateP50Seconds = percentileF(react, 0.50)
	pt.ReactivateP99Seconds = percentileF(react, 0.99)
	return pt, nil
}

// driveBatchOnly steps a session `rounds` times with observations that
// activate exactly the proposed batch (the smallest campaign that still
// advances every round).
func driveBatchOnly(s *serve.Session, rounds int) error {
	for r := 0; r < rounds; r++ {
		batch, err := s.NextBatch()
		if err != nil {
			return err
		}
		if _, err := s.Observe(batch); err != nil {
			return err
		}
	}
	return nil
}
