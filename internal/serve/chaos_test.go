package serve_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"asti/internal/fault"
	"asti/internal/serve"
)

// The chaos harness drives full campaigns with deterministic fault
// schedules injected at every journal I/O site and asserts the three
// contracts the resilience layer must keep:
//
//  1. write-ahead: no transition is ever acknowledged-but-unjournaled
//     while the session claims Durable (checked by scanning the WAL
//     after every acknowledged transition, and again via crash-replay);
//  2. boot never fails: whatever a fault left on disk, Recover returns
//     a report, not an error;
//  3. determinism: surviving (and recovered) sessions propose batches
//     byte-identical to an undisturbed reference run.
//
// Fault plans are process-global, so no test here calls t.Parallel; as
// a second fence every plan is path-filtered to the test's own temp
// dir. Top-level tests in one package never overlap, so plans cannot
// leak into the parallel suites either.

// chaosSites is every journal injection site, with the deterministic
// one-shot schedule the sweep arms at it. Transient errors on the
// append path are absorbed by the writer's retries; faults on the
// checkpoint/compaction side either skip the snapshot (benign by
// design) or, where they cost the writer (reopen), invoke the
// durability policy — which the sweep runs as degrade, so campaigns
// always finish and determinism stays checkable end to end.
var chaosSites = []string{
	"journal/create-open",
	"journal/sync-dir",
	"journal/append-write",
	"journal/append-sync",
	"journal/checkpoint-write",
	"journal/checkpoint-sync",
	"journal/reopen",
	"journal/load-read",
	"journal/compact-write",
	"journal/compact-sync",
	"journal/compact-rename",
}

// activatePlan arms a fault plan scoped to dir and disarms it when the
// test ends.
func activatePlan(t *testing.T, dir, spec string) *fault.Plan {
	t.Helper()
	rules := strings.Split(spec, ";")
	for i, r := range rules {
		rules[i] = r + ":path=" + dir
	}
	p, err := fault.Parse(strings.Join(rules, ";"))
	if err != nil {
		t.Fatal(err)
	}
	fault.Activate(p)
	t.Cleanup(fault.Deactivate)
	return p
}

// referenceBatches plays an unjournaled campaign of `rounds` rounds and
// returns its batches plus the following proposal — the bytes every
// faulted or recovered run must reproduce.
func referenceBatches(t *testing.T, reg *serve.Registry, cfg serve.Config, rounds int) ([][]int32, []int32) {
	t.Helper()
	mgr := serve.NewManager(reg, 0)
	defer mgr.CloseAll()
	s, err := mgr.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batches := driveBatchOnlyRounds(t, s, rounds)
	next, err := s.NextBatch()
	if err != nil {
		t.Fatal(err)
	}
	return batches, next
}

// TestChaosAllSites is the per-site sweep: for every injection site and
// every (workers, pool-reuse) combo, a full journaled campaign runs
// with a deterministic fault schedule at that site under the degrade
// policy, and must (a) ack only journaled transitions while durable,
// (b) finish with batches byte-identical to the reference, and (c) boot
// cleanly from its final WAL with the recovered session continuing
// byte-identically.
func TestChaosAllSites(t *testing.T) {
	reg := testRegistry(t)
	for _, workers := range []int{1, 4} {
		for _, disableReuse := range []bool{false, true} {
			cfg := serve.Config{
				Dataset: "test", EtaFrac: 0.5, Epsilon: 0.5, Seed: 11,
				Workers: workers, DisablePoolReuse: disableReuse,
			}
			refBatch, refNext := referenceBatches(t, reg, cfg, crashRounds)
			for _, site := range chaosSites {
				name := fmt.Sprintf("workers=%d/reuse=%v/%s", workers, !disableReuse, site)
				t.Run(name, func(t *testing.T) {
					chaosCampaign(t, reg, cfg, site, refBatch, refNext)
				})
			}
		}
	}
}

func chaosCampaign(t *testing.T, reg *serve.Registry, cfg serve.Config, site string, refBatch [][]int32, refNext []int32) {
	dir := t.TempDir()
	mgr := serve.NewManager(reg, 0,
		serve.WithJournalDir(dir), serve.WithCheckpointEvery(2),
		serve.WithDurabilityPolicy(serve.DegradeToNonDurable))
	defer mgr.CloseAll()

	// The schedule: skip the first hit at the site, then fire twice —
	// deep enough into the campaign to land mid-flight, deterministic
	// across runs. The create-open site is only ever hit by Create
	// itself, so it fires immediately instead.
	spec := site + ":after=1:times=2:err=io"
	if site == "journal/create-open" {
		spec = site + ":times=1:err=io"
	}
	plan := activatePlan(t, dir, spec)
	s, err := mgr.Create(cfg)
	if err != nil {
		// Only a create-path fault may fail the create — and then the
		// breaker must be open, and a post-cooldown create must succeed.
		if site != "journal/create-open" {
			t.Fatalf("Create under %s faults: %v", site, err)
		}
		if mgr.BreakerRetryAfter() == 0 {
			t.Fatalf("Create failed (%v) without opening the breaker", err)
		}
		mgr2 := serve.NewManager(reg, 0,
			serve.WithJournalDir(dir), serve.WithCheckpointEvery(2),
			serve.WithDurabilityPolicy(serve.DegradeToNonDurable),
			serve.WithBreakerCooldown(time.Millisecond))
		defer mgr2.CloseAll()
		mgr = mgr2
		time.Sleep(2 * time.Millisecond)
		if s, err = mgr.Create(cfg); err != nil {
			t.Fatalf("Create after fault spent: %v", err)
		}
	}
	id := s.ID()
	wal := filepath.Join(dir, id+".wal")

	for r := 1; r <= crashRounds; r++ {
		batch, err := s.NextBatch()
		if err != nil {
			t.Fatalf("round %d NextBatch: %v", r, err)
		}
		if !slices.Equal(batch, refBatch[r]) {
			t.Fatalf("round %d batch diverged under %s faults", r, site)
		}
		assertWriteAhead(t, s, wal, r, true)
		if _, err := s.Observe(batch); err != nil {
			t.Fatalf("round %d Observe: %v", r, err)
		}
		assertWriteAhead(t, s, wal, r, false)
	}
	// Snapshot the WAL at the campaign horizon before the final proposal
	// (which would journal one more round), then take that proposal too.
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s.NextBatch(); err != nil {
		t.Fatalf("final NextBatch: %v", err)
	} else if !slices.Equal(got, refNext) {
		t.Fatalf("final proposal diverged under %s faults", site)
	}
	degraded := s.Status().Degraded
	if plan.Injections() == 0 {
		t.Fatalf("schedule at %s never fired", site)
	}

	// Crash-replay: boot from the snapshotted WAL bytes with no faults
	// active. Boot must succeed; the recovered session must sit exactly
	// where the log says and continue byte-identically. A degraded
	// session resumes from its last durable transition — the documented
	// rollback.
	fault.Deactivate()
	mgr.CloseAll()
	recs, expRound, expPending := expectedState(t, data)
	if len(recs) == 0 {
		t.Fatalf("no records survived under %s faults", site)
	}
	cdir := t.TempDir()
	if err := os.WriteFile(filepath.Join(cdir, id+".wal"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	m := serve.NewManager(reg, 0, serve.WithJournalDir(cdir), serve.WithCheckpointEvery(2))
	defer m.CloseAll()
	rep, err := m.Recover("")
	if err != nil {
		t.Fatalf("boot after %s faults failed: %v", site, err)
	}
	if rep.Recovered != 1 {
		t.Fatalf("recovered %d sessions (want 1): %v", rep.Recovered, rep.Warnings)
	}
	if !degraded && expRound != crashRounds {
		t.Fatalf("durable session's log ends at round %d, want %d", expRound, crashRounds)
	}
	rs, err := m.Session(id)
	if err != nil {
		t.Fatal(err)
	}
	if expPending {
		if _, err := rs.Observe(refBatch[expRound]); err != nil {
			t.Fatalf("observing recovered pending round %d: %v", expRound, err)
		}
	}
	for r := expRound + 1; r <= crashRounds; r++ {
		batch, err := rs.NextBatch()
		if err != nil {
			t.Fatalf("recovered round %d NextBatch: %v", r, err)
		}
		if !slices.Equal(batch, refBatch[r]) {
			t.Fatalf("recovered round %d batch diverged", r)
		}
		if _, err := rs.Observe(batch); err != nil {
			t.Fatalf("recovered round %d Observe: %v", r, err)
		}
	}
	if got, err := rs.NextBatch(); err != nil {
		t.Fatalf("recovered final NextBatch: %v", err)
	} else if !slices.Equal(got, refNext) {
		t.Fatalf("recovered final proposal diverged after %s faults", site)
	}
}

// assertWriteAhead checks the write-ahead invariant right after an
// acknowledged transition: while the session claims Durable, the WAL's
// valid prefix must already contain the transition (round r proposed,
// or round r observed). A degraded session is the documented exception —
// its acks are explicitly non-durable.
func assertWriteAhead(t *testing.T, s *serve.Session, wal string, r int, pending bool) {
	t.Helper()
	st := s.Status()
	if !st.Durable {
		if !st.Degraded {
			t.Fatalf("round %d: session lost durability without raising Degraded", r)
		}
		return
	}
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatalf("round %d: reading WAL: %v", r, err)
	}
	_, gotRound, gotPending := expectedState(t, data)
	if gotRound != r || gotPending != pending {
		t.Fatalf("round %d pending=%v acked but WAL says round %d pending=%v",
			r, pending, gotRound, gotPending)
	}
}

// TestChaosFaultFreeByteIdentical pins the zero-cost claim end to end:
// with the fault framework active but no rule matching any real site,
// a journaled campaign is byte-identical to the reference.
func TestChaosFaultFreeByteIdentical(t *testing.T) {
	reg := testRegistry(t)
	cfg := serve.Config{Dataset: "test", EtaFrac: 0.5, Epsilon: 0.5, Seed: 11}
	refBatch, refNext := referenceBatches(t, reg, cfg, crashRounds)
	dir := t.TempDir()
	activatePlan(t, dir, "chaos/no-such-site:times=0:err=io")
	mgr := serve.NewManager(reg, 0, serve.WithJournalDir(dir), serve.WithCheckpointEvery(2))
	defer mgr.CloseAll()
	s, err := mgr.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= crashRounds; r++ {
		batch, err := s.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(batch, refBatch[r]) {
			t.Fatalf("round %d diverged with fault framework armed", r)
		}
		if _, err := s.Observe(batch); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := s.NextBatch(); err != nil || !slices.Equal(got, refNext) {
		t.Fatalf("final proposal diverged with fault framework armed (err %v)", err)
	}
	if n := fault.Injections(); n != 0 {
		t.Fatalf("%d injections fired from a non-matching plan", n)
	}
	if m := mgr.Snapshot(); m.Journal.AppendRetries != 0 || m.Counters[serve.Poisoned] != 0 || m.Counters[serve.Degraded] != 0 {
		t.Fatalf("resilience counters moved on a fault-free run: %+v", m)
	}
}

// TestTransientFsyncRetrySurvives is the headline acceptance case: a
// single injected fsync failure mid-campaign no longer kills the
// session — the writer retries, the campaign completes byte-identically,
// and the retry counter increments.
func TestTransientFsyncRetrySurvives(t *testing.T) {
	reg := testRegistry(t)
	cfg := serve.Config{Dataset: "test", EtaFrac: 0.5, Epsilon: 0.5, Seed: 11}
	refBatch, refNext := referenceBatches(t, reg, cfg, crashRounds)
	dir := t.TempDir()
	mgr := serve.NewManager(reg, 0, serve.WithJournalDir(dir), serve.WithCheckpointEvery(2))
	defer mgr.CloseAll()
	s, err := mgr.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	activatePlan(t, dir, "journal/append-sync:after=2:times=1:err=io")
	for r := 1; r <= crashRounds; r++ {
		batch, err := s.NextBatch()
		if err != nil {
			t.Fatalf("round %d NextBatch: %v", r, err)
		}
		if !slices.Equal(batch, refBatch[r]) {
			t.Fatalf("round %d batch diverged", r)
		}
		if _, err := s.Observe(batch); err != nil {
			t.Fatalf("round %d Observe: %v", r, err)
		}
	}
	if got, err := s.NextBatch(); err != nil || !slices.Equal(got, refNext) {
		t.Fatalf("final proposal diverged (err %v)", err)
	}
	st := s.Status()
	if !st.Durable || st.Degraded || st.LastFailure != "" {
		t.Fatalf("session should have absorbed the fault: %+v", st)
	}
	m := mgr.Snapshot()
	if m.Journal.AppendRetries < 1 {
		t.Fatalf("retry counter did not increment: %+v", m.Journal)
	}
	if m.Counters[serve.Poisoned] != 0 || m.Counters[serve.Degraded] != 0 || !m.JournalHealthy {
		t.Fatalf("one retried fault must not poison/degrade/trip anything: %+v", m)
	}
}

// TestPersistentFailureFailStop: under the default policy an unrelenting
// journal fault closes the session with the cause recorded and the
// poisoned counter ticking, and the breaker rejects new durable
// sessions until its cooldown passes.
func TestPersistentFailureFailStop(t *testing.T) {
	reg := testRegistry(t)
	dir := t.TempDir()
	mgr := serve.NewManager(reg, 0, serve.WithJournalDir(dir),
		serve.WithBreakerCooldown(50*time.Millisecond))
	defer mgr.CloseAll()
	s, err := mgr.Create(serve.Config{Dataset: "test", EtaFrac: 0.5, Epsilon: 0.5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	activatePlan(t, dir, "journal/append-sync:times=0:err=io")
	if _, err := s.NextBatch(); err == nil {
		t.Fatal("NextBatch succeeded through a persistent journal fault")
	}
	st := s.Status()
	if st.Phase != "closed" {
		t.Fatalf("fail-stop session phase = %s, want closed", st.Phase)
	}
	if st.LastFailure == "" || !strings.Contains(st.LastFailure, "input/output") {
		t.Fatalf("poisoning cause not recorded: %q", st.LastFailure)
	}
	m := mgr.Snapshot()
	if m.Counters[serve.Poisoned] != 1 || m.Counters[serve.Degraded] != 0 {
		t.Fatalf("counters after poisoning: %+v", m)
	}
	if m.JournalHealthy || m.Counters[serve.BreakerTrips] != 1 {
		t.Fatalf("breaker should be open after a final failure: %+v", m)
	}
	if _, err := mgr.Create(serve.Config{Dataset: "test", EtaFrac: 0.5, Seed: 12}); !errors.Is(err, serve.ErrJournalUnhealthy) {
		t.Fatalf("Create through open breaker = %v, want ErrJournalUnhealthy", err)
	}
	if ra := mgr.BreakerRetryAfter(); ra <= 0 || ra > 50*time.Millisecond {
		t.Fatalf("BreakerRetryAfter = %v", ra)
	}
	// After the cooldown the next create is the probe; the fault plan is
	// gone, so it must succeed and close the breaker.
	fault.Deactivate()
	time.Sleep(60 * time.Millisecond)
	if _, err := mgr.Create(serve.Config{Dataset: "test", EtaFrac: 0.5, Seed: 13}); err != nil {
		t.Fatalf("probe create after cooldown: %v", err)
	}
	if m := mgr.Snapshot(); !m.JournalHealthy || m.Counters[serve.BreakerTrips] != 1 {
		t.Fatalf("breaker should have closed after a successful probe: %+v", m)
	}
}

// TestPassivationCheckpointFailure: the checkpoint a passivation writes
// is an append like any other, so when it fails for good the durability
// policy decides, exactly as for a failed observation, and the session
// is not passivated: fail-stop poisons it (Passivate reports why), and
// degrade keeps it serving without a journal, its pending batch intact.
func TestPassivationCheckpointFailure(t *testing.T) {
	for _, policy := range []serve.DurabilityPolicy{serve.FailStop, serve.DegradeToNonDurable} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			mgr := serve.NewManager(testRegistry(t), 0, serve.WithJournalDir(dir),
				serve.WithDurabilityPolicy(policy))
			defer mgr.CloseAll()
			s, err := mgr.Create(serve.Config{Dataset: "test", EtaFrac: 0.5, Epsilon: 0.5, Seed: 11, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			batch, err := s.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			activatePlan(t, dir, "journal/checkpoint-sync:times=0:err=io")
			ok, err := mgr.Passivate(s.ID())
			if ok {
				t.Fatal("session passivated although its checkpoint failed to append")
			}
			st, m := s.Status(), mgr.Snapshot()
			if m.Counters[serve.Passivated] != 0 || m.Counters[serve.Passivations] != 0 || m.Counters[serve.Checkpoints] != 0 {
				t.Fatalf("counters after the failed passivation: %+v", m)
			}
			if policy == serve.FailStop {
				if err == nil || st.Phase != "closed" || m.Counters[serve.Poisoned] != 1 {
					t.Fatalf("fail-stop: Passivate err %v, phase %s, %d poisoned; want an error and a poisoned session",
						err, st.Phase, m.Counters[serve.Poisoned])
				}
				return
			}
			if err != nil || st.Phase != "observe" || !st.Degraded || st.Durable || m.Counters[serve.Degraded] != 1 {
				t.Fatalf("degrade: Passivate err %v, status %+v, %d degraded; want a degraded session still observing",
					err, st, m.Counters[serve.Degraded])
			}
			if _, err := s.Observe(batch); err != nil {
				t.Fatalf("degraded session refused its observation: %v", err)
			}
		})
	}
}

// TestPersistentFailureDegrade: under the degrade policy the same
// unrelenting fault keeps the session serving — Durable flips false,
// Degraded carries the cause, batches stay byte-identical — and a
// restart recovers the session at its last durable transition.
func TestPersistentFailureDegrade(t *testing.T) {
	reg := testRegistry(t)
	cfg := serve.Config{Dataset: "test", EtaFrac: 0.5, Epsilon: 0.5, Seed: 11}
	refBatch, refNext := referenceBatches(t, reg, cfg, crashRounds)
	dir := t.TempDir()
	mgr := serve.NewManager(reg, 0, serve.WithJournalDir(dir),
		serve.WithDurabilityPolicy(serve.DegradeToNonDurable))
	defer mgr.CloseAll()
	s, err := mgr.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One durable round, then the disk goes away for good.
	b1, err := s.NextBatch()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Observe(b1); err != nil {
		t.Fatal(err)
	}
	activatePlan(t, dir, "journal/append-write:times=0:err=io")
	for r := 2; r <= crashRounds; r++ {
		batch, err := s.NextBatch()
		if err != nil {
			t.Fatalf("degraded round %d NextBatch: %v", r, err)
		}
		if !slices.Equal(batch, refBatch[r]) {
			t.Fatalf("degraded round %d batch diverged", r)
		}
		if _, err := s.Observe(batch); err != nil {
			t.Fatalf("degraded round %d Observe: %v", r, err)
		}
	}
	if got, err := s.NextBatch(); err != nil || !slices.Equal(got, refNext) {
		t.Fatalf("degraded final proposal diverged (err %v)", err)
	}
	st := s.Status()
	if st.Durable || !st.Degraded || st.DegradeReason == "" || st.LastFailure == "" {
		t.Fatalf("degraded status wrong: %+v", st)
	}
	m := mgr.Snapshot()
	if m.Counters[serve.Degraded] != 1 || m.Counters[serve.Poisoned] != 0 {
		t.Fatalf("counters after degrade: %+v", m)
	}
	if mt := mgr.Metrics(); mt.DegradedNow != 1 {
		t.Fatalf("DegradedNow = %d, want 1", mt.DegradedNow)
	}
	// Restart: the log is frozen at round 1 (the last durable
	// transition); recovery resumes there, non-degraded, and continues
	// byte-identically.
	fault.Deactivate()
	mgr.CloseAll()
	m2 := serve.NewManager(reg, 0, serve.WithJournalDir(dir))
	defer m2.CloseAll()
	rep, err := m2.Recover("")
	if err != nil || rep.Recovered != 1 {
		t.Fatalf("recovering degraded session's log: %d recovered, %v (%v)", rep.Recovered, err, rep.Warnings)
	}
	rs, err := m2.Session(s.ID())
	if err != nil {
		t.Fatal(err)
	}
	rst := rs.Status()
	if rst.Round != 1 || rst.Degraded || !rst.Durable {
		t.Fatalf("recovered at round %d degraded=%v durable=%v, want round 1, fresh and durable", rst.Round, rst.Degraded, rst.Durable)
	}
	for r := 2; r <= crashRounds; r++ {
		batch, err := rs.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(batch, refBatch[r]) {
			t.Fatalf("post-degrade recovery round %d diverged", r)
		}
		if _, err := rs.Observe(batch); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEmergencyCompactionOnDiskFull: an ENOSPC append on a log carrying
// a checkpoint triggers an in-place emergency compaction and the append
// goes through — no degradation, no poisoning, durability intact.
func TestEmergencyCompactionOnDiskFull(t *testing.T) {
	reg := testRegistry(t)
	cfg := serve.Config{Dataset: "test", EtaFrac: 0.5, Epsilon: 0.5, Seed: 11}
	refBatch, refNext := referenceBatches(t, reg, cfg, crashRounds)
	dir := t.TempDir()
	// Compaction off: the log keeps its replay history, so the emergency
	// compaction has real bytes to reclaim past the checkpoints.
	mgr := serve.NewManager(reg, 0, serve.WithJournalDir(dir),
		serve.WithCheckpointEvery(2), serve.WithCompaction(false))
	defer mgr.CloseAll()
	s, err := mgr.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 3; r++ {
		batch, err := s.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Observe(batch); err != nil {
			t.Fatal(err)
		}
	}
	// Round 4's proposal hits a disk-full write; the checkpoint at round
	// 2 makes rounds 1–2 reclaimable.
	activatePlan(t, dir, "journal/append-write:times=1:err=enospc")
	batch, err := s.NextBatch()
	if err != nil {
		t.Fatalf("NextBatch through ENOSPC: %v", err)
	}
	if !slices.Equal(batch, refBatch[4]) {
		t.Fatal("post-ENOSPC batch diverged")
	}
	if _, err := s.Observe(batch); err != nil {
		t.Fatal(err)
	}
	st := s.Status()
	if !st.Durable || st.Degraded {
		t.Fatalf("session should have survived ENOSPC durable: %+v", st)
	}
	m := mgr.Snapshot()
	if m.Counters[serve.EmergencyCompactions] != 1 {
		t.Fatalf("EmergencyCompactions = %d, want 1", m.Counters[serve.EmergencyCompactions])
	}
	if m.Journal.DiskFull != 1 || m.Counters[serve.Poisoned] != 0 || m.Counters[serve.Degraded] != 0 {
		t.Fatalf("counters after ENOSPC episode: %+v", m)
	}
	if got, err := s.NextBatch(); err != nil || !slices.Equal(got, refNext) {
		t.Fatalf("final proposal diverged after emergency compaction (err %v)", err)
	}
}

// TestBootSurvivesLoadFaults: recovery reads hitting I/O errors skip
// the session with a warning — boot itself never fails.
func TestBootSurvivesLoadFaults(t *testing.T) {
	reg := testRegistry(t)
	dir := t.TempDir()
	mgr := serve.NewManager(reg, 0, serve.WithJournalDir(dir))
	s, err := mgr.Create(serve.Config{Dataset: "test", EtaFrac: 0.5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if b, err := s.NextBatch(); err != nil {
		t.Fatal(err)
	} else if _, err := s.Observe(b); err != nil {
		t.Fatal(err)
	}
	mgr.CloseAll()
	activatePlan(t, dir, "journal/load-read:times=0:err=io")
	m2 := serve.NewManager(reg, 0, serve.WithJournalDir(dir))
	defer m2.CloseAll()
	rep, err := m2.Recover("")
	if err != nil {
		t.Fatalf("boot failed on unreadable log: %v", err)
	}
	if rep.Recovered != 0 || len(rep.Warnings) == 0 {
		t.Fatalf("unreadable log: recovered=%d warnings=%v", rep.Recovered, rep.Warnings)
	}
	// The disk heals; the next boot recovers the session.
	fault.Deactivate()
	m3 := serve.NewManager(reg, 0, serve.WithJournalDir(dir))
	defer m3.CloseAll()
	rep, err = m3.Recover("")
	if err != nil || rep.Recovered != 1 {
		t.Fatalf("boot after heal: recovered=%d err=%v", rep.Recovered, err)
	}
}

// TestJournalDirReadOnlyMidRun simulates the journal directory flipping
// read-only between boot and the next write (injected EROFS — the test
// runs as root, where a real chmod would be bypassed): the session is
// poisoned with the cause recorded, new creates trip the breaker, and
// boot from the intact log still succeeds.
func TestJournalDirReadOnlyMidRun(t *testing.T) {
	reg := testRegistry(t)
	dir := t.TempDir()
	mgr := serve.NewManager(reg, 0, serve.WithJournalDir(dir),
		serve.WithBreakerCooldown(time.Hour))
	defer mgr.CloseAll()
	s, err := mgr.Create(serve.Config{Dataset: "test", EtaFrac: 0.5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if b, err := s.NextBatch(); err != nil {
		t.Fatal(err)
	} else if _, err := s.Observe(b); err != nil {
		t.Fatal(err)
	}
	activatePlan(t, dir,
		"journal/append-write:times=0:err=erofs;journal/create-open:times=0:err=erofs;journal/reopen:times=0:err=erofs")
	if _, err := s.NextBatch(); err == nil {
		t.Fatal("NextBatch succeeded on a read-only journal dir")
	} else if !errors.Is(err, syscall.EROFS) {
		t.Fatalf("NextBatch error = %v, want EROFS", err)
	}
	st := s.Status()
	if st.Phase != "closed" || !strings.Contains(st.LastFailure, "read-only") {
		t.Fatalf("poisoned status: phase=%s cause=%q", st.Phase, st.LastFailure)
	}
	if _, err := mgr.Create(serve.Config{Dataset: "test", EtaFrac: 0.5, Seed: 12}); !errors.Is(err, serve.ErrJournalUnhealthy) {
		t.Fatalf("Create on read-only dir = %v, want ErrJournalUnhealthy", err)
	}
	// Reads still work on a read-only filesystem: boot recovers the
	// session at its last durable transition.
	fault.Deactivate()
	m2 := serve.NewManager(reg, 0, serve.WithJournalDir(dir))
	defer m2.CloseAll()
	rep, err := m2.Recover("")
	if err != nil || rep.Recovered != 1 {
		t.Fatalf("boot from read-only episode: recovered=%d err=%v (%v)", rep.Recovered, err, rep.Warnings)
	}
}

// TestJournalDirVanishesMidRun deletes the journal directory outright
// (valid even as root) while a session holds an open writer: appends on
// the open fd keep working on Linux, but creates fail, and the manager
// must reject them and keep serving.
func TestJournalDirVanishesMidRun(t *testing.T) {
	reg := testRegistry(t)
	dir := t.TempDir()
	mgr := serve.NewManager(reg, 0, serve.WithJournalDir(dir),
		serve.WithBreakerCooldown(time.Hour))
	defer mgr.CloseAll()
	s, err := mgr.Create(serve.Config{Dataset: "test", EtaFrac: 0.5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	// The open writer's fd survives the unlink: the existing session keeps
	// committing (to an unlinked inode — durability is already fiction,
	// which is exactly what the breaker exists to flag on the next create).
	if b, err := s.NextBatch(); err != nil {
		t.Fatalf("NextBatch on unlinked log: %v", err)
	} else if _, err := s.Observe(b); err != nil {
		t.Fatalf("Observe on unlinked log: %v", err)
	}
	if _, err := mgr.Create(serve.Config{Dataset: "test", EtaFrac: 0.5, Seed: 12}); err == nil {
		t.Fatal("Create succeeded with the journal dir gone")
	} else if errors.Is(err, serve.ErrJournalUnhealthy) {
		t.Fatalf("first create after vanish should surface the real error, got breaker: %v", err)
	}
	if m := mgr.Snapshot(); m.JournalHealthy {
		t.Fatal("breaker should be open after a failed create")
	}
	if _, err := mgr.Create(serve.Config{Dataset: "test", EtaFrac: 0.5, Seed: 13}); !errors.Is(err, serve.ErrJournalUnhealthy) {
		t.Fatalf("second create should hit the breaker, got %v", err)
	}
	// A fresh boot over the (recreated, empty) directory must come up
	// clean with nothing to recover.
	mgr.CloseAll()
	m2 := serve.NewManager(reg, 0, serve.WithJournalDir(dir))
	defer m2.CloseAll()
	rep, err := m2.Recover("")
	if err != nil || rep.Recovered != 0 {
		t.Fatalf("boot over recreated dir: recovered=%d err=%v", rep.Recovered, err)
	}
}
