package serve_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"asti/internal/adaptive"
	"asti/internal/bitset"
	"asti/internal/diffusion"
	"asti/internal/rng"
	"asti/internal/serve"
)

// TestPassivateReactivateEquivalence is the tentpole acceptance
// criterion: a session passivated mid-campaign and reactivated through
// its manager proposes byte-identical batches to an uninterrupted run,
// across Workers ∈ {1,4} and pool reuse on and off — the same matrix the
// kill-and-restart test pins, without any process death involved.
func TestPassivateReactivateEquivalence(t *testing.T) {
	g := testGraph(t)
	φ := diffusion.SampleRealization(g, diffusion.IC, rng.New(99))
	for _, workers := range []int{1, 4} {
		for _, disableReuse := range []bool{false, true} {
			name := fmt.Sprintf("workers=%d/reuse=%v", workers, !disableReuse)
			t.Run(name, func(t *testing.T) {
				cfg := serve.Config{
					Dataset: "test", EtaFrac: 0.1, Epsilon: 0.5, Seed: 7,
					Workers: workers, DisablePoolReuse: disableReuse,
				}

				// Uninterrupted reference run (no journal).
				ref := serve.NewManager(testRegistry(t), 0)
				defer ref.CloseAll()
				rs, err := ref.Create(cfg)
				if err != nil {
					t.Fatal(err)
				}
				wantBatches, done := driveRounds(t, rs, φ, bitset.New(int(g.N())), 1<<20)
				if !done {
					t.Fatal("reference run did not finish")
				}
				if len(wantBatches) < 3 {
					t.Skipf("campaign too short to interrupt (%d rounds)", len(wantBatches))
				}

				mgr := serve.NewManager(testRegistry(t), 0, serve.WithJournalDir(t.TempDir()))
				defer mgr.CloseAll()
				s1, err := mgr.Create(cfg)
				if err != nil {
					t.Fatal(err)
				}
				id := s1.ID()
				mirror := bitset.New(int(g.N()))
				gotBatches, done := driveRounds(t, s1, φ, mirror, 2)
				if done {
					t.Fatal("campaign finished before the passivation point")
				}

				if ok, err := mgr.Passivate(id); err != nil || !ok {
					t.Fatalf("Passivate: ok=%v err=%v", ok, err)
				}
				if st := s1.Status(); st.Phase != "passivated" || st.PoolBytes != 0 ||
					st.Passivations != 1 || !st.Durable || st.Round != 2 {
					t.Fatalf("passivated status %+v", st)
				}

				// One object per campaign: the lookup restores the session
				// Create returned, in place.
				s2, err := mgr.Session(id)
				if err != nil {
					t.Fatal(err)
				}
				if s2 != s1 {
					t.Fatal("lookup returned another *Session than Create")
				}
				st := s2.Status()
				if st.Phase != "propose" || st.Round != 2 || !st.Durable || st.Passivations != 1 {
					t.Fatalf("reactivated status %+v", st)
				}
				rest, done := driveRounds(t, s2, φ, mirror, 1<<20)
				if !done {
					t.Fatal("reactivated run did not finish")
				}
				gotBatches = append(gotBatches, rest...)
				if fmt.Sprint(gotBatches) != fmt.Sprint(wantBatches) {
					t.Errorf("passivated+reactivated batches %v != uninterrupted %v", gotBatches, wantBatches)
				}

				mt := mgr.Metrics()
				if mt.Counters[serve.Passivations] != 1 || mt.Counters[serve.Reactivations] != 1 || mt.Counters[serve.Passivated] != 0 {
					t.Errorf("metrics %+v, want 1 passivation, 1 reactivation, 0 passivated", mt)
				}
			})
		}
	}
}

// TestReactivationRestoresCheckpoint pins restore-only reactivation: a
// session passivated before every proposal and every observation, and
// carried across one manager restart while passivated, proposes
// byte-identical batches to an uninterrupted run, and every reactivation
// resumes from the checkpoint its passivation wrote without re-running a
// selection. The matrix covers ASTI and ASTI-3 × workers {1,4} × pool
// reuse on/off × sampler v1/v2 with explicit passivation; one variant
// lets the real idle sweeper park the session instead.
func TestReactivationRestoresCheckpoint(t *testing.T) {
	g := testGraph(t)
	φ := diffusion.SampleRealization(g, diffusion.IC, rng.New(99))
	for _, policy := range []string{"ASTI", "ASTI-3"} {
		for _, workers := range []int{1, 4} {
			for _, disableReuse := range []bool{false, true} {
				for _, sampler := range []int{1, 2} {
					cfg := serve.Config{
						Dataset: "test", Policy: policy, EtaFrac: 0.1, Epsilon: 0.5, Seed: 7,
						Workers: workers, DisablePoolReuse: disableReuse, SamplerVersion: sampler,
					}
					name := fmt.Sprintf("%s/workers=%d/reuse=%v/v%d", policy, workers, !disableReuse, sampler)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						restoreOnlyCampaign(t, cfg, φ, 0)
					})
				}
			}
		}
	}
	t.Run("sweeper", func(t *testing.T) {
		t.Parallel()
		cfg := serve.Config{Dataset: "test", Policy: "ASTI-3", EtaFrac: 0.1, Epsilon: 0.5, Seed: 7, Workers: 4}
		restoreOnlyCampaign(t, cfg, φ, time.Millisecond)
	})
}

// restoreOnlyCampaign plays cfg against φ with the session parked before
// every step — by Manager.Passivate, or, with idleTTL > 0, by the
// manager's own idle sweeper — and restarts the manager once, before the
// observation of the middle round, while the session is parked. Each
// step runs on the session a lookup reactivated, which must not have
// re-run any selection (the restore leaves its selection clock
// unchanged) and must be in the phase the step expects. Every
// reactivation after the first proposal, and the recovery, must be a
// checkpoint restore; before it the session has nothing to checkpoint
// and reactivates from its created record.
func restoreOnlyCampaign(t *testing.T, cfg serve.Config, φ *diffusion.Realization, idleTTL time.Duration) {
	n := int(φ.Graph().N())
	ref := serve.NewManager(testRegistry(t), 0)
	defer ref.CloseAll()
	rs, err := ref.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, done := driveRounds(t, rs, φ, bitset.New(n), 1<<20)
	if !done || len(want) < 4 {
		t.Fatalf("reference run: %d rounds, done=%v; want a finished campaign of at least 4 rounds", len(want), done)
	}

	opts := []serve.ManagerOption{serve.WithJournalDir(t.TempDir())}
	if idleTTL > 0 {
		opts = append(opts, serve.WithIdleTTL(idleTTL))
	}
	mgr := serve.NewManager(testRegistry(t), 0, opts...)
	defer func() { mgr.CloseAll() }()
	s, err := mgr.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID()

	// park leaves the session passivated.
	park := func() {
		if idleTTL == 0 {
			if _, err := mgr.Passivate(id); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for s.Status().Phase != "passivated" {
			if time.Now().After(deadline) {
				t.Fatal("session never passivated")
			}
			time.Sleep(time.Millisecond)
		}
	}
	// step parks the session, looks it up and runs op on it (which
	// restores it again if the sweeper parked it after the lookup).
	step := func(phase string, op func() error) {
		t.Helper()
		for {
			clock := s.Status().SelectSeconds
			park()
			if _, err := mgr.Session(id); err != nil {
				t.Fatal(err)
			}
			st := s.Status()
			if st.Phase == "passivated" {
				continue // the sweeper was quicker than this check
			}
			if st.Phase != phase || st.SelectSeconds != clock {
				t.Fatalf("reactivated at round %d in phase %s with the selection clock at %.4fs; want phase %s and the clock unchanged from %.4fs",
					st.Round, st.Phase, st.SelectSeconds, phase, clock)
			}
			if err := op(); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	// restores checks one manager's accounting: every reactivation but
	// the fresh ones restored a checkpoint, as did `recovered` recoveries.
	restores := func(m *serve.Manager, fresh uint64, recovered uint64) {
		t.Helper()
		mt := m.Metrics()
		if mt.Counters[serve.Reactivations] <= fresh || mt.Counters[serve.CheckpointRestores] != mt.Counters[serve.Reactivations]-fresh+recovered {
			t.Fatalf("%d reactivations (%d before the first proposal) and %d recoveries, but %d checkpoint restores",
				mt.Counters[serve.Reactivations], fresh, recovered, mt.Counters[serve.CheckpointRestores])
		}
	}

	mirror := bitset.New(n)
	var got [][]int32
	var fresh uint64
	for round := 1; ; round++ {
		var batch []int32
		step("propose", func() (err error) {
			batch, err = s.NextBatch()
			return err
		})
		if round == 1 {
			fresh = mgr.Metrics().Counters[serve.Reactivations]
		}
		got = append(got, batch)
		newly := φ.Spread(batch, mirror)
		for _, v := range newly {
			mirror.Set(v)
		}
		if round == len(want)/2 {
			// Restart while parked with the batch pending: recovery restores
			// the passivation checkpoint and replays nothing.
			park()
			restores(mgr, fresh, 0)
			mgr.CloseAll()
			mgr = serve.NewManager(testRegistry(t), 0, opts...)
			rep, err := mgr.Recover("")
			if err != nil {
				t.Fatal(err)
			}
			if rep.Recovered != 1 || rep.CheckpointRestores != 1 || rep.Rounds != 0 {
				t.Fatalf("recovery report %+v, want one session restored with no round replayed", rep)
			}
			if s, err = mgr.Session(id); err != nil {
				t.Fatal(err)
			}
			fresh = 0
		}
		var prog serve.Progress
		step("observe", func() (err error) {
			prog, err = s.Observe(newly)
			return err
		})
		if prog.Done {
			break
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("batches with restore-only reactivation %v != uninterrupted %v", got, want)
	}
	restores(mgr, fresh, 1)
}

// TestPassivatePendingBatch passivates between NextBatch and Observe:
// the reactivated session must be back in the observe phase with the
// identical pending batch, and accept the observation.
func TestPassivatePendingBatch(t *testing.T) {
	g := testGraph(t)
	φ := diffusion.SampleRealization(g, diffusion.IC, rng.New(5))
	mgr := serve.NewManager(testRegistry(t), 0, serve.WithJournalDir(t.TempDir()))
	defer mgr.CloseAll()
	s1, err := mgr.Create(serve.Config{Dataset: "test", EtaFrac: 0.2, Epsilon: 0.5, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	mirror := bitset.New(int(g.N()))
	driveRounds(t, s1, φ, mirror, 1)
	batch, err := s1.NextBatch() // proposed, never observed
	if err != nil {
		t.Fatal(err)
	}
	id := s1.ID()
	if ok, err := mgr.Passivate(id); err != nil || !ok {
		t.Fatalf("Passivate: ok=%v err=%v", ok, err)
	}
	if st := s1.Status(); st.Phase != "passivated" || fmt.Sprint(st.Pending) != fmt.Sprint(batch) {
		t.Fatalf("passivated status %+v, want pending %v", st, batch)
	}
	// The observation through the original pointer restores the session,
	// back in the observe phase with the identical pending batch.
	newly := φ.Spread(batch, mirror)
	prog, err := s1.Observe(newly)
	if err != nil {
		t.Fatalf("Observe after passivation: %v", err)
	}
	if prog.Round != 2 || mgr.Snapshot().Counters[serve.Reactivations] != 1 {
		t.Fatalf("progress %+v after %d reactivations, want round 2 after one", prog, mgr.Snapshot().Counters[serve.Reactivations])
	}
	if rounds := s1.Result().Rounds; fmt.Sprint(rounds[len(rounds)-1].Seeds) != fmt.Sprint(batch) {
		t.Fatalf("observed round committed %v, want the pending batch %v", rounds[len(rounds)-1].Seeds, batch)
	}
}

// TestCloseAfterPassivationIsFinal pins one object per campaign from the
// closing side: Close on the pointer Create returned, after a passivation
// and a lookup, closes the campaign the lookup returned — it answers
// ErrClosed, and a restart finds the log closed, not recoverable.
func TestCloseAfterPassivationIsFinal(t *testing.T) {
	dir := t.TempDir()
	mgr := serve.NewManager(testRegistry(t), 0, serve.WithJournalDir(dir))
	defer mgr.CloseAll()
	s, err := mgr.Create(serve.Config{Dataset: "test", EtaFrac: 0.2, Seed: 21, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := mgr.Passivate(s.ID()); err != nil || !ok {
		t.Fatalf("Passivate: ok=%v err=%v", ok, err)
	}
	looked, err := mgr.Session(s.ID())
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := looked.NextBatch(); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("NextBatch on the looked-up session after Close: %v, want ErrClosed", err)
	}
	mgr2 := serve.NewManager(testRegistry(t), 0, serve.WithJournalDir(dir))
	defer mgr2.CloseAll()
	rep, err := mgr2.Recover("")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Closed != 1 || rep.Recovered != 0 {
		t.Errorf("report %+v, want the closed campaign closed, not recovered", rep)
	}
}

// TestSelectSecondsSurvivesPassivation: the selection clock belongs to
// the campaign, so a passivation and the restore behind the next lookup
// leave it where it was.
func TestSelectSecondsSurvivesPassivation(t *testing.T) {
	g := testGraph(t)
	φ := diffusion.SampleRealization(g, diffusion.IC, rng.New(99))
	mgr := serve.NewManager(testRegistry(t), 0, serve.WithJournalDir(t.TempDir()))
	defer mgr.CloseAll()
	s, err := mgr.Create(serve.Config{Dataset: "test", EtaFrac: 0.1, Epsilon: 0.5, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, done := driveRounds(t, s, φ, bitset.New(int(g.N())), 3); done {
		t.Fatal("campaign finished before the passivation point")
	}
	before := s.Status().SelectSeconds
	if before <= 0 {
		t.Fatalf("selection clock reads %v after 3 rounds", before)
	}
	if ok, err := mgr.Passivate(s.ID()); err != nil || !ok {
		t.Fatalf("Passivate: ok=%v err=%v", ok, err)
	}
	looked, err := mgr.Session(s.ID())
	if err != nil {
		t.Fatal(err)
	}
	if after := looked.Status().SelectSeconds; after != before {
		t.Errorf("select seconds %v after passivation and lookup, want %v", after, before)
	}
}

// blockingPolicy proposes the first inactive node, but only once release
// is closed; entered receives a value when SelectBatch starts waiting.
type blockingPolicy struct {
	entered, release chan struct{}
}

func (p *blockingPolicy) Name() string { return "blocking" }

func (p *blockingPolicy) SelectBatch(st *adaptive.State) ([]int32, error) {
	p.entered <- struct{}{}
	<-p.release
	return []int32{st.Inactive[0]}, nil
}

// TestMonitoringNeverWaitsOnSelection: while a session's policy is stuck
// inside SelectBatch, every monitoring read — the manager's Metrics, List
// and Snapshot, the lookup, and the session's own Status — still answers
// promptly from the status the session published.
func TestMonitoringNeverWaitsOnSelection(t *testing.T) {
	g := testGraph(t)
	p := &blockingPolicy{entered: make(chan struct{}, 1), release: make(chan struct{})}
	s, err := serve.NewSession(g, diffusion.IC, 10, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	mgr := serve.NewManager(testRegistry(t), 0)
	defer mgr.CloseAll()
	serve.Register(mgr, s, "s1")

	proposed := make(chan error, 1)
	go func() {
		_, err := s.Propose()
		proposed <- err
	}()
	<-p.entered
	probes := []struct {
		name string
		call func()
	}{
		{"Metrics", func() { mgr.Metrics() }},
		{"List", func() { mgr.List() }},
		{"Snapshot", func() { mgr.Snapshot() }},
		{"Session", func() { _, _ = mgr.Session("s1") }},
		{"Status", func() { s.Status() }},
	}
	for _, probe := range probes {
		done := make(chan struct{})
		go func() {
			probe.call()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(300 * time.Millisecond):
			t.Errorf("%s still waiting on the selection after 300ms", probe.name)
		}
	}
	close(p.release)
	if err := <-proposed; err != nil {
		t.Fatal(err)
	}
	if st := s.Status(); st.Round != 1 || st.Phase != "observe" {
		t.Errorf("status after the step %+v, want round 1 in phase observe", st)
	}
}

// TestPassivateRequiresJournal pins the eligibility rule: sessions
// without a write-ahead log are never passivated — there would be
// nothing to reactivate them from.
func TestPassivateRequiresJournal(t *testing.T) {
	mgr := serve.NewManager(testRegistry(t), 0)
	defer mgr.CloseAll()
	s, err := mgr.Create(serve.Config{Dataset: "test", EtaFrac: 0.1, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := mgr.PassivateIdle(0); n != 0 {
		t.Errorf("PassivateIdle passivated %d in-memory sessions", n)
	}
	if ok, err := mgr.Passivate(s.ID()); err != nil || ok {
		t.Errorf("Passivate on in-memory session: ok=%v err=%v", ok, err)
	}
	if _, err := mgr.Passivate("s999"); err == nil {
		t.Error("Passivate of unknown id succeeded")
	}
	if _, err := s.NextBatch(); err != nil {
		t.Errorf("in-memory session broken by passivation attempt: %v", err)
	}
}

// TestPassivatedCloseIsFinal: closing a passivated session removes its
// log for good — recovery and lookup must not resurrect it.
func TestPassivatedCloseIsFinal(t *testing.T) {
	dir := t.TempDir()
	mgr := serve.NewManager(testRegistry(t), 0, serve.WithJournalDir(dir))
	defer mgr.CloseAll()
	s, err := mgr.Create(serve.Config{Dataset: "test", EtaFrac: 0.2, Seed: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID()
	if ok, err := mgr.Passivate(id); err != nil || !ok {
		t.Fatalf("Passivate: ok=%v err=%v", ok, err)
	}
	// List still shows the campaign, parked.
	list := mgr.List()
	if len(list) != 1 || list[0].Phase != "passivated" {
		t.Fatalf("List() = %+v, want one passivated session", list)
	}
	if err := mgr.Close(id); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Session(id); err == nil {
		t.Error("closed session still resolvable")
	}
	mgr2 := serve.NewManager(testRegistry(t), 0, serve.WithJournalDir(dir))
	defer mgr2.CloseAll()
	rep, err := mgr2.Recover("")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovered != 0 {
		t.Errorf("closed passivated session recovered: %+v", rep)
	}
}

// TestPassivatedSurvivesRestart: a process dying while a session is
// passivated loses nothing — the journal is the state, and the next
// process recovers the session like any other, from the checkpoint its
// passivation wrote: no round is replayed.
func TestPassivatedSurvivesRestart(t *testing.T) {
	g := testGraph(t)
	φ := diffusion.SampleRealization(g, diffusion.IC, rng.New(31))
	dir := t.TempDir()
	mgr := serve.NewManager(testRegistry(t), 0, serve.WithJournalDir(dir))
	s, err := mgr.Create(serve.Config{Dataset: "test", EtaFrac: 0.2, Epsilon: 0.5, Seed: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID()
	driveRounds(t, s, φ, bitset.New(int(g.N())), 2)
	if ok, err := mgr.Passivate(id); err != nil || !ok {
		t.Fatalf("Passivate: ok=%v err=%v", ok, err)
	}
	// No CloseAll: the process just dies.
	mgr2 := serve.NewManager(testRegistry(t), 0, serve.WithJournalDir(dir))
	defer mgr2.CloseAll()
	rep, err := mgr2.Recover("")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovered != 1 || rep.Rounds != 0 || rep.CheckpointRestores != 1 {
		t.Fatalf("report %+v, want the passivated session restored from its checkpoint with 0 rounds replayed", rep)
	}
	s2, err := mgr2.Session(id)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Status(); st.Round != 2 || st.Phase != "propose" {
		t.Errorf("recovered status %+v", st)
	}
}

// TestManagerMetrics pins the accounting roll-up: pool bytes while live,
// zero after passivation, journal bytes on disk either way, and the
// phase census.
func TestManagerMetrics(t *testing.T) {
	g := testGraph(t)
	φ := diffusion.SampleRealization(g, diffusion.IC, rng.New(17))
	mgr := serve.NewManager(testRegistry(t), 0, serve.WithJournalDir(t.TempDir()))
	defer mgr.CloseAll()
	s, err := mgr.Create(serve.Config{Dataset: "test", EtaFrac: 0.2, Epsilon: 0.5, Seed: 6, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	driveRounds(t, s, φ, bitset.New(int(g.N())), 1)

	mt := mgr.Metrics()
	if mt.Sessions != 1 || mt.Counters[serve.Passivated] != 0 || mt.Phases["propose"] != 1 {
		t.Errorf("metrics after one round %+v", mt)
	}
	if mt.PoolBytes <= 0 {
		t.Errorf("live session reports %d pool bytes, want > 0", mt.PoolBytes)
	}
	if mt.JournalBytes <= 0 {
		t.Errorf("journaled session reports %d journal bytes, want > 0", mt.JournalBytes)
	}
	if st := s.Status(); st.PoolBytes != mt.PoolBytes {
		t.Errorf("session pool bytes %d != manager roll-up %d", st.PoolBytes, mt.PoolBytes)
	}

	if ok, err := mgr.Passivate(s.ID()); err != nil || !ok {
		t.Fatalf("Passivate: ok=%v err=%v", ok, err)
	}
	mt = mgr.Metrics()
	if mt.Counters[serve.Passivated] != 1 || mt.Phases["passivated"] != 1 || mt.PoolBytes != 0 {
		t.Errorf("metrics after passivation %+v, want pool bytes released", mt)
	}
	if mt.JournalBytes <= 0 {
		t.Errorf("passivated session dropped from journal accounting: %+v", mt)
	}
}

// TestIdleSweepPassivates exercises the background sweeper end to end: a
// manager built with a tiny IdleTTL passivates an untouched durable
// session on its own, and the next lookup reactivates it.
func TestIdleSweepPassivates(t *testing.T) {
	mgr := serve.NewManager(testRegistry(t), 0,
		serve.WithJournalDir(t.TempDir()), serve.WithIdleTTL(20*time.Millisecond))
	defer mgr.CloseAll()
	if got := mgr.IdleTTL(); got != 20*time.Millisecond {
		t.Fatalf("IdleTTL() = %v", got)
	}
	s, err := mgr.Create(serve.Config{Dataset: "test", EtaFrac: 0.1, Seed: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID()
	deadline := time.Now().Add(10 * time.Second)
	for mgr.Metrics().Counters[serve.Passivated] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sweeper never passivated the idle session")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s2, err := mgr.Session(id)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Status(); st.Phase != "propose" || st.Passivations < 1 {
		t.Errorf("status after sweep + lookup: %+v", st)
	}
}

// TestPassivateSweepRace races an aggressive passivation sweep against a
// client stepping its session through the manager, as cmd/asmserve does:
// under -race this must be clean, every step must succeed (a step on a
// parked session restores it), and the campaign must still propose the
// reference batch sequence.
func TestPassivateSweepRace(t *testing.T) {
	g := testGraph(t)
	φ := diffusion.SampleRealization(g, diffusion.IC, rng.New(23))
	cfg := serve.Config{Dataset: "test", EtaFrac: 0.1, Epsilon: 0.5, Seed: 13, Workers: 1}

	// Reference sequence, no passivation anywhere.
	ref := serve.NewManager(testRegistry(t), 0)
	defer ref.CloseAll()
	rs, err := ref.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantBatches, done := driveRounds(t, rs, φ, bitset.New(int(g.N())), 1<<20)
	if !done {
		t.Fatal("reference run did not finish")
	}

	mgr := serve.NewManager(testRegistry(t), 0, serve.WithJournalDir(t.TempDir()))
	defer mgr.CloseAll()
	s, err := mgr.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				mgr.PassivateIdle(0) // TTL 0: everything idle is fair game
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	// Race only the first rounds (every lost race costs a checkpoint
	// write and a pool regeneration), then let the campaign finish
	// undisturbed.
	const racedRounds = 5
	raceOver := false
	endRace := func() {
		if !raceOver {
			raceOver = true
			close(stop)
			wg.Wait()
		}
	}
	defer endRace()

	mirror := bitset.New(int(g.N()))
	var gotBatches [][]int32
	var pending []int32
	for rounds := 0; rounds < 1<<20; {
		if rounds >= racedRounds {
			endRace()
		}
		cur, err := mgr.Session(id) // reactivates if the sweep won
		if err != nil {
			t.Fatal(err)
		}
		if pending == nil {
			batch, err := cur.NextBatch()
			if err != nil {
				t.Fatalf("NextBatch: %v", err)
			}
			pending = batch
			gotBatches = append(gotBatches, batch)
		}
		newly := φ.Spread(pending, mirror)
		prog, err := cur.Observe(newly)
		if err != nil {
			t.Fatalf("Observe: %v", err)
		}
		for _, v := range newly {
			mirror.Set(v)
		}
		pending = nil
		rounds++
		if prog.Done {
			break
		}
	}
	endRace()

	if fmt.Sprint(gotBatches) != fmt.Sprint(wantBatches) {
		t.Errorf("batches under sweep race %v != reference %v", gotBatches, wantBatches)
	}
	mt := mgr.Metrics()
	if mt.Counters[serve.Passivations] != mt.Counters[serve.Reactivations] && mt.Counters[serve.Passivations] != mt.Counters[serve.Reactivations]+1 {
		t.Errorf("counter imbalance: %d passivations vs %d reactivations", mt.Counters[serve.Passivations], mt.Counters[serve.Reactivations])
	}
}

// TestPassivatedCloseCommitsClosedRecord pins the resurrection guard: a
// passivated session has no live journal writer, so Manager.Close must
// reopen the log and commit a closed record *before* unlinking it — if
// the unlink is ever lost (crash, flaky disk), the surviving log must
// read as deliberately closed, not as recoverable. The test hardlinks
// the log so the unlink doesn't destroy the evidence.
func TestPassivatedCloseCommitsClosedRecord(t *testing.T) {
	dir := t.TempDir()
	mgr := serve.NewManager(testRegistry(t), 0, serve.WithJournalDir(dir))
	defer mgr.CloseAll()
	s, err := mgr.Create(serve.Config{Dataset: "test", EtaFrac: 0.2, Seed: 14, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID()
	if ok, err := mgr.Passivate(id); err != nil || !ok {
		t.Fatalf("Passivate: ok=%v err=%v", ok, err)
	}
	// Keep the log's inode alive across Close's unlink.
	wal := filepath.Join(dir, id+".wal")
	kept := filepath.Join(dir, "kept")
	if err := os.Link(wal, kept); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(id); err != nil {
		t.Fatal(err)
	}
	// Simulate a lost unlink: put the (post-Close) log bytes back.
	if err := os.Rename(kept, wal); err != nil {
		t.Fatal(err)
	}
	mgr2 := serve.NewManager(testRegistry(t), 0, serve.WithJournalDir(dir))
	defer mgr2.CloseAll()
	rep, err := mgr2.Recover("")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Closed != 1 || rep.Recovered != 0 {
		t.Errorf("report %+v: a closed-while-passivated log must read as closed, never recover", rep)
	}
}

// TestCloseRacingReactivation pins the other resurrection guard: a
// DELETE racing the restore behind a lookup must win — after both
// finish, the session is gone from the table and from disk, and a
// restore that lost the race left no log behind.
func TestCloseRacingReactivation(t *testing.T) {
	dir := t.TempDir()
	mgr := serve.NewManager(testRegistry(t), 0, serve.WithJournalDir(dir))
	defer mgr.CloseAll()
	for i := 0; i < 10; i++ {
		s, err := mgr.Create(serve.Config{Dataset: "test", EtaFrac: 0.2, Seed: uint64(i), Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		id := s.ID()
		if batch, err := s.NextBatch(); err != nil {
			t.Fatal(err)
		} else if _, err := s.Observe(batch); err != nil {
			t.Fatal(err)
		}
		if ok, err := mgr.Passivate(id); err != nil || !ok {
			t.Fatalf("Passivate: ok=%v err=%v", ok, err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, _ = mgr.Session(id) // reactivation replay
		}()
		go func() {
			defer wg.Done()
			_ = mgr.Close(id)
		}()
		wg.Wait()
		if _, err := mgr.Session(id); err == nil {
			t.Fatalf("iteration %d: closed session %s still resolvable after racing reactivation", i, id)
		}
		if _, err := os.Stat(filepath.Join(dir, id+".wal")); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("iteration %d: closed session %s left its log on disk (%v)", i, id, err)
		}
	}
	if st := mgr.Snapshot(); st.Sessions != 0 || st.Counters[serve.Passivated] != 0 {
		t.Errorf("stats after close storm %+v, want empty table", st)
	}
}

// TestReactivateDamagedJournal pins the failure mapping: a passivated
// session whose log rots on disk must fail its restore — from a lookup or
// a step — with ErrRestoreFailed, never ErrUnknownSession (the front
// end's 500, not 404 — the campaign exists, the server just cannot
// revive it), and must stay in the table, passivated, for inspection.
func TestReactivateDamagedJournal(t *testing.T) {
	g := testGraph(t)
	φ := diffusion.SampleRealization(g, diffusion.IC, rng.New(42))
	dir := t.TempDir()
	mgr := serve.NewManager(testRegistry(t), 0, serve.WithJournalDir(dir))
	defer mgr.CloseAll()
	s, err := mgr.Create(serve.Config{Dataset: "test", EtaFrac: 0.2, Epsilon: 0.5, Seed: 19, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID()
	driveRounds(t, s, φ, bitset.New(int(g.N())), 1)
	if ok, err := mgr.Passivate(id); err != nil || !ok {
		t.Fatalf("Passivate: ok=%v err=%v", ok, err)
	}
	// Flip a byte in the log's last record: the tail no longer checks out.
	wal := filepath.Join(dir, id+".wal")
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = mgr.Session(id)
	if err == nil {
		t.Fatal("reactivation from a damaged journal succeeded")
	}
	if errors.Is(err, serve.ErrUnknownSession) || !errors.Is(err, serve.ErrRestoreFailed) {
		t.Errorf("damaged-journal reactivation: %v, want ErrRestoreFailed", err)
	}
	if _, err := s.NextBatch(); !errors.Is(err, serve.ErrRestoreFailed) {
		t.Errorf("step on the damaged passivated session: %v, want ErrRestoreFailed", err)
	}
	// Unknown ids still classify as unknown.
	if _, err := mgr.Session("s999"); !errors.Is(err, serve.ErrUnknownSession) {
		t.Errorf("unknown id: %v, want ErrUnknownSession", err)
	}
	// The session survives for List/metrics; it is not silently dropped.
	if st := mgr.Snapshot(); st.Sessions != 1 || st.Counters[serve.Passivated] != 1 || s.Status().Phase != "passivated" {
		t.Errorf("stats after failed reactivation %+v", st)
	}
}

// TestCloseRacingSweep races DELETE against the idle sweep: whichever
// order the two land in, the passivated gauge must drain back to zero
// and the journal directory must end empty (the closed record + unlink
// must not be skipped because the sweep won the session lock first).
func TestCloseRacingSweep(t *testing.T) {
	dir := t.TempDir()
	mgr := serve.NewManager(testRegistry(t), 0, serve.WithJournalDir(dir))
	defer mgr.CloseAll()
	for i := 0; i < 10; i++ {
		s, err := mgr.Create(serve.Config{Dataset: "test", EtaFrac: 0.2, Seed: uint64(100 + i), Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		id := s.ID()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			mgr.PassivateIdle(0)
		}()
		go func() {
			defer wg.Done()
			_ = mgr.Close(id)
		}()
		wg.Wait()
		if _, err := mgr.Session(id); err == nil {
			t.Fatalf("iteration %d: closed session %s still resolvable", i, id)
		}
	}
	if st := mgr.Snapshot(); st.Sessions != 0 || st.Counters[serve.Passivated] != 0 {
		t.Errorf("stats after close-vs-sweep storm %+v, want zero", st)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("journal dir still has %d files after closes", len(entries))
	}
}

// TestDirectCloseOfPassivatedSession pins the library-level contract: a
// caller holding the *Session from Create may call Close() directly
// (never going through Manager.Close). On a passivated session that
// close must still commit a closed record to the on-disk log — so a
// restart can never resurrect the campaign — and drain the manager's
// passivated gauge.
func TestDirectCloseOfPassivatedSession(t *testing.T) {
	dir := t.TempDir()
	mgr := serve.NewManager(testRegistry(t), 0, serve.WithJournalDir(dir))
	defer mgr.CloseAll()
	s, err := mgr.Create(serve.Config{Dataset: "test", EtaFrac: 0.2, Seed: 27, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID()
	if ok, err := mgr.Passivate(id); err != nil || !ok {
		t.Fatalf("Passivate: ok=%v err=%v", ok, err)
	}
	s.Close() // directly on the passivated object, not via the manager
	if st := mgr.Snapshot(); st.Counters[serve.Passivated] != 0 {
		t.Errorf("passivated gauge %d after direct close, want 0", st.Counters[serve.Passivated])
	}
	// Direct Close does not unlink the log (that is Manager.Close's job);
	// the log that remains must read as deliberately closed.
	mgr2 := serve.NewManager(testRegistry(t), 0, serve.WithJournalDir(dir))
	defer mgr2.CloseAll()
	rep, err := mgr2.Recover("")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Closed != 1 || rep.Recovered != 0 {
		t.Errorf("report %+v: directly closed passivated session must stay closed across restart", rep)
	}
}
