package serve_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"asti/internal/journal"
	"asti/internal/serve"
)

// crashRounds is how many committed rounds the crash-point campaigns
// run; with checkpoints every 2 rounds the log passes through every
// interesting regime: no checkpoint yet, a checkpoint mid-log, and a
// compacted log whose replay history is gone.
const crashRounds = 4

// driveBatchOnlyRounds steps s for exactly `rounds` select–observe
// rounds, activating each proposed batch verbatim (the smallest
// observation that advances the campaign), and returns the batches
// indexed by round (batches[r] is round r's, batches[0] unused).
func driveBatchOnlyRounds(t testing.TB, s *serve.Session, rounds int) [][]int32 {
	t.Helper()
	batches := make([][]int32, rounds+1)
	for r := 1; r <= rounds; r++ {
		batch, err := s.NextBatch()
		if err != nil {
			t.Fatalf("round %d NextBatch: %v", r, err)
		}
		batches[r] = batch
		if prog, err := s.Observe(batch); err != nil {
			t.Fatalf("round %d Observe: %v", r, err)
		} else if prog.Done {
			t.Fatalf("campaign finished at round %d of %d; raise EtaFrac", r, rounds)
		}
	}
	return batches
}

// crashCandidates enumerates the WAL byte states a SIGKILL could leave
// behind across the life of one log: every snapshot truncated at every
// record boundary (a kill between appends) plus two offsets inside each
// record (a kill mid-write), deduplicated. Snapshots must be taken after
// every acknowledged transition; compaction rewrites the file, so later
// snapshots are not supersets of earlier ones.
func crashCandidates(t *testing.T, snapshots [][]byte) [][]byte {
	t.Helper()
	seen := map[string]bool{}
	var out [][]byte
	add := func(b []byte) {
		if !seen[string(b)] {
			seen[string(b)] = true
			out = append(out, b)
		}
	}
	for _, snap := range snapshots {
		recs, valid, tailErr := journal.Scan(snap)
		if tailErr != nil || valid != len(snap) {
			t.Fatalf("live snapshot does not scan cleanly: valid %d of %d, %v", valid, len(snap), tailErr)
		}
		off := 0
		add(snap[:0])
		for _, rec := range recs {
			size := len(journal.RawFrame(rec.Type, rec.Body))
			add(snap[:off+1])      // torn just into the header
			add(snap[:off+size/2]) // torn mid-record
			off += size
			add(snap[:off]) // clean boundary
		}
	}
	return out
}

// expectedState walks a candidate log's valid record prefix and returns
// the session state its recovery must land on: the round of the last
// acknowledged transition and whether a proposed batch awaits its
// observation. A checkpoint record is a state assertion, not a
// transition — but after compaction it is the only carrier of the
// history it replaced, so it resets the walk to its round.
func expectedState(t *testing.T, data []byte) (recs []journal.Record, round int, pending bool) {
	t.Helper()
	recs, _, _ = journal.Scan(data)
	if len(recs) == 0 {
		return recs, 0, false
	}
	for _, rec := range recs[1:] {
		switch rec.Type {
		case journal.TypeProposed:
			round++
			pending = true
		case journal.TypeObserved:
			pending = false
		case journal.TypeCheckpoint:
			var ck journal.Checkpoint
			if err := json.Unmarshal(rec.Body, &ck); err != nil {
				t.Fatalf("checkpoint record in live log does not decode: %v", err)
			}
			round, pending = ck.Round, false
		}
	}
	return recs, round, pending
}

// TestCrashPointRecovery is the exhaustive crash-point harness: one
// journaled campaign per (workers, pool reuse, sampler version) combo is
// snapshotted after every acknowledged transition, the WAL is truncated
// at every record boundary and inside every record, and each truncation
// is booted like a post-SIGKILL restart. Recovery must never fail the
// boot, must land exactly on the state of the candidate's last
// acknowledged transition, and the recovered session driven forward with
// the scripted observations must propose batches byte-identical to an
// uninterrupted reference run.
func TestCrashPointRecovery(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, disableReuse := range []bool{false, true} {
			for _, sampler := range []int{1, 2} {
				name := fmt.Sprintf("workers=%d/reuse=%v/v%d", workers, !disableReuse, sampler)
				cfg := serve.Config{
					Dataset: "test", EtaFrac: 0.5, Epsilon: 0.5, Seed: 11,
					Workers: workers, DisablePoolReuse: disableReuse, SamplerVersion: sampler,
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					testCrashPoints(t, cfg)
				})
			}
		}
	}
}

func testCrashPoints(t *testing.T, cfg serve.Config) {
	reg := testRegistry(t)
	opts := []serve.ManagerOption{serve.WithCheckpointEvery(2)}

	// Uninterrupted reference: the batches every recovered session must
	// reproduce, plus the proposal after the last committed round.
	refMgr := serve.NewManager(reg, 0)
	defer refMgr.CloseAll()
	ref, err := refMgr.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refBatch := driveBatchOnlyRounds(t, ref, crashRounds)
	refNext, err := ref.NextBatch()
	if err != nil {
		t.Fatal(err)
	}

	// Live journaled run, snapshotting the WAL after every transition.
	dir := t.TempDir()
	mgr := serve.NewManager(reg, 0, append(opts, serve.WithJournalDir(dir))...)
	s, err := mgr.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID()
	wal := filepath.Join(dir, id+".wal")
	snapshot := func() []byte {
		data, err := os.ReadFile(wal)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	var snapshots [][]byte
	snapshots = append(snapshots, snapshot())
	for r := 1; r <= crashRounds; r++ {
		batch, err := s.NextBatch()
		if err != nil {
			t.Fatalf("round %d NextBatch: %v", r, err)
		}
		snapshots = append(snapshots, snapshot())
		if !slices.Equal(batch, refBatch[r]) {
			t.Fatalf("live round %d batch diverged from reference", r)
		}
		if _, err := s.Observe(batch); err != nil {
			t.Fatalf("round %d Observe: %v", r, err)
		}
		snapshots = append(snapshots, snapshot())
	}
	mgr.CloseAll() // releases resources without closed records, like a SIGKILL

	candidates := crashCandidates(t, snapshots)
	if len(candidates) < 2*crashRounds {
		t.Fatalf("only %d crash candidates enumerated", len(candidates))
	}
	for _, data := range candidates {
		recs, expRound, expPending := expectedState(t, data)
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, id+".wal"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		m := serve.NewManager(reg, 0, append(opts, serve.WithJournalDir(cdir))...)
		rep, err := m.Recover("")
		if err != nil {
			t.Fatalf("candidate %dB: boot failed: %v", len(data), err)
		}
		if len(recs) == 0 {
			// Nothing acknowledged survives: the log is removed or skipped,
			// never resurrected as an empty session.
			if rep.Recovered != 0 {
				t.Fatalf("candidate %dB: recovered %d sessions from an unreadable log", len(data), rep.Recovered)
			}
			m.CloseAll()
			continue
		}
		if rep.Recovered != 1 {
			t.Fatalf("candidate %dB: recovered %d sessions (want 1): %v", len(data), rep.Recovered, rep.Warnings)
		}
		rs, err := m.Session(id)
		if err != nil {
			t.Fatalf("candidate %dB: %v", len(data), err)
		}
		st := rs.Status()
		if st.Round != expRound || (len(st.Pending) > 0) != expPending {
			t.Fatalf("candidate %dB: recovered to round %d pending=%v, want round %d pending=%v",
				len(data), st.Round, len(st.Pending) > 0, expRound, expPending)
		}
		// Drive the recovered session to the reference horizon with the
		// scripted observations; every proposal must be byte-identical.
		if expPending {
			if !slices.Equal(st.Pending, refBatch[expRound]) {
				t.Fatalf("candidate %dB: pending batch at round %d diverged", len(data), expRound)
			}
			if _, err := rs.Observe(refBatch[expRound]); err != nil {
				t.Fatalf("candidate %dB: observing pending round %d: %v", len(data), expRound, err)
			}
		}
		for r := expRound + 1; r <= crashRounds; r++ {
			batch, err := rs.NextBatch()
			if err != nil {
				t.Fatalf("candidate %dB: round %d NextBatch: %v", len(data), r, err)
			}
			if !slices.Equal(batch, refBatch[r]) {
				t.Fatalf("candidate %dB: round %d batch diverged after recovery", len(data), r)
			}
			if _, err := rs.Observe(batch); err != nil {
				t.Fatalf("candidate %dB: round %d Observe: %v", len(data), r, err)
			}
		}
		got, err := rs.NextBatch()
		if err != nil {
			t.Fatalf("candidate %dB: final NextBatch: %v", len(data), err)
		}
		if !slices.Equal(got, refNext) {
			t.Fatalf("candidate %dB: final proposal diverged from uninterrupted run", len(data))
		}
		m.CloseAll()
	}
}
