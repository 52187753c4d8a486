package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"asti/internal/journal"
)

// checkpointsEquivalent compares the replay-derivable state of two
// checkpoints: everything a restored session's behavior depends on.
// Seq and HistoryDigest are positional bookkeeping, and
// Policy.Fallbacks is a speed mode that legitimately differs between a
// live run and its replay (a replay never re-experiences the live run's
// reuse fallbacks) — none of the three affect proposed batches.
func checkpointsEquivalent(a, b journal.Checkpoint) bool {
	if a.Round != b.Round || a.Done != b.Done || a.Rng != b.Rng ||
		a.PoolDigest != b.PoolDigest ||
		a.SamplerVersion != b.SamplerVersion || a.GraphSig != b.GraphSig {
		return false
	}
	pa, pb := a.Policy, b.Policy
	if pa.RunSeed != pb.RunSeed || pa.LastRound != pb.LastRound ||
		pa.LastNi != pb.LastNi || pa.LastPool != pb.LastPool ||
		pa.ReusePool != pb.ReusePool {
		return false
	}
	if !slices.Equal(a.Active, b.Active) || !slices.Equal(a.Delta, b.Delta) ||
		!slices.Equal(a.Seeds, b.Seeds) || !slices.Equal(a.Pending, b.Pending) ||
		len(a.Rounds) != len(b.Rounds) {
		return false
	}
	for i := range a.Rounds {
		if !slices.Equal(a.Rounds[i].Seeds, b.Rounds[i].Seeds) ||
			a.Rounds[i].Marginal != b.Rounds[i].Marginal ||
			a.Rounds[i].NiBefore != b.Rounds[i].NiBefore ||
			a.Rounds[i].EtaIBefore != b.Rounds[i].EtaIBefore {
			return false
		}
	}
	return true
}

// snapshot is exportCheckpointLocked taking the session lock.
func snapshot(s *Session) journal.Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	ck, _ := s.exportCheckpointLocked()
	return ck
}

// AuditCheckpoints checks every checkpoint in a session log against the
// history it summarizes: the replay verification the write path does not
// run. One session replays the whole log from its created record, and
// at each checkpoint
//
//   - the decoded snapshot must be equivalent to that full replay's state,
//     pool fingerprint included (export and codec agree with replay);
//   - a session restored from the snapshot the way recovery restores it
//     (rebuildFromCheckpoint, environment pins included) must export it
//     back, pending batch and pool digest included (restore inverts
//     export);
//   - the session restored from the previous checkpoint, once it has
//     replayed a proposal from the records in between, must match the
//     full replay too (a restored session continues exactly, and its
//     regenerated pool converges).
//
// The records after the last checkpoint are checked the same way at the
// end of the log. It returns how many checkpoints it audited. The log
// must keep its full history (compaction off): a dropped prefix cannot
// be replayed.
func (m *Manager) AuditCheckpoints(recs []journal.Record) (int, error) {
	if len(recs) == 0 || recs[0].Type != journal.TypeCreated {
		return 0, errors.New("log does not start with a created record")
	}
	var created journal.Created
	if err := json.Unmarshal(recs[0].Body, &created); err != nil {
		return 0, fmt.Errorf("created record: %w", err)
	}
	cfg, err := configFromRecord(created)
	if err != nil {
		return 0, err
	}
	full, err := m.buildSession(cfg)
	if err != nil {
		return 0, err
	}
	defer full.release()
	// restored is the session rebuilt from the newest checkpoint so far;
	// stepped says it has replayed a proposal since (only then has it
	// regenerated a pool of its own to compare).
	var restored *Session
	stepped := false
	defer func() {
		if restored != nil {
			restored.release()
		}
	}()
	audited := 0
	for i := 1; i < len(recs) && recs[i].Type != journal.TypeClosed; i++ {
		rec := recs[i]
		if rec.Type != journal.TypeCheckpoint {
			if _, err := replay(full, []journal.Record{rec}); err != nil {
				return audited, fmt.Errorf("record %d: full replay: %w", i, err)
			}
			if restored != nil {
				if _, err := replay(restored, []journal.Record{rec}); err != nil {
					return audited, fmt.Errorf("record %d: replay after restore: %w", i, err)
				}
				stepped = stepped || rec.Type == journal.TypeProposed
			}
			continue
		}
		var ck journal.Checkpoint
		if err := json.Unmarshal(rec.Body, &ck); err != nil {
			return audited, fmt.Errorf("record %d: %w", i, err)
		}
		want := snapshot(full)
		if !checkpointsEquivalent(ck, want) {
			return audited, fmt.Errorf("record %d: round %d checkpoint differs from the full replay of its history", i, ck.Round)
		}
		if stepped && !checkpointsEquivalent(snapshot(restored), want) {
			return audited, fmt.Errorf("record %d: session restored from the previous checkpoint drifted from full replay by round %d", i, ck.Round)
		}
		if restored != nil {
			restored.release()
		}
		// recs[:i+1] leaves the restore no suffix to replay.
		if restored, _, err = m.rebuildFromCheckpoint(cfg, recs[:i+1], i, ck); err != nil {
			return audited, fmt.Errorf("record %d: restore: %w", i, err)
		}
		stepped = false
		if !checkpointsEquivalent(snapshot(restored), ck) {
			return audited, fmt.Errorf("record %d: round %d checkpoint does not survive restore", i, ck.Round)
		}
		audited++
	}
	if stepped && !checkpointsEquivalent(snapshot(restored), snapshot(full)) {
		return audited, errors.New("session restored from the last checkpoint drifted from full replay by the end of the log")
	}
	return audited, nil
}

// Register adds a session built with NewSession to m's table under id,
// the way Create registers the sessions it builds.
func Register(m *Manager, s *Session, id string) {
	s.mu.Lock()
	s.id, s.mgr = id, m
	s.publishLocked()
	s.mu.Unlock()
	m.mu.Lock()
	m.sessions[id] = s
	m.mu.Unlock()
}

// GraphFingerprint is the graph signature checkpoints pin.
var GraphFingerprint = graphFingerprint
