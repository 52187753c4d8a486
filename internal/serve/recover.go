package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"asti/internal/journal"
)

// RecoveryReport summarizes one Recover call.
type RecoveryReport struct {
	// Recovered counts sessions rebuilt, verified and reopened.
	Recovered int
	// Closed counts logs ending in a closed record (deleted; the
	// campaigns ended deliberately).
	Closed int
	// Skipped counts logs that could not be replayed (corrupt created
	// record, replay divergence, unknown record types). Their files are
	// left on disk for inspection; each has a Warning explaining why.
	Skipped int
	// Rounds is the total number of proposals replayed (with checkpoints,
	// only the suffix past the newest trusted checkpoint is replayed, so
	// this stays bounded by the checkpoint interval).
	Rounds int
	// CheckpointRestores counts sessions that resumed from a trusted
	// checkpoint instead of replaying their full history.
	CheckpointRestores int
	// Warnings lists per-session anomalies: truncated torn tails,
	// skipped logs, replay mismatches. Recovery itself still succeeds —
	// a damaged log must never take the whole service down.
	Warnings []string
}

// Recover rebuilds the session table from a journal directory, to be
// called once on process startup before serving. dir may be empty when a
// journal is already attached (WithJournal / WithJournalDir); a non-empty
// dir opens and attaches that directory first.
//
// Each per-session log is replayed through the deterministic engine: the
// created record rebuilds the session exactly as Create did, then every
// journaled proposal is re-executed with NextBatch and checked
// byte-for-byte against the journaled seeds, and every journaled
// observation is re-committed with Observe. A session whose replay
// diverges (the dataset or binary changed under the journal) is skipped
// with a warning rather than resumed into a diverged campaign. Torn log
// tails are truncated (losing at most the record being appended when the
// process died); the session resumes from the last committed transition.
//
// Recovered sessions keep their ids; the manager's id counter advances
// past every id seen so new sessions never collide. The session limit is
// not enforced against recovered sessions — durability outranks the cap.
func (m *Manager) Recover(dir string) (*RecoveryReport, error) {
	st, jerr := m.store()
	if jerr != nil {
		return nil, jerr
	}
	if dir != "" {
		opened, err := journal.Open(dir)
		if err != nil {
			return nil, err
		}
		st = opened
		m.mu.Lock()
		m.journal = st
		m.mu.Unlock()
	}
	if st == nil {
		return nil, errors.New("serve: no journal attached (use WithJournalDir or pass dir)")
	}
	ids, err := st.Sessions()
	if err != nil {
		return nil, err
	}
	rep := &RecoveryReport{}
	for _, id := range ids {
		// Every id present in the directory — recovered, closed or skipped —
		// reserves its number, so freshly created sessions cannot collide
		// with a leftover log file.
		m.reserveID(id)
		m.recoverOne(st, id, rep)
	}
	return rep, nil
}

// recoverOne replays a single session log into the table, folding the
// outcome into rep. The log is inspected read-only first; the file is
// only modified (tail truncated, reopened for appending) once the
// session is certain to be recovered, so a skipped log stays on disk
// exactly as the crash left it.
func (m *Manager) recoverOne(st *journal.Store, id string, rep *RecoveryReport) {
	warnf := func(format string, args ...any) {
		rep.Warnings = append(rep.Warnings, fmt.Sprintf("session %s: ", id)+fmt.Sprintf(format, args...))
	}
	skip := func(format string, args ...any) {
		rep.Skipped++
		warnf(format, args...)
	}
	recs, tailErr, err := st.Load(id)
	if err != nil {
		skip("load: %v", err)
		return
	}
	if len(recs) == 0 {
		if tailErr != nil {
			// Not one record survives the scan: the created record itself is
			// damaged. Leave the file for inspection.
			skip("unreadable log (%v)", tailErr)
			return
		}
		// A crash between log creation and the created record's fsync: the
		// Create call was never acknowledged, so there is nothing to lose.
		if err := st.Remove(id); err != nil {
			warnf("removing empty log: %v", err)
		}
		rep.Skipped++
		warnf("empty log removed")
		return
	}
	if tailErr != nil {
		warnf("ignoring damaged tail: %v", tailErr)
	}
	// A closed record anywhere means the client ended the campaign for
	// good; the log is only still here because the file removal lost a
	// race with a crash.
	for _, rec := range recs {
		if rec.Type == journal.TypeClosed {
			if err := st.Remove(id); err != nil {
				warnf("removing closed log: %v", err)
			}
			rep.Closed++
			return
		}
	}
	s, rounds, fromCkpt, err := m.rebuild(recs, warnf)
	if err != nil {
		skip("%v", err)
		return
	}
	// The session is good: now truncate the damaged tail (if any) and
	// reopen the log for appending.
	res, err := st.Resume(id)
	if err != nil {
		s.release()
		skip("reopen: %v", err)
		return
	}
	if len(res.Records) != len(recs) {
		// The directory changed under us between Load and Resume.
		res.Writer.Close()
		s.release()
		skip("log changed during recovery")
		return
	}
	s.id = id
	s.attachJournal(res.Writer, st)
	m.mu.Lock()
	m.sessions[id] = s
	m.mu.Unlock()
	rep.Recovered++
	rep.Rounds += rounds
	if fromCkpt {
		rep.CheckpointRestores++
		m.add(CheckpointRestores, 1)
	}
}

// rebuild constructs a fresh session from a log's records — the created
// record resolves to a Config exactly as Create saw it, then the
// journaled history is replayed through the deterministic engine — and
// returns it with the number of rounds replayed and whether a trusted
// checkpoint shortcut the replay. It is the shared core of crash
// recovery (recoverOne) and idle reactivation (Manager.reactivate); the
// session comes back unjournaled and unregistered, with any partially
// built state released on failure.
//
// When the log carries a trusted checkpoint (digest chain intact,
// environment pins match), rebuild restores the snapshot and replays
// only the suffix past it — O(checkpoint interval) instead of O(rounds).
// Any doubt about the checkpoint — pin mismatch, restore failure, suffix
// divergence — falls back to a full replay from the created record,
// reported through warnf (nil for silent). The fallback is impossible
// only after compaction has dropped the prefix, in which case the full
// replay fails naturally and the caller skips the session.
func (m *Manager) rebuild(recs []journal.Record, warnf func(string, ...any)) (*Session, int, bool, error) {
	if warnf == nil {
		warnf = func(string, ...any) {}
	}
	if len(recs) == 0 || recs[0].Type != journal.TypeCreated {
		got := journal.Type(0)
		if len(recs) > 0 {
			got = recs[0].Type
		}
		return nil, 0, false, fmt.Errorf("log starts with %s, want created", got)
	}
	var created journal.Created
	if err := json.Unmarshal(recs[0].Body, &created); err != nil {
		return nil, 0, false, fmt.Errorf("created record: %w", err)
	}
	cfg, err := configFromRecord(created)
	if err != nil {
		return nil, 0, false, err
	}
	idx, ck, found, end := selectCheckpoint(recs)
	if found {
		s, rounds, err := m.rebuildFromCheckpoint(cfg, recs, idx, ck)
		if err == nil {
			s.histDigest = end
			return s, rounds, true, nil
		}
		warnf("checkpoint at round %d unusable (%v); falling back to full replay", ck.Round, err)
	}
	s, err := m.buildSession(cfg)
	if err != nil {
		return nil, 0, false, fmt.Errorf("rebuild: %w", err)
	}
	rounds, err := replay(s, recs[1:])
	if err != nil {
		s.release()
		return nil, 0, false, fmt.Errorf("replay: %w", err)
	}
	s.histDigest = end
	return s, rounds, false, nil
}

// rebuildFromCheckpoint restores a session from a trusted checkpoint at
// recs[idx] and replays only the records after it. The environment pins
// carried by the checkpoint — sampler contract version, dataset
// fingerprint, pool-reuse mode (checked inside RestoreCheckpoint) — must
// match the session this manager would build today: a snapshot taken
// under a different environment is internally consistent but describes a
// different campaign, and replaying the suffix would diverge in ways a
// short suffix may not expose.
func (m *Manager) rebuildFromCheckpoint(cfg Config, recs []journal.Record, idx int, ck journal.Checkpoint) (*Session, int, error) {
	s, err := m.buildSession(cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("rebuild: %w", err)
	}
	if ck.SamplerVersion != s.samplerVer {
		s.release()
		return nil, 0, fmt.Errorf("sampler version drift: checkpoint has v%d, runtime resolves v%d", ck.SamplerVersion, s.samplerVer)
	}
	if ck.GraphSig != s.graphSig {
		s.release()
		return nil, 0, fmt.Errorf("dataset drift: checkpoint graph %016x, loaded graph %016x", ck.GraphSig, s.graphSig)
	}
	if err := s.applyCheckpoint(ck); err != nil {
		s.release()
		return nil, 0, err
	}
	rounds, err := replay(s, recs[idx+1:])
	if err != nil {
		s.release()
		return nil, 0, fmt.Errorf("suffix replay: %w", err)
	}
	return s, rounds, nil
}

// replay re-executes a session's journaled transitions against a freshly
// built session, verifying each replayed proposal byte-for-byte against
// the journaled one (the determinism contract makes the journal a
// checksum of the environment: same dataset, same binary → same batches).
func replay(s *Session, recs []journal.Record) (rounds int, err error) {
	// Replayed transitions are reconstructions, not client work: keep
	// them out of the manager's load-facing throughput counters.
	s.replaying = true
	defer func() { s.replaying = false }()
	for _, rec := range recs {
		switch rec.Type {
		case journal.TypeProposed:
			var p journal.Proposed
			if err := json.Unmarshal(rec.Body, &p); err != nil {
				return rounds, fmt.Errorf("proposed record: %w", err)
			}
			prop, err := s.Propose()
			if err != nil {
				return rounds, fmt.Errorf("round %d: %w", p.Round, err)
			}
			if prop.Round != p.Round || !slices.Equal(prop.Seeds, p.Seeds) {
				return rounds, fmt.Errorf(
					"round %d diverged: replayed %v, journal has round %d %v (dataset or binary changed?)",
					prop.Round, prop.Seeds, p.Round, p.Seeds)
			}
			rounds++
		case journal.TypeObserved:
			var o journal.Observed
			if err := json.Unmarshal(rec.Body, &o); err != nil {
				return rounds, fmt.Errorf("observed record: %w", err)
			}
			if _, err := s.Observe(o.Activated); err != nil {
				return rounds, fmt.Errorf("round %d observation: %w", o.Round, err)
			}
		case journal.TypeCheckpoint:
			// Checkpoints are derived state, not transitions: a replay that
			// reached this point has already reconstructed everything the
			// snapshot holds, so it is skipped (and re-verified only by the
			// digest chain in selectCheckpoint).
		default:
			return rounds, fmt.Errorf("unknown record type %s", rec.Type)
		}
	}
	return rounds, nil
}

// reserveID advances the id counter past a recovered session id.
func (m *Manager) reserveID(id string) {
	n, err := strconv.ParseUint(strings.TrimPrefix(id, "s"), 10, 64)
	if err != nil || !strings.HasPrefix(id, "s") {
		return
	}
	m.mu.Lock()
	if n > m.nextID {
		m.nextID = n
	}
	m.mu.Unlock()
}
