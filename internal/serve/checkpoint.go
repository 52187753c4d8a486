package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"

	"asti/internal/adaptive"
	"asti/internal/bitset"
	"asti/internal/graph"
	"asti/internal/journal"
	"asti/internal/trim"
)

// DefaultCheckpointEvery is the checkpoint interval a journaled manager
// uses unless WithCheckpointEvery overrides it: after every 8 committed
// rounds the session snapshots its state into the log, so recovery
// replays at most 8 rounds instead of the whole history (reactivation
// restores the checkpoint passivation wrote and replays none).
const DefaultCheckpointEvery = 8

// policyCheckpointer is the contract a proposal policy must meet for its
// session to checkpoint: export/restore of the cross-round continuation
// state plus a pool fingerprint. Every built-in policy (trim.Policy,
// which also backs AdaptIM) implements it; sessions whose policy does
// not simply never checkpoint — the journal stays a plain replay log.
type policyCheckpointer interface {
	ExportCheckpoint() trim.CheckpointState
	RestoreCheckpoint(trim.CheckpointState) error
	PoolFingerprint() uint64
}

// exportCheckpointLocked snapshots the session's resumable state as a
// journal checkpoint payload (false if the policy cannot checkpoint).
// Callers hold s.mu.
func (s *Session) exportCheckpointLocked() (journal.Checkpoint, bool) {
	pc, ok := s.policy.(policyCheckpointer)
	if !ok {
		return journal.Checkpoint{}, false
	}
	cs := pc.ExportCheckpoint()
	n := s.g.N()
	active := make([]int32, 0, int(n)-len(s.inactive))
	for v := int32(0); v < n; v++ {
		if s.active.Get(v) {
			active = append(active, v)
		}
	}
	rounds := make([]journal.CheckpointRound, len(s.rounds))
	for i, rt := range s.rounds {
		rounds[i] = journal.CheckpointRound{
			Seeds: rt.Seeds, Marginal: rt.Marginal,
			NiBefore: rt.NiBefore, EtaIBefore: rt.EtaIBefore,
		}
	}
	digest := pc.PoolFingerprint()
	if digest == 0 {
		// A restored policy has no pool until its first selection
		// regenerates it; until then its pool is the one the restored
		// snapshot fingerprinted.
		digest = s.restoredPool
	}
	return journal.Checkpoint{
		Round:   len(s.rounds), // committed rounds: a pending batch's round is not one yet
		Done:    s.phase == PhaseDone,
		Seq:     s.ckpts + 1,
		Active:  active,
		Delta:   append([]int32(nil), s.delta...),
		Seeds:   append([]int32(nil), s.seeds...),
		Pending: slices.Clone(s.pending),
		Rounds:  rounds,
		Rng:     s.src.State(),
		Policy: journal.PolicyCheckpoint{
			RunSeed: cs.RunSeed, LastRound: cs.LastRound, LastNi: cs.LastNi,
			LastPool: cs.LastPool, Fallbacks: cs.Fallbacks, ReusePool: cs.ReusePool,
		},
		PoolDigest:     digest,
		SamplerVersion: s.samplerVer,
		GraphSig:       s.graphSig,
		HistoryDigest:  s.histDigest,
	}, true
}

// applyCheckpoint rewinds a freshly built (never stepped) session to a
// checkpoint's state — waiting for the pending batch's observation if
// the snapshot carries one. It validates the snapshot's internal
// consistency — a checkpoint whose digest chain held can still be
// semantically damaged (a bit flip with a fixed-up CRC) — and leaves the
// session untouched up to the first failure; callers discard the
// session and fall back to full replay on any error. Environment pins
// (sampler version, graph signature) are the caller's to check: they
// need session fields this method is in the middle of establishing.
func (s *Session) applyCheckpoint(ck journal.Checkpoint) error {
	pc, ok := s.policy.(policyCheckpointer)
	if !ok {
		return errors.New("policy does not support checkpoints")
	}
	if ck.Round < 0 || (ck.Round == 0 && len(ck.Pending) == 0) {
		return fmt.Errorf("checkpoint round %d", ck.Round)
	}
	if len(ck.Rounds) != ck.Round {
		return fmt.Errorf("checkpoint carries %d round traces for round %d", len(ck.Rounds), ck.Round)
	}
	n := s.g.N()
	active := bitset.New(int(n))
	prev := int32(-1)
	for _, v := range ck.Active {
		if v <= prev || v >= n {
			return fmt.Errorf("checkpoint active list invalid at node %d", v)
		}
		active.Set(v)
		prev = v
	}
	for _, v := range ck.Delta {
		if v < 0 || v >= n {
			return fmt.Errorf("checkpoint delta node %d outside [0, n=%d)", v, n)
		}
	}
	if len(ck.Pending) > 0 {
		if ck.Done {
			return errors.New("checkpoint of a finished campaign carries a pending batch")
		}
		if err := adaptive.ValidateBatch(s.g, active, ck.Pending); err != nil {
			return fmt.Errorf("checkpoint pending batch: %w", err)
		}
	}
	if activated := int64(len(ck.Active)); ck.Done != (activated >= s.eta) {
		return fmt.Errorf("checkpoint done flag inconsistent with %d active nodes (eta %d)", activated, s.eta)
	}
	if err := pc.RestoreCheckpoint(trim.CheckpointState{
		RunSeed: ck.Policy.RunSeed, LastRound: ck.Policy.LastRound,
		LastNi: ck.Policy.LastNi, LastPool: ck.Policy.LastPool,
		Fallbacks: ck.Policy.Fallbacks, ReusePool: ck.Policy.ReusePool,
	}); err != nil {
		return err
	}
	s.active = active
	inactive := make([]int32, 0, int(n)-len(ck.Active))
	for v := int32(0); v < n; v++ {
		if !active.Get(v) {
			inactive = append(inactive, v)
		}
	}
	s.inactive = inactive
	s.delta = append([]int32(nil), ck.Delta...)
	s.seeds = append([]int32(nil), ck.Seeds...)
	s.rounds = make([]adaptive.RoundTrace, len(ck.Rounds))
	for i, rt := range ck.Rounds {
		s.rounds[i] = adaptive.RoundTrace{
			Seeds:    append([]int32(nil), rt.Seeds...),
			Marginal: rt.Marginal, NiBefore: rt.NiBefore, EtaIBefore: rt.EtaIBefore,
		}
	}
	s.round = ck.Round
	s.phase = PhasePropose
	if ck.Done {
		s.phase = PhaseDone
	}
	if len(ck.Pending) > 0 {
		s.round++
		s.pending = slices.Clone(ck.Pending)
		s.phase = PhaseObserve
	}
	s.src.SetState(ck.Rng)
	s.restoredPool = ck.PoolDigest
	s.ckpts = ck.Seq
	s.lastCkptRound = ck.Round
	s.ckptPending = len(ck.Pending) > 0
	return nil
}

// checkpointCurrentLocked reports whether the newest checkpoint — or,
// before the first, the created record — already describes the
// session's state: no round committed and no batch proposed since.
// Callers hold s.mu.
func (s *Session) checkpointCurrentLocked() bool {
	return s.lastCkptRound == len(s.rounds) && s.ckptPending == (s.pending != nil)
}

// checkpointLocked appends one checkpoint for the session's current
// state and, if compaction is on, truncates the log past it. Callers
// hold s.mu and have checked the schedule (interval boundary, campaign
// completion or passivation; journal armed).
//
// Writing a checkpoint is encode plus append, under the session lock.
// That export, codec and restore agree with a replay of the log is a
// property of the code, not of one campaign, so the test suite checks it
// (the audit sweep in checkpoint_test.go, the crash-point harness, the
// corruption matrix) rather than each write replaying the log. Restore
// keeps what guards against damage and drift: the digest chain, the
// environment pins and applyCheckpoint's validation.
//
// A snapshot that fails to encode (an oversized record) is counted and
// skipped; the session continues on plain replay, which is always
// correct. Only a failed append (or a failed log reopen after
// compaction) is an error: those break the write-ahead contract and go
// to the session's durability policy like any other append failure.
func (s *Session) checkpointLocked() error {
	ck, ok := s.exportCheckpointLocked()
	if !ok {
		return nil
	}
	frame, err := journal.Marshal(journal.TypeCheckpoint, ck)
	if err != nil {
		s.mgr.add(CheckpointFailures, 1)
		//asm:errclass-ok by design a snapshot that fails to encode is counted and skipped; plain replay stays correct
		return nil
	}
	if err := s.commitFrameLocked(frame); err != nil {
		return err
	}
	if s.jw == nil {
		// The degrade policy fired inside the commit: the checkpoint was
		// not written and the session now serves non-durably.
		return nil
	}
	s.ckpts = ck.Seq
	s.lastCkptRound = ck.Round
	s.ckptPending = len(ck.Pending) > 0
	s.mgr.add(Checkpoints, 1)
	if s.compactOn {
		return s.compactLocked()
	}
	return nil
}

// compactLocked truncates the session's log past the checkpoint just
// written: the writer is closed (Compact must own the file), the log
// rewritten as [created][checkpoint], and a fresh writer resumed at its
// end. Callers hold s.mu. A failed rewrite is harmless (the log is
// intact either way — rename is atomic) but a failed reopen leaves the
// session without a writer, which the durability policy handles like an
// append failure.
func (s *Session) compactLocked() error {
	if s.store == nil || s.id == "" || s.jw == nil {
		return nil
	}
	//asm:errclass-ok Compact must own the file next; the replaced writer's close error is uninformative (a failed reopen below is the real failure)
	_ = s.jw.Close()
	s.jw = nil
	removed, cerr := s.store.Compact(s.id)
	res, rerr := s.store.Resume(s.id)
	if rerr != nil {
		return s.journalFailureLocked(fmt.Errorf("serve: reopening log after compaction: %w", rerr))
	}
	s.jw = res.Writer
	if cerr == nil && removed > 0 {
		s.mgr.add(Compactions, 1)
		s.mgr.add(CompactedBytes, removed)
	}
	return nil
}

// graphSig returns the manager's cached structural fingerprint for g,
// computing it on first use (one O(m) pass per distinct graph per
// process). Checkpoints pin it so that state snapshotted on one dataset
// can never restore onto different graph bytes that happen to share the
// dataset name.
func (m *Manager) graphSig(g *graph.Graph) uint64 {
	m.mu.Lock()
	sig, ok := m.graphSigs[g]
	m.mu.Unlock()
	if ok {
		return sig
	}
	sig = graphFingerprint(g)
	m.mu.Lock()
	if m.graphSigs == nil {
		m.graphSigs = map[*graph.Graph]uint64{}
	}
	m.graphSigs[g] = sig
	m.mu.Unlock()
	return sig
}

// graphFingerprint digests a graph's sampled structure: node/edge
// counts, direction convention, and the fused in-adjacency stream the
// sampler actually walks (offsets, sources, probability bits). FNV-1a
// over 64-bit words, same scheme as rrset.Collection.Fingerprint.
func graphFingerprint(g *graph.Graph) uint64 {
	const (
		offset64 = 0xcbf29ce484222325
		prime64  = 0x100000001b3
	)
	mix := func(h, x uint64) uint64 { return (h ^ x) * prime64 }
	h := uint64(offset64)
	h = mix(h, uint64(g.N()))
	h = mix(h, uint64(g.M()))
	if g.Directed() {
		h = mix(h, 1)
	} else {
		h = mix(h, 2)
	}
	off, edges := g.FusedIn()
	for _, o := range off {
		h = mix(h, uint64(o))
	}
	for _, e := range edges {
		h = mix(h, uint64(uint32(e.Src))<<32|uint64(math.Float32bits(e.P)))
	}
	return h
}

// selectCheckpoint walks a log once, maintaining the record digest
// chain, and returns the newest checkpoint whose HistoryDigest matches
// the chain at its position (plus the chain over the whole log, which
// becomes the recovered session's running digest). A checkpoint at
// record index 1 is the base a compaction left behind — the history it
// digests was dropped, and Compact only ever runs right after the
// session appended the checkpoint it keeps — so it restarts the chain
// from its stored digest instead of being checked against the (empty)
// prefix. Checkpoints that fail to decode or to match the chain are
// ignored here and skipped by replay; semantic validation of the
// selected checkpoint happens at restore.
func selectCheckpoint(recs []journal.Record) (idx int, ck journal.Checkpoint, found bool, end uint32) {
	idx = -1
	var d uint32
	for i, rec := range recs {
		if rec.Type == journal.TypeCheckpoint {
			var c journal.Checkpoint
			if err := json.Unmarshal(rec.Body, &c); err == nil {
				if i == 1 {
					d = c.HistoryDigest
					idx, ck, found = i, c, true
				} else if c.HistoryDigest == d {
					idx, ck, found = i, c, true
				}
			}
		}
		d = journal.DigestRecord(d, rec.Type, rec.Body)
	}
	return idx, ck, found, d
}
