package journal

import "hash/crc32"

// Checkpoint is the payload of a checkpoint record: the full resumable
// state of a session at one point in its log, so a loader can restore it
// and replay only the records that follow instead of the whole history.
//
// A checkpoint is trusted only when two independent pins both hold:
//
//   - HistoryDigest chains the checkpoint to its position: it must equal
//     the CRC32-C chain over every record payload preceding it in the
//     log (DigestRecord). A checkpoint pasted into a different history —
//     or left dangling by a partial rewrite — fails the chain and is
//     ignored.
//   - The environment pins (SamplerVersion, GraphSig, Policy.ReusePool)
//     must match the session the loader rebuilt from the created record.
//     State snapshotted under one sampler contract or dataset must never
//     seed a replay under another.
//
// Any failed pin demotes the loader to full replay (the records are
// still there unless the log was compacted past the checkpoint); a
// checkpoint is an accelerator, never an authority. That a snapshot
// equals the state a replay of its history computes is a property of
// the writer's code, checked by its tests, and not re-checked per write.
type Checkpoint struct {
	// Round is the last committed (observed) round the snapshot covers
	// (0 only for a snapshot taken with the first batch pending).
	Round int `json:"round"`
	// Done records that the campaign reached η at this round.
	Done bool `json:"done,omitempty"`
	// Seq numbers the session's checkpoints (1-based) for reporting.
	Seq int `json:"seq"`
	// Active lists the active node ids, ascending.
	Active []int32 `json:"active"`
	// Delta lists the nodes the round's observation newly activated (the
	// next round's pool-reuse input).
	Delta []int32 `json:"delta,omitempty"`
	// Seeds is the committed seed sequence, in commit order.
	Seeds []int32 `json:"seeds,omitempty"`
	// Pending is the batch proposed for round Round+1 and not yet
	// observed: a session parked between a proposal and its observation
	// is snapshotted with it (and with the policy state its selection
	// left), and restores waiting for that observation. Omitted
	// otherwise, so snapshots without one encode as they always did.
	Pending []int32 `json:"pending,omitempty"`
	// Rounds carries the per-round traces (reporting state; replay past
	// the checkpoint appends to it).
	Rounds []CheckpointRound `json:"rounds,omitempty"`
	// Rng is the session RNG's xoshiro256++ position.
	Rng [4]uint64 `json:"rng"`
	// Policy is the proposal policy's continuation state.
	Policy PolicyCheckpoint `json:"policy"`
	// PoolDigest fingerprints the policy's sampling pool at snapshot
	// time (rrset.Collection.Fingerprint); a diagnostic cross-check that
	// a restored session's regenerated pool converges to it.
	PoolDigest uint64 `json:"pool_digest,omitempty"`
	// SamplerVersion pins the sampler stream contract (environment pin).
	SamplerVersion int `json:"sampler_version"`
	// GraphSig fingerprints the dataset's in-memory edge structure
	// (environment pin): state snapshotted on one graph must not restore
	// onto another even if the dataset name matches.
	GraphSig uint64 `json:"graph_sig"`
	// HistoryDigest is the CRC32-C chain over every record payload
	// preceding this checkpoint in the log (position pin; see above).
	HistoryDigest uint32 `json:"history_digest"`
}

// CheckpointRound is one per-round trace inside a checkpoint, mirroring
// adaptive.RoundTrace.
type CheckpointRound struct {
	// Seeds is the batch committed this round.
	Seeds []int32 `json:"seeds"`
	// Marginal is the round's realized marginal spread.
	Marginal int64 `json:"marginal"`
	// NiBefore / EtaIBefore snapshot the residual the batch was selected
	// in.
	NiBefore   int64 `json:"ni_before"`
	EtaIBefore int64 `json:"eta_i_before"`
}

// PolicyCheckpoint is the proposal policy's continuation state inside a
// checkpoint, mirroring trim.CheckpointState (the journal stays free of
// algorithm-package imports; the serve layer maps between the two).
type PolicyCheckpoint struct {
	// RunSeed is the run's pool seed.
	RunSeed uint64 `json:"run_seed"`
	// LastRound / LastNi / LastPool are the policy's round-boundary,
	// delta-validation and warm-start anchors.
	LastRound int   `json:"last_round"`
	LastNi    int64 `json:"last_ni"`
	LastPool  int64 `json:"last_pool"`
	// Fallbacks is the consecutive full-regeneration strike count (a
	// speed mode, not part of the replay-equivalence check).
	Fallbacks int `json:"fallbacks,omitempty"`
	// ReusePool records the policy's reuse mode (environment pin).
	ReusePool bool `json:"reuse_pool,omitempty"`
}

// DigestRecord folds one record (type byte + body) into a running
// CRC32-C history digest. Chaining every record payload in log order
// yields the digest a checkpoint must carry in HistoryDigest for the
// records preceding it; writer and loader compute the same chain from
// their respective views of the log.
func DigestRecord(d uint32, t Type, body []byte) uint32 {
	d = crc32.Update(d, castagnoli, []byte{byte(t)})
	return crc32.Update(d, castagnoli, body)
}

// DigestFrame is DigestRecord over an already-framed record (the writer
// side folds the frame it just appended without re-encoding it).
func DigestFrame(d uint32, frame []byte) uint32 {
	if len(frame) <= headerLen {
		return d
	}
	return crc32.Update(d, castagnoli, frame[headerLen:])
}
