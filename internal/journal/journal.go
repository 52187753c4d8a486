// Package journal is the write-ahead log behind durable adaptive-seeding
// sessions: one append-only file per session, fsynced on every commit, so
// a serving process killed mid-campaign can rebuild its session table by
// replaying each log through the deterministic engine.
//
// The log is not a state snapshot. PRs 1–3 hardened a determinism
// contract — per-session seed, position-stable sampling, reuse-invisible
// batches — under which a session's entire state is a pure function of
// (dataset, policy config, seed, observation history). The journal
// therefore records that function's inputs, four record kinds:
//
//	created   the session's full Config (dataset, policy, model, seed, …)
//	proposed  one NextBatch result: round number and the proposed seeds
//	observed  one Observe call: the activated-node list fed back
//	closed    the client closed the session for good
//
// Replay re-runs NextBatch/Observe against a fresh session built from the
// created record; the proposed records double as a checksum — if a
// replayed batch differs from the journaled one, the environment changed
// (different dataset bytes, different binary) and recovery skips the
// session instead of silently resuming a diverged campaign.
//
// A fifth kind, checkpoint, is a pure accelerator over that contract: a
// periodic snapshot of the state the replay would compute, pinned to its
// position in the history by a chained digest (see Checkpoint). That a
// snapshot equals what a replay computes is checked by the test suite's
// checkpoint audit, not when the snapshot is written. Loaders
// replay only the records past the newest trusted checkpoint and fall
// back to full replay whenever a checkpoint cannot be trusted — a log
// with every checkpoint ignored replays exactly as before. Store.Compact
// drops the history a checkpoint makes redundant, bounding a log's disk
// size by the checkpoint interval instead of the campaign length.
//
// # Framing
//
// Each record is framed as
//
//	[4-byte little-endian payload length][4-byte CRC32-C of payload][payload]
//
// where the payload is one type byte followed by a JSON body. The CRC
// covers the whole payload. A reader stops at the first frame that does
// not check out and reports how many bytes were valid; Store.Resume
// truncates the file back to that prefix, so a torn tail (the crash hit
// mid-append) costs at most the record being written. A corrupt frame in
// the middle of a file (bit rot) loses the suffix — the best any
// sequential log can do — and recovery of the surviving prefix proceeds
// the same way.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
)

// Type tags a journal record.
type Type byte

// The four record kinds of a session log, in lifecycle order.
const (
	// TypeCreated is the first record of every log: the session Config.
	TypeCreated Type = 1
	// TypeProposed logs one NextBatch proposal (round + seeds).
	TypeProposed Type = 2
	// TypeObserved logs one Observe call (round + activated nodes).
	TypeObserved Type = 3
	// TypeClosed marks a deliberately closed session; recovery skips it.
	TypeClosed Type = 4
	// TypeCheckpoint snapshots the session state replay would reach at
	// this point in the log (see Checkpoint). Loaders that do not trust a
	// checkpoint skip the record and replay through it.
	TypeCheckpoint Type = 5
)

// String returns the record kind's name.
func (t Type) String() string {
	switch t {
	case TypeCreated:
		return "created"
	case TypeProposed:
		return "proposed"
	case TypeObserved:
		return "observed"
	case TypeClosed:
		return "closed"
	case TypeCheckpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("Type(%d)", byte(t))
	}
}

// Created is the payload of the first record: everything needed to
// rebuild the session's policy and replay its history. It mirrors
// serve.Config with the diffusion model flattened to its wire name, so
// logs stay readable with nothing but a JSON decoder.
type Created struct {
	// Dataset is the registry name of the campaign graph.
	Dataset string `json:"dataset"`
	// Policy is the policy wire name ("" = ASTI).
	Policy string `json:"policy,omitempty"`
	// Model is the diffusion model name ("" = IC).
	Model string `json:"model,omitempty"`
	// Eta is the absolute threshold η (0 = EtaFrac applies).
	Eta int64 `json:"eta,omitempty"`
	// EtaFrac is the threshold as a fraction of n.
	EtaFrac float64 `json:"eta_frac,omitempty"`
	// Epsilon is the approximation slack ε.
	Epsilon float64 `json:"epsilon,omitempty"`
	// Workers sizes the sampling-engine pool (speed only).
	Workers int `json:"workers,omitempty"`
	// MaxSetsPerRound optionally caps the per-round sample pool.
	MaxSetsPerRound int64 `json:"max_sets_per_round,omitempty"`
	// DisablePoolReuse turns off cross-round pool reuse (speed only).
	DisablePoolReuse bool `json:"disable_pool_reuse,omitempty"`
	// SamplerVersion pins the sampler stream contract the session was
	// created under; replay must run the same version to reproduce the
	// journaled proposals byte-for-byte. Create always records a resolved
	// (non-zero) version; logs written before versioning existed carry no
	// field and decode to 0, which recovery maps to version 1 — the only
	// contract that existed then — so old WALs keep replaying exactly
	// even after the default moves on.
	SamplerVersion int `json:"sampler_version,omitempty"`
	// Seed fixes the session's sampling randomness.
	Seed uint64 `json:"seed"`
}

// Proposed is the payload of one NextBatch proposal. Seeds are stored in
// full so replay can verify the recovered engine reproduces them.
type Proposed struct {
	// Round is the 1-based round of the proposal.
	Round int `json:"round"`
	// Seeds is the proposed batch.
	Seeds []int32 `json:"seeds"`
}

// Observed is the payload of one Observe call: the activated list exactly
// as the client sent it, the session's only nondeterministic input.
type Observed struct {
	// Round is the 1-based round the observation commits.
	Round int `json:"round"`
	// Activated is the client-reported activated-node list.
	Activated []int32 `json:"activated"`
}

// Record is one decoded journal entry: its kind and raw JSON body.
// Decode the body with the payload type matching Type (Created, Proposed,
// Observed; closed records have an empty body).
type Record struct {
	// Type is the record kind.
	Type Type
	// Body is the record's JSON payload (nil for closed records).
	Body json.RawMessage
}

// castagnoli is the CRC32-C table shared by writer and reader.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// headerLen is the frame header size: payload length + CRC.
const headerLen = 8

// maxPayload caps a frame's payload length, enforced symmetrically: the
// reader treats frames claiming more as corrupt rather than trusting
// them with an allocation (a bit-flipped length field must not ask for
// gigabytes), and Marshal refuses to produce them — an oversized record
// must fail at commit time, when the caller can still report an error,
// not at recovery time, when rejecting it would silently roll back an
// acknowledged transition.
const maxPayload = 64 << 20

// appendFrame appends the framed record (header + type byte + body) to
// buf and returns the extended slice.
func appendFrame(buf []byte, t Type, body []byte) []byte {
	payload := make([]byte, 0, 1+len(body))
	payload = append(payload, byte(t))
	payload = append(payload, body...)
	var hdr [headerLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// RawFrame frames a record with a verbatim (already encoded) body.
// Marshal is the JSON-encoding convenience over it.
func RawFrame(t Type, body []byte) []byte {
	return appendFrame(nil, t, body)
}

// Marshal frames one record (type byte + JSON-encoded body v) for
// appending to a log. A nil v (closed records) produces an empty body.
func Marshal(t Type, v any) ([]byte, error) {
	var body []byte
	if v != nil {
		var err error
		body, err = json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("journal: encode %s: %w", t, err)
		}
	}
	if 1+len(body) > maxPayload {
		return nil, fmt.Errorf("journal: %s record payload %d bytes exceeds the %d-byte frame limit", t, 1+len(body), maxPayload)
	}
	return appendFrame(nil, t, body), nil
}

// Scan decodes records from data until the first frame that fails to
// check out, returning the decoded prefix, the number of valid bytes
// consumed, and a description of what stopped the scan (nil if the data
// ended exactly on a frame boundary).
//
// The returned error classifies the tail, it does not invalidate the
// prefix: io.ErrUnexpectedEOF means a torn tail (the file ends inside a
// frame — the crash hit mid-append), any other error means the frame at
// offset `valid` is corrupt (CRC mismatch, oversized length). Callers
// that own the file truncate it to `valid` and move on.
func Scan(data []byte) (recs []Record, valid int, err error) {
	off := 0
	for off < len(data) {
		if len(data)-off < headerLen {
			return recs, off, io.ErrUnexpectedEOF
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n < 1 || n > maxPayload {
			return recs, off, fmt.Errorf("journal: frame at offset %d: bad payload length %d", off, n)
		}
		if len(data)-off-headerLen < n {
			return recs, off, io.ErrUnexpectedEOF
		}
		payload := data[off+headerLen : off+headerLen+n]
		if crc32.Checksum(payload, castagnoli) != sum {
			return recs, off, fmt.Errorf("journal: frame at offset %d: CRC mismatch", off)
		}
		rec := Record{Type: Type(payload[0])}
		if n > 1 {
			rec.Body = json.RawMessage(append([]byte(nil), payload[1:]...))
		}
		recs = append(recs, rec)
		off += headerLen + n
	}
	return recs, off, nil
}
