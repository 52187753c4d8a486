package journal_test

import (
	"bytes"
	"testing"

	"asti/internal/journal"
)

// FuzzScan throws arbitrary bytes at the frame reader. Invariants: no
// panic, the valid byte count never exceeds the input, re-scanning the
// valid prefix reproduces the same records cleanly, and re-framing those
// records reproduces the prefix byte for byte.
func FuzzScan(f *testing.F) {
	f.Add([]byte{})
	if frame, err := journal.Marshal(journal.TypeCreated, journal.Created{Dataset: "d", Seed: 1}); err == nil {
		f.Add(frame)
		f.Add(frame[:len(frame)-1])      // torn tail
		f.Add(append(frame, 0xFF, 0x00)) // trailing garbage
		two := append(append([]byte(nil), frame...), frame...)
		f.Add(two)
	}
	if frame, err := journal.Marshal(journal.TypeClosed, nil); err == nil {
		f.Add(frame)
	}
	ck := journal.Checkpoint{
		Round: 2, Seq: 1, Active: []int32{1, 4}, Delta: []int32{4},
		Seeds: []int32{1, 4}, Rounds: []journal.CheckpointRound{{Seeds: []int32{1}}, {Seeds: []int32{4}}},
		Rng:        [4]uint64{1, 2, 3, 4},
		Policy:     journal.PolicyCheckpoint{RunSeed: 9, LastRound: 2, ReusePool: true},
		PoolDigest: 0xDEAD, SamplerVersion: 2, GraphSig: 0xBEEF, HistoryDigest: 0x1234,
	}
	if frame, err := journal.Marshal(journal.TypeCheckpoint, ck); err == nil {
		f.Add(frame)
		f.Add(frame[:len(frame)/2]) // torn checkpoint
	}
	// A checkpoint parked between a proposal and its observation.
	ck.Round, ck.Rounds, ck.Pending = 1, ck.Rounds[:1], []int32{6, 2}
	if frame, err := journal.Marshal(journal.TypeCheckpoint, ck); err == nil {
		f.Add(frame)
	}
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0}) // huge length claim
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid, tailErr := journal.Scan(data)
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid %d outside [0,%d]", valid, len(data))
		}
		if tailErr == nil && valid != len(data) {
			t.Fatalf("clean scan consumed %d of %d bytes", valid, len(data))
		}
		// The valid prefix must re-scan to the same records, cleanly.
		again, validAgain, errAgain := journal.Scan(data[:valid])
		if errAgain != nil || validAgain != valid || len(again) != len(recs) {
			t.Fatalf("prefix re-scan: %d records valid %d err %v (want %d, %d, nil)",
				len(again), validAgain, errAgain, len(recs), valid)
		}
		// Re-framing the records with their verbatim bodies must reproduce
		// the prefix exactly (the framing has one canonical encoding).
		var rebuilt []byte
		for _, rec := range recs {
			rebuilt = append(rebuilt, journal.RawFrame(rec.Type, rec.Body)...)
		}
		if !bytes.Equal(rebuilt, data[:valid]) {
			t.Fatalf("re-framed prefix differs: %x vs %x", rebuilt, data[:valid])
		}
	})
}
