package journal_test

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"asti/internal/journal"
)

// goldenCheckpoint is a fully populated checkpoint with distinctive
// values in every field, shared by the codec-stability tests.
func goldenCheckpoint() journal.Checkpoint {
	return journal.Checkpoint{
		Round: 3, Done: false, Seq: 2,
		Active: []int32{0, 2, 5}, Delta: []int32{5},
		Seeds: []int32{2, 5},
		Rounds: []journal.CheckpointRound{
			{Seeds: []int32{2}, Marginal: 4, NiBefore: 10, EtaIBefore: 3},
			{Seeds: []int32{5}, Marginal: 2, NiBefore: 6, EtaIBefore: 1},
			{Seeds: []int32{7}, Marginal: 1, NiBefore: 4, EtaIBefore: 0},
		},
		Rng:            [4]uint64{0x0123456789abcdef, 0xfedcba9876543210, 0x1111111111111111, 0x2222222222222222},
		Policy:         journal.PolicyCheckpoint{RunSeed: 0xCAFEBABE, LastRound: 3, LastNi: 42, LastPool: 128, Fallbacks: 1, ReusePool: true},
		PoolDigest:     0xA5A5A5A5A5A5A5A5,
		SamplerVersion: 2,
		GraphSig:       0x5F5F5F5F5F5F5F5F,
		HistoryDigest:  0xDEADBEEF,
	}
}

// goldenCheckpointFrameHex is the byte-exact framed encoding of
// goldenCheckpoint() — header, CRC, type byte, JSON body — captured when
// the checkpoint record type shipped. Logs written then must load
// forever, so any diff here is a wire-format break, not a test to
// update lightly.
const goldenCheckpointFrameHex = "300200006395bd5c057b22726f756e64223a332c22736571223a322c22616374697665223a5b302c322c355d2c2264656c7461223a5b355d2c227365656473223a5b322c355d2c22726f756e6473223a5b7b227365656473223a5b325d2c226d617267696e616c223a342c226e695f6265666f7265223a31302c226574615f695f6265666f7265223a337d2c7b227365656473223a5b355d2c226d617267696e616c223a322c226e695f6265666f7265223a362c226574615f695f6265666f7265223a317d2c7b227365656473223a5b375d2c226d617267696e616c223a312c226e695f6265666f7265223a342c226574615f695f6265666f7265223a307d5d2c22726e67223a5b38313938353532393231363438363839352c31383336343735383534343439333036343732302c313232393738323933383234373330333434312c323435393536353837363439343630363838325d2c22706f6c696379223a7b2272756e5f73656564223a333430353639313538322c226c6173745f726f756e64223a332c226c6173745f6e69223a34322c226c6173745f706f6f6c223a3132382c2266616c6c6261636b73223a312c2272657573655f706f6f6c223a747275657d2c22706f6f6c5f646967657374223a31313933363132383531383238323635313034352c2273616d706c65725f76657273696f6e223a322c2267726170685f736967223a363837323331363431393631373238333933352c22686973746f72795f646967657374223a333733353932383535397d"

// TestCheckpointGoldenFrame pins the checkpoint wire format: the golden
// struct must frame to the exact captured bytes, those bytes must scan
// back into one checkpoint record, and the decoded struct must equal the
// original field for field.
func TestCheckpointGoldenFrame(t *testing.T) {
	want, err := hex.DecodeString(goldenCheckpointFrameHex)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := journal.Marshal(journal.TypeCheckpoint, goldenCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, want) {
		t.Fatalf("checkpoint encoding drifted:\n got %x\nwant %x", frame, want)
	}
	recs, valid, tailErr := journal.Scan(want)
	if tailErr != nil || valid != len(want) || len(recs) != 1 {
		t.Fatalf("golden frame scan: %d records, valid %d, tailErr %v", len(recs), valid, tailErr)
	}
	if recs[0].Type != journal.TypeCheckpoint {
		t.Fatalf("type %v, want checkpoint", recs[0].Type)
	}
	if recs[0].Type.String() != "checkpoint" {
		t.Errorf("String() = %q, want checkpoint", recs[0].Type.String())
	}
	var got journal.Checkpoint
	if err := json.Unmarshal(recs[0].Body, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, goldenCheckpoint()) {
		t.Fatalf("golden round-trip:\n got %+v\nwant %+v", got, goldenCheckpoint())
	}
}

// TestPendingCheckpointRoundTrip: a checkpoint taken with a batch
// awaiting its observation carries the batch under "pending" and frames,
// scans and decodes back to the same struct; the same checkpoint without
// one encodes as the golden frame's era did, with no "pending" key.
func TestPendingCheckpointRoundTrip(t *testing.T) {
	ck := goldenCheckpoint()
	ck.Round, ck.Rounds = 2, ck.Rounds[:2]
	ck.Pending = []int32{7, 9}
	frame, err := journal.Marshal(journal.TypeCheckpoint, ck)
	if err != nil {
		t.Fatal(err)
	}
	recs, valid, tailErr := journal.Scan(frame)
	if tailErr != nil || valid != len(frame) || len(recs) != 1 || recs[0].Type != journal.TypeCheckpoint {
		t.Fatalf("pending checkpoint scan: %d records, valid %d, tailErr %v", len(recs), valid, tailErr)
	}
	if !bytes.Contains(recs[0].Body, []byte(`"pending":[7,9]`)) {
		t.Fatalf("pending batch missing from the encoding: %s", recs[0].Body)
	}
	var got journal.Checkpoint
	if err := json.Unmarshal(recs[0].Body, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Fatalf("pending round-trip:\n got %+v\nwant %+v", got, ck)
	}
	ck.Pending = nil
	plain, err := journal.Marshal(journal.TypeCheckpoint, ck)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(plain, []byte(`"pending"`)) {
		t.Fatalf("checkpoint without a pending batch encodes one: %s", plain)
	}
}

// TestDigestRecordGolden pins the history-digest chain a checkpoint's
// HistoryDigest commits to: the chain value over the golden record must
// never change, and DigestFrame over a framed record must agree with
// DigestRecord over its parts.
func TestDigestRecordGolden(t *testing.T) {
	frame, err := journal.Marshal(journal.TypeCheckpoint, goldenCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	recs, _, _ := journal.Scan(frame)
	d := journal.DigestRecord(0, recs[0].Type, recs[0].Body)
	if d != 0x5cbd9563 {
		t.Fatalf("golden record digest %#x, want 0x5cbd9563", d)
	}
	if df := journal.DigestFrame(0, frame); df != d {
		t.Fatalf("DigestFrame %#x != DigestRecord %#x", df, d)
	}
	// The chain is order-sensitive: folding the same record twice from
	// different starting values must differ.
	if journal.DigestRecord(d, recs[0].Type, recs[0].Body) == d {
		t.Error("digest chain is a fixed point")
	}
	// A frame too short to hold a payload folds nothing.
	if journal.DigestFrame(7, frame[:5]) != 7 {
		t.Error("truncated frame changed the digest")
	}
}

// compactLog builds a session log from (type, body) steps and returns
// the store. Bodies are encoded by Append like the live writer does.
func compactLog(t *testing.T, dir, id string, steps []struct {
	typ  journal.Type
	body any
}) *journal.Store {
	t.Helper()
	st, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := st.Create(id)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, s := range steps {
		if err := w.Append(s.typ, s.body); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

type step = struct {
	typ  journal.Type
	body any
}

// TestCompactDropsPrefix pins the compaction rewrite: a log with history
// before its newest checkpoint shrinks to [created][newest checkpoint]
// [suffix], byte-identically re-framed, and reports the bytes removed.
func TestCompactDropsPrefix(t *testing.T) {
	dir := t.TempDir()
	ck1 := journal.Checkpoint{Round: 1, Seq: 1, Rounds: []journal.CheckpointRound{{Seeds: []int32{1}}}}
	ck2 := journal.Checkpoint{Round: 2, Seq: 2, Rounds: []journal.CheckpointRound{{Seeds: []int32{1}}, {Seeds: []int32{2}}}}
	st := compactLog(t, dir, "s1", []step{
		{journal.TypeCreated, journal.Created{Dataset: "d", Seed: 7}},
		{journal.TypeProposed, journal.Proposed{Round: 1, Seeds: []int32{1}}},
		{journal.TypeObserved, journal.Observed{Round: 1, Activated: []int32{1}}},
		{journal.TypeCheckpoint, ck1},
		{journal.TypeProposed, journal.Proposed{Round: 2, Seeds: []int32{2}}},
		{journal.TypeObserved, journal.Observed{Round: 2, Activated: []int32{2}}},
		{journal.TypeCheckpoint, ck2},
		{journal.TypeProposed, journal.Proposed{Round: 3, Seeds: []int32{3}}},
	})
	before, err := st.Size("s1")
	if err != nil {
		t.Fatal(err)
	}
	removed, err := st.Compact("s1")
	if err != nil {
		t.Fatal(err)
	}
	if removed <= 0 {
		t.Fatalf("removed %d bytes, want > 0", removed)
	}
	after, err := st.Size("s1")
	if err != nil {
		t.Fatal(err)
	}
	if after != before-removed {
		t.Errorf("size %d after removing %d from %d", after, removed, before)
	}
	recs, tailErr, err := st.Load("s1")
	if err != nil || tailErr != nil {
		t.Fatalf("reload: tailErr %v err %v", tailErr, err)
	}
	wantTypes := []journal.Type{journal.TypeCreated, journal.TypeCheckpoint, journal.TypeProposed}
	if len(recs) != len(wantTypes) {
		t.Fatalf("compacted to %d records, want %d", len(recs), len(wantTypes))
	}
	for i, rec := range recs {
		if rec.Type != wantTypes[i] {
			t.Errorf("record %d is %s, want %s", i, rec.Type, wantTypes[i])
		}
	}
	var kept journal.Checkpoint
	if err := json.Unmarshal(recs[1].Body, &kept); err != nil {
		t.Fatal(err)
	}
	if kept.Round != 2 || kept.Seq != 2 {
		t.Errorf("kept checkpoint round %d seq %d, want the newest (2, 2)", kept.Round, kept.Seq)
	}
	// Compaction is idempotent: the kept checkpoint is now the base at
	// index 1 and there is nothing left to drop.
	removed, err = st.Compact("s1")
	if err != nil || removed != 0 {
		t.Errorf("second Compact removed %d (err %v), want 0", removed, err)
	}
}

// TestCompactNoCheckpointIsNoop pins that plain replay logs pass through
// compaction untouched.
func TestCompactNoCheckpointIsNoop(t *testing.T) {
	dir := t.TempDir()
	st := compactLog(t, dir, "s1", []step{
		{journal.TypeCreated, journal.Created{Dataset: "d", Seed: 7}},
		{journal.TypeProposed, journal.Proposed{Round: 1, Seeds: []int32{1}}},
	})
	before, _ := os.ReadFile(filepath.Join(dir, "s1.wal"))
	removed, err := st.Compact("s1")
	if err != nil || removed != 0 {
		t.Fatalf("Compact removed %d (err %v), want 0", removed, err)
	}
	after, _ := os.ReadFile(filepath.Join(dir, "s1.wal"))
	if !bytes.Equal(before, after) {
		t.Error("no-op compaction rewrote the log")
	}
}

// TestCompactRefusesDamage pins the safety refusals: a torn tail, a
// missing created record, or a missing log must leave the file exactly
// as found and return an error (or not exist).
func TestCompactRefusesDamage(t *testing.T) {
	dir := t.TempDir()
	st := compactLog(t, dir, "s1", []step{
		{journal.TypeCreated, journal.Created{Dataset: "d", Seed: 7}},
		{journal.TypeObserved, journal.Observed{Round: 1, Activated: []int32{1}}},
		{journal.TypeCheckpoint, journal.Checkpoint{Round: 1, Seq: 1, Rounds: []journal.CheckpointRound{{}}}},
	})
	path := filepath.Join(dir, "s1.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Torn tail: refuse, leave bytes alone.
	if err := os.WriteFile(path, data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Compact("s1"); err == nil {
		t.Error("Compact accepted a log with a torn tail")
	}
	got, _ := os.ReadFile(path)
	if !bytes.Equal(got, data[:len(data)-2]) {
		t.Error("refused compaction still modified the log")
	}
	// Missing log: an error, not a create.
	if _, err := st.Compact("absent"); err == nil {
		t.Error("Compact of a missing log succeeded")
	}
	// A log not starting with created: refuse.
	st2 := compactLog(t, t.TempDir(), "s2", []step{
		{journal.TypeObserved, journal.Observed{Round: 1}},
		{journal.TypeCheckpoint, journal.Checkpoint{Round: 1, Seq: 1, Rounds: []journal.CheckpointRound{{}}}},
		{journal.TypeProposed, journal.Proposed{Round: 2}},
	})
	if _, err := st2.Compact("s2"); err == nil {
		t.Error("Compact accepted a log without a created record")
	}
}
