package serve_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"asti/internal/bitset"
	"asti/internal/diffusion"
	"asti/internal/gen"
	"asti/internal/graph"
	"asti/internal/journal"
	"asti/internal/rng"
	"asti/internal/serve"
)

// TestGraphFingerprintFrozen pins the graph signature every checkpoint
// records. A checkpoint whose signature no longer matches its dataset
// reads as dataset drift, and a compacted log cannot fall back to a full
// replay, so a shifted signature would make recovery skip every stored
// session. Any change to the in-adjacency bytes the signature hashes must
// keep these values.
func TestGraphFingerprintFrozen(t *testing.T) {
	dataset := func(name string) *graph.Graph {
		spec, err := gen.Dataset(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := spec.Generate(0.05)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		want uint64
	}{
		{"figure2", gen.Figure2Graph(), 0xde58b6997ce30491},
		{"synth-nethept@0.05", dataset("synth-nethept"), 0xccd18555e0aa9d78},
		{"synth-epinions@0.05", dataset("synth-epinions"), 0xe1594f25abe969fd},
	} {
		if got := serve.GraphFingerprint(tc.g); got != tc.want {
			t.Errorf("%s: graph signature %#x, want %#x", tc.name, got, tc.want)
		}
	}
}

// TestCheckpointAuditSweep is the replay verification the checkpoint
// write path does not run, done once per configuration instead of on
// every write. For every policy family, worker count, pool-reuse mode
// and sampler version, two campaigns write a checkpoint after every
// round (compaction off, so the whole history stays in the log): one
// played to completion against a sampled world (large activation
// deltas, and a final checkpoint of a done campaign), one that activates
// only each batch (small deltas, the pool-reuse path). The LT model and
// a binding MaxSetsPerRound cap, the other Config fields that reach the
// sampler and the pool state a checkpoint holds, each run over the ASTI
// and ASTI-3 part of that matrix at one worker. AuditCheckpoints checks
// every snapshot against a full replay of the log before it, against its
// own restore, and against a session restored from the previous one.
// Every campaign also passivates its session after each proposal, so
// half the audited snapshots carry a pending batch and every observation
// lands on a session restored from one.
func TestCheckpointAuditSweep(t *testing.T) {
	reg := testRegistry(t)
	g, err := reg.Graph("test")
	if err != nil {
		t.Fatal(err)
	}
	worlds := map[diffusion.Model]*diffusion.Realization{
		diffusion.IC: diffusion.SampleRealization(g, diffusion.IC, rng.New(5)),
		diffusion.LT: diffusion.SampleRealization(g, diffusion.LT, rng.New(5)),
	}
	variants := []struct {
		name     string
		model    diffusion.Model
		poolCap  int64
		policies []string
		workers  []int
	}{
		{"IC", diffusion.IC, 0, []string{"ASTI", "ASTI-3", "AdaptIM"}, []int{1, 4}},
		{"LT", diffusion.LT, 0, []string{"ASTI", "ASTI-3"}, []int{1}},
		{"capped", diffusion.IC, 64, []string{"ASTI", "ASTI-3"}, []int{1}},
	}
	for _, v := range variants {
		for _, policy := range v.policies {
			for _, workers := range v.workers {
				for _, disableReuse := range []bool{false, true} {
					for _, sampler := range []int{1, 2} {
						for _, world := range []*diffusion.Realization{worlds[v.model], nil} {
							cfg := serve.Config{
								Dataset: "test", Policy: policy, Model: v.model, EtaFrac: 0.1, Epsilon: 0.5, Seed: 17,
								Workers: workers, MaxSetsPerRound: v.poolCap,
								DisablePoolReuse: disableReuse, SamplerVersion: sampler,
							}
							shape := "world"
							if world == nil {
								cfg.EtaFrac, shape = 0.5, "echo"
							}
							name := fmt.Sprintf("%s/%s/workers=%d/reuse=%v/v%d/%s", v.name, policy, workers, !disableReuse, sampler, shape)
							t.Run(name, func(t *testing.T) {
								t.Parallel()
								mgr, recs, rounds := auditedCampaign(t, reg, cfg, world)
								n, err := mgr.AuditCheckpoints(recs)
								if err != nil {
									t.Fatalf("audit after %d of %d checkpoints: %v", n, rounds, err)
								}
								if n != 2*rounds {
									t.Fatalf("audited %d checkpoints over %d rounds, want two per round", n, rounds)
								}
								if cfg.MaxSetsPerRound > 0 {
									if top := largestPool(t, recs); top != cfg.MaxSetsPerRound {
										t.Fatalf("largest checkpointed pool %d, want the cap %d to bind", top, cfg.MaxSetsPerRound)
									}
								}
							})
						}
					}
				}
			}
		}
	}
}

// largestPool returns the largest end-of-round pool size recorded by
// any checkpoint in recs.
func largestPool(t *testing.T, recs []journal.Record) int64 {
	t.Helper()
	var top int64
	for _, rec := range recs {
		if rec.Type != journal.TypeCheckpoint {
			continue
		}
		var ck journal.Checkpoint
		if err := json.Unmarshal(rec.Body, &ck); err != nil {
			t.Fatal(err)
		}
		top = max(top, ck.Policy.LastPool)
	}
	return top
}

// TestCheckpointAuditCatchesDrift proves the sweep has teeth: a log
// whose checkpoint disagrees with its history in any replay-relevant
// field — re-framed with a valid CRC, so only the audit can notice —
// fails the audit.
func TestCheckpointAuditCatchesDrift(t *testing.T) {
	reg := testRegistry(t)
	g, err := reg.Graph("test")
	if err != nil {
		t.Fatal(err)
	}
	φ := diffusion.SampleRealization(g, diffusion.IC, rng.New(5))
	cfg := serve.Config{Dataset: "test", EtaFrac: 0.1, Epsilon: 0.5, Seed: 17, Workers: 1}
	mgr, recs, _ := auditedCampaign(t, reg, cfg, φ)
	// Committed and pending checkpoints, by record index.
	var ckIdxs [2][]int
	for i, rec := range recs {
		if rec.Type == journal.TypeCheckpoint {
			var ck journal.Checkpoint
			if err := json.Unmarshal(rec.Body, &ck); err != nil {
				t.Fatal(err)
			}
			pending := 0
			if len(ck.Pending) > 0 {
				pending = 1
			}
			ckIdxs[pending] = append(ckIdxs[pending], i)
		}
	}
	if len(ckIdxs[0]) < 2 || len(ckIdxs[1]) < 2 {
		t.Fatalf("campaign wrote %d committed and %d pending checkpoints, want at least 2 of each",
			len(ckIdxs[0]), len(ckIdxs[1]))
	}
	drifts := map[string]struct {
		pending bool
		drift   func(ck *journal.Checkpoint)
	}{
		"rng position":      {false, func(ck *journal.Checkpoint) { ck.Rng[1]++ }},
		"pool digest":       {false, func(ck *journal.Checkpoint) { ck.PoolDigest ^= 1 }},
		"policy warm start": {false, func(ck *journal.Checkpoint) { ck.Policy.LastPool++ }},
		"active set":        {false, func(ck *journal.Checkpoint) { ck.Active = ck.Active[1:] }},
		"round trace":       {false, func(ck *journal.Checkpoint) { ck.Rounds[0].Marginal++ }},
		// Another inactive node, so the batch still passes restore's
		// validation and only the comparison with replay can notice.
		"pending batch": {true, func(ck *journal.Checkpoint) { ck.Pending[0] = firstFree(ck) }},
	}
	for name, d := range drifts {
		t.Run(name, func(t *testing.T) {
			idxs := ckIdxs[0]
			if d.pending {
				idxs = ckIdxs[1]
			}
			ckIdx := idxs[len(idxs)/2]
			var ck journal.Checkpoint
			if err := json.Unmarshal(recs[ckIdx].Body, &ck); err != nil {
				t.Fatal(err)
			}
			d.drift(&ck)
			body, err := json.Marshal(ck)
			if err != nil {
				t.Fatal(err)
			}
			bad := slices.Clone(recs)
			bad[ckIdx] = journal.Record{Type: journal.TypeCheckpoint, Body: body}
			if _, err := mgr.AuditCheckpoints(bad); err == nil {
				t.Fatal("audit accepted a checkpoint that disagrees with its history")
			}
		})
	}
}

// firstFree returns the lowest node a checkpoint holds neither active
// nor pending.
func firstFree(ck *journal.Checkpoint) int32 {
	for v := int32(0); ; v++ {
		if !slices.Contains(ck.Active, v) && !slices.Contains(ck.Pending, v) {
			return v
		}
	}
}

// auditedCampaign plays one journaled campaign with a checkpoint after
// every round and compaction off — to completion against φ, or, with φ
// nil, for 10 rounds that activate only each batch — passivating the
// session after every proposal, so the log also holds a pending-batch
// checkpoint per round and every observation runs on a session restored
// from one. It returns the manager, the records of the log and the
// round count.
func auditedCampaign(t *testing.T, reg *serve.Registry, cfg serve.Config, φ *diffusion.Realization) (*serve.Manager, []journal.Record, int) {
	t.Helper()
	dir := t.TempDir()
	mgr := serve.NewManager(reg, 0, serve.WithJournalDir(dir),
		serve.WithCheckpointEvery(1), serve.WithCompaction(false))
	t.Cleanup(mgr.CloseAll)
	s, err := mgr.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID()
	mirror := bitset.New(int(s.Graph().N()))
	for r := 1; ; r++ {
		batch, err := s.NextBatch()
		if err != nil {
			t.Fatalf("round %d NextBatch: %v", r, err)
		}
		if ok, err := mgr.Passivate(id); err != nil || !ok {
			t.Fatalf("round %d Passivate: ok=%v err=%v", r, ok, err)
		}
		if s, err = mgr.Session(id); err != nil {
			t.Fatal(err)
		}
		observed := batch
		if φ != nil {
			observed = φ.Spread(batch, mirror)
			for _, v := range observed {
				mirror.Set(v)
			}
		}
		prog, err := s.Observe(observed)
		if err != nil {
			t.Fatalf("round %d Observe: %v", r, err)
		}
		if φ == nil && prog.Done {
			t.Fatalf("batch-only campaign finished at round %d", r)
		}
		if prog.Done || (φ == nil && r == 10) {
			break
		}
	}
	st := s.Status()
	if st.Done != (φ != nil) || st.Checkpoints != 2*st.Round {
		t.Fatalf("campaign ended at round %d done=%v with %d checkpoints; want two per round",
			st.Round, st.Done, st.Checkpoints)
	}
	if mt := mgr.Metrics(); mt.Counters[serve.CheckpointFailures] != 0 || mt.Counters[serve.CheckpointRestores] != mt.Counters[serve.Reactivations] {
		t.Fatalf("%d checkpoints failed to encode, %d of %d reactivations restored one",
			mt.Counters[serve.CheckpointFailures], mt.Counters[serve.CheckpointRestores], mt.Counters[serve.Reactivations])
	}
	data, err := os.ReadFile(filepath.Join(dir, s.ID()+".wal"))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, tailErr := journal.Scan(data)
	if tailErr != nil {
		t.Fatal(tailErr)
	}
	return mgr, recs, st.Round
}

// rewriteWAL loads a clean log, hands every decoded checkpoint to
// mutate (index = record position) and re-frames the file with correct
// CRCs — the shape of damage a CRC cannot catch.
func rewriteWAL(t *testing.T, path string, mutate func(idx int, ck *journal.Checkpoint)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, tailErr := journal.Scan(data)
	if tailErr != nil {
		t.Fatal(tailErr)
	}
	var out []byte
	for i, rec := range recs {
		if rec.Type != journal.TypeCheckpoint {
			out = append(out, journal.RawFrame(rec.Type, rec.Body)...)
			continue
		}
		var ck journal.Checkpoint
		if err := json.Unmarshal(rec.Body, &ck); err != nil {
			t.Fatal(err)
		}
		mutate(i, &ck)
		frame, err := journal.Marshal(journal.TypeCheckpoint, ck)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, frame...)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointCorruptionMatrix pins the failure ladder for damaged
// checkpoints. A 5-round campaign with checkpoints every 2 rounds and
// compaction off leaves a log whose full history is still present, so
// every kind of checkpoint damage has a safe landing: a semantically
// corrupted snapshot (valid CRC, valid digest chain; a nonsense round,
// or a pending batch restore must refuse) falls back to full replay, a broken digest chain falls back to the previous checkpoint,
// both checkpoints broken falls back to full replay, environment-pin
// drift falls back to full replay, and a CRC-level flip truncates the
// log to its valid prefix. In every case boot succeeds and the session
// proposes byte-identical batches to an uninterrupted run.
func TestCheckpointCorruptionMatrix(t *testing.T) {
	const rounds = 5
	reg := testRegistry(t)
	cfg := serve.Config{Dataset: "test", EtaFrac: 0.5, Epsilon: 0.5, Seed: 23, Workers: 1}
	opts := []serve.ManagerOption{serve.WithCheckpointEvery(2), serve.WithCompaction(false)}

	refMgr := serve.NewManager(reg, 0)
	defer refMgr.CloseAll()
	ref, err := refMgr.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refBatch := driveBatchOnlyRounds(t, ref, rounds)
	refNext, err := ref.NextBatch()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	mgr := serve.NewManager(reg, 0, append(opts, serve.WithJournalDir(dir))...)
	s, err := mgr.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID()
	driveBatchOnlyRounds(t, s, rounds)
	mgr.CloseAll()
	pristine, err := os.ReadFile(filepath.Join(dir, id+".wal"))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, tailErr := journal.Scan(pristine)
	if tailErr != nil {
		t.Fatal(tailErr)
	}
	var ckIdx []int
	for i, rec := range recs {
		if rec.Type == journal.TypeCheckpoint {
			ckIdx = append(ckIdx, i)
		}
	}
	if len(ckIdx) != 2 {
		t.Fatalf("log holds %d checkpoints, want 2 (at rounds 2 and 4)", len(ckIdx))
	}
	newest := ckIdx[len(ckIdx)-1]

	cases := []struct {
		name string
		// corrupt damages a pristine copy of the log at path.
		corrupt func(t *testing.T, path string)
		// wantRound is the committed round recovery must land on.
		wantRound int
		// wantRestores is the expected checkpoint-restore count.
		wantRestores int
		// wantWarning, if non-empty, must appear in a recovery warning.
		wantWarning string
	}{
		{
			// Valid CRC, valid digest chain, nonsense payload: the semantic
			// validation at restore rejects it and recovery replays in full.
			name: "semantic corruption in newest checkpoint",
			corrupt: func(t *testing.T, path string) {
				rewriteWAL(t, path, func(i int, ck *journal.Checkpoint) {
					if i == newest {
						ck.Round = 999
					}
				})
			},
			wantRound: rounds, wantRestores: 0, wantWarning: "falling back to full replay",
		},
		{
			// Round 0 is a valid position only with the first batch pending.
			name: "round 0 without a pending batch",
			corrupt: func(t *testing.T, path string) {
				rewriteWAL(t, path, func(i int, ck *journal.Checkpoint) {
					if i == newest {
						ck.Round, ck.Rounds = 0, nil
					}
				})
			},
			wantRound: rounds, wantRestores: 0, wantWarning: "checkpoint round 0",
		},
		{
			name: "pending batch on a finished campaign",
			corrupt: func(t *testing.T, path string) {
				rewriteWAL(t, path, func(i int, ck *journal.Checkpoint) {
					if i == newest {
						ck.Done, ck.Pending = true, []int32{firstFree(ck)}
					}
				})
			},
			wantRound: rounds, wantRestores: 0, wantWarning: "finished campaign carries a pending batch",
		},
		{
			name: "pending seed out of range",
			corrupt: func(t *testing.T, path string) {
				rewriteWAL(t, path, func(i int, ck *journal.Checkpoint) {
					if i == newest {
						ck.Pending = []int32{1 << 30}
					}
				})
			},
			wantRound: rounds, wantRestores: 0, wantWarning: "invalid or active seed",
		},
		{
			name: "pending seed already active",
			corrupt: func(t *testing.T, path string) {
				rewriteWAL(t, path, func(i int, ck *journal.Checkpoint) {
					if i == newest {
						ck.Pending = []int32{firstFree(ck), ck.Active[0]}
					}
				})
			},
			wantRound: rounds, wantRestores: 0, wantWarning: "invalid or active seed",
		},
		{
			name: "pending seed repeated",
			corrupt: func(t *testing.T, path string) {
				rewriteWAL(t, path, func(i int, ck *journal.Checkpoint) {
					if i == newest {
						v := firstFree(ck)
						ck.Pending = []int32{v, v}
					}
				})
			},
			wantRound: rounds, wantRestores: 0, wantWarning: "twice",
		},
		{
			// A digest that no longer matches the chain: the newest
			// checkpoint is distrusted, the previous one still restores.
			name: "digest chain broken on newest checkpoint",
			corrupt: func(t *testing.T, path string) {
				rewriteWAL(t, path, func(i int, ck *journal.Checkpoint) {
					if i == newest {
						ck.HistoryDigest ^= 1
					}
				})
			},
			wantRound: rounds, wantRestores: 1,
		},
		{
			name: "digest chain broken on every checkpoint",
			corrupt: func(t *testing.T, path string) {
				rewriteWAL(t, path, func(i int, ck *journal.Checkpoint) {
					ck.HistoryDigest ^= 1
				})
			},
			wantRound: rounds, wantRestores: 0,
		},
		{
			// The dataset pin no longer matches the loaded graph: the
			// snapshot describes a different campaign and must not restore.
			name: "graph signature drift",
			corrupt: func(t *testing.T, path string) {
				rewriteWAL(t, path, func(i int, ck *journal.Checkpoint) {
					ck.GraphSig ^= 1
				})
			},
			wantRound: rounds, wantRestores: 0, wantWarning: "dataset drift",
		},
		{
			name: "sampler version drift",
			corrupt: func(t *testing.T, path string) {
				rewriteWAL(t, path, func(i int, ck *journal.Checkpoint) {
					ck.SamplerVersion++
				})
			},
			wantRound: rounds, wantRestores: 0, wantWarning: "sampler version drift",
		},
		{
			// A raw bit flip the CRC does catch: the scan stops there, the
			// suffix is lost, and the session resumes from the valid prefix
			// (round 4, the last transition before the flipped frame).
			name: "CRC-level flip in newest checkpoint",
			corrupt: func(t *testing.T, path string) {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				off := 0
				for _, rec := range recs[:newest] {
					off += len(journal.RawFrame(rec.Type, rec.Body))
				}
				data[off+12] ^= 0x40
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantRound: rounds - 1, wantRestores: 1, wantWarning: "damaged tail",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cdir := t.TempDir()
			path := filepath.Join(cdir, id+".wal")
			if err := os.WriteFile(path, append([]byte(nil), pristine...), 0o644); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, path)
			m := serve.NewManager(reg, 0, append(opts, serve.WithJournalDir(cdir))...)
			defer m.CloseAll()
			rep, err := m.Recover("")
			if err != nil {
				t.Fatalf("boot failed: %v", err)
			}
			if rep.Recovered != 1 || rep.Skipped != 0 {
				t.Fatalf("recovery report %+v, want the session recovered", rep)
			}
			if rep.CheckpointRestores != tc.wantRestores {
				t.Errorf("checkpoint restores %d, want %d (warnings: %v)",
					rep.CheckpointRestores, tc.wantRestores, rep.Warnings)
			}
			if tc.wantWarning != "" {
				found := false
				for _, w := range rep.Warnings {
					found = found || strings.Contains(w, tc.wantWarning)
				}
				if !found {
					t.Errorf("no warning mentioning %q in %v", tc.wantWarning, rep.Warnings)
				}
			}
			rs, err := m.Session(id)
			if err != nil {
				t.Fatal(err)
			}
			if st := rs.Status(); st.Round != tc.wantRound {
				t.Fatalf("recovered to round %d, want %d", st.Round, tc.wantRound)
			}
			// Whatever the fallback path, the session must continue the
			// reference batch stream exactly.
			for r := tc.wantRound + 1; r <= rounds; r++ {
				batch, err := rs.NextBatch()
				if err != nil {
					t.Fatalf("round %d NextBatch: %v", r, err)
				}
				if !slices.Equal(batch, refBatch[r]) {
					t.Fatalf("round %d batch diverged after corrupted recovery", r)
				}
				if _, err := rs.Observe(batch); err != nil {
					t.Fatal(err)
				}
			}
			got, err := rs.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, refNext) {
				t.Error("next batch diverged after corrupted recovery")
			}
		})
	}
}

// TestCheckpointingOutputInvisible pins the acceptance criterion that
// checkpoints and compaction are pure speed features: the same campaign
// run with checkpointing on (interval 2, compaction on), checkpointing
// off, and with no journal at all proposes byte-identical seed
// sequences — while the checkpointing manager really did checkpoint and
// compact.
func TestCheckpointingOutputInvisible(t *testing.T) {
	const rounds = 6
	reg := testRegistry(t)
	cfg := serve.Config{Dataset: "test", EtaFrac: 0.5, Epsilon: 0.5, Seed: 31, Workers: 1}

	run := func(opts ...serve.ManagerOption) ([][]int32, *serve.Manager) {
		mgr := serve.NewManager(reg, 0, opts...)
		s, err := mgr.Create(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return driveBatchOnlyRounds(t, s, rounds), mgr
	}
	plain, plainMgr := run()
	defer plainMgr.CloseAll()
	off, offMgr := run(serve.WithJournalDir(t.TempDir()), serve.WithCheckpointEvery(0))
	defer offMgr.CloseAll()
	on, onMgr := run(serve.WithJournalDir(t.TempDir()), serve.WithCheckpointEvery(2))
	defer onMgr.CloseAll()

	for r := 1; r <= rounds; r++ {
		if !slices.Equal(plain[r], on[r]) || !slices.Equal(plain[r], off[r]) {
			t.Fatalf("round %d batches differ across checkpointing modes", r)
		}
	}
	if st := onMgr.Snapshot(); st.Counters[serve.Checkpoints] == 0 || st.Counters[serve.Compactions] == 0 {
		t.Errorf("checkpointing manager wrote %d checkpoints, %d compactions; want both > 0",
			st.Counters[serve.Checkpoints], st.Counters[serve.Compactions])
	}
	mt := onMgr.Metrics()
	if mt.Counters[serve.CheckpointFailures] != 0 {
		t.Errorf("%d checkpoints failed to encode on a healthy run", mt.Counters[serve.CheckpointFailures])
	}
	if mt.Counters[serve.CompactedBytes] == 0 {
		t.Error("compaction reclaimed 0 bytes over a 6-round campaign")
	}
	if st := offMgr.Snapshot(); st.Counters[serve.Checkpoints] != 0 {
		t.Errorf("checkpoint-off manager wrote %d checkpoints", st.Counters[serve.Checkpoints])
	}
}

// TestDoneSessionRestoresFromCompletionCheckpoint pins the checkpoint
// written by the round that completes a campaign: a finished session
// recovered before its DELETE restores from it with no round to replay,
// however far behind the last interval boundary lies.
func TestDoneSessionRestoresFromCompletionCheckpoint(t *testing.T) {
	reg := testRegistry(t)
	g, err := reg.Graph("test")
	if err != nil {
		t.Fatal(err)
	}
	φ := diffusion.SampleRealization(g, diffusion.IC, rng.New(5))
	cfg := serve.Config{Dataset: "test", EtaFrac: 0.1, Epsilon: 0.5, Seed: 17, Workers: 1}
	// An interval the campaign never reaches: the completion checkpoint is
	// the only one.
	opts := []serve.ManagerOption{serve.WithJournalDir(t.TempDir()), serve.WithCheckpointEvery(1000)}
	mgr := serve.NewManager(reg, 0, opts...)
	s, err := mgr.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, s, φ)
	want := s.Status()
	if !want.Done || want.Checkpoints != 1 || want.LastCheckpointRound != want.Round {
		t.Fatalf("finished at round %d (done=%v) with %d checkpoints, the last at round %d; want one at the final round",
			want.Round, want.Done, want.Checkpoints, want.LastCheckpointRound)
	}
	mgr.CloseAll()

	m := serve.NewManager(reg, 0, opts...)
	defer m.CloseAll()
	rep, err := m.Recover("")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovered != 1 || rep.CheckpointRestores != 1 || rep.Rounds != 0 {
		t.Fatalf("recovery report %+v, want one session restored with no round replayed", rep)
	}
	rs, err := m.Session(s.ID())
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.Status(); !got.Done || got.Round != want.Round || got.Seeds != want.Seeds || got.Activated != want.Activated {
		t.Fatalf("restored to round %d (done=%v, %d seeds, %d active); want round %d, %d seeds, %d active",
			got.Round, got.Done, got.Seeds, got.Activated, want.Round, want.Seeds, want.Activated)
	}
	if _, err := rs.NextBatch(); !errors.Is(err, serve.ErrDone) {
		t.Fatalf("NextBatch on the restored finished session: %v, want ErrDone", err)
	}
}

// TestRecoverLegacyLog pins backward compatibility: a journal written
// before checkpoints existed (indistinguishable from one written with
// checkpointing disabled) recovers by full replay under a checkpointing
// manager, and from then on the recovered session checkpoints normally —
// the digest chain is computed by the reader, so old logs need no
// rewriting to become checkpoint-capable.
func TestRecoverLegacyLog(t *testing.T) {
	reg := testRegistry(t)
	cfg := serve.Config{Dataset: "test", EtaFrac: 0.5, Epsilon: 0.5, Seed: 41, Workers: 1}
	dir := t.TempDir()

	legacy := serve.NewManager(reg, 0, serve.WithJournalDir(dir), serve.WithCheckpointEvery(0))
	s, err := legacy.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID()
	driveBatchOnlyRounds(t, s, 3)
	legacy.CloseAll()

	refMgr := serve.NewManager(reg, 0)
	defer refMgr.CloseAll()
	ref, err := refMgr.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refBatch := driveBatchOnlyRounds(t, ref, 4)
	refNext, err := ref.NextBatch()
	if err != nil {
		t.Fatal(err)
	}

	// First restart: full replay (there is nothing to restore from), then
	// one more round crosses the interval boundary and writes the log's
	// first checkpoint.
	m1 := serve.NewManager(reg, 0, serve.WithJournalDir(dir), serve.WithCheckpointEvery(2))
	rep, err := m1.Recover("")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovered != 1 || rep.CheckpointRestores != 0 {
		t.Fatalf("legacy recovery report %+v, want 1 recovered, 0 from checkpoint", rep)
	}
	rs, err := m1.Session(id)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := rs.NextBatch()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(batch, refBatch[4]) {
		t.Fatal("legacy-recovered session diverged from reference")
	}
	if _, err := rs.Observe(batch); err != nil {
		t.Fatal(err)
	}
	if st := rs.Status(); st.Checkpoints != 1 || st.LastCheckpointRound != 4 {
		t.Fatalf("after crossing the interval: %d checkpoints, last at round %d; want 1 at round 4",
			st.Checkpoints, st.LastCheckpointRound)
	}
	m1.CloseAll()

	// Second restart proves the upgraded log now recovers through its
	// checkpoint.
	m2 := serve.NewManager(reg, 0, serve.WithJournalDir(dir), serve.WithCheckpointEvery(2))
	defer m2.CloseAll()
	rep, err = m2.Recover("")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovered != 1 || rep.CheckpointRestores != 1 {
		t.Fatalf("post-upgrade recovery report %+v, want a checkpoint restore", rep)
	}
	rs2, err := m2.Session(id)
	if err != nil {
		t.Fatal(err)
	}
	if st := rs2.Status(); st.Checkpoints != 1 || st.LastCheckpointRound != 4 {
		t.Fatalf("restored checkpoint counters %d/%d, want 1/4", st.Checkpoints, st.LastCheckpointRound)
	}
	got, err := rs2.NextBatch()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, refNext) {
		t.Fatal("checkpoint-restored session diverged from reference")
	}
}
