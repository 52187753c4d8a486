package serve_test

import (
	"testing"

	"asti/internal/serve"
)

// benchReactivate measures the Manager.Session lookup that brings a
// passivated 10-round session back to life, under the given extra
// manager options; with pending, the session is parked with an 11th
// batch proposed and not yet observed. Passivation itself (releasing
// state, plus the checkpoint the first one writes) is kept off the
// clock; the measured work is the restore or journal replay.
func benchReactivate(b *testing.B, pending bool, opts ...serve.ManagerOption) {
	reg := testRegistry(b)
	all := append([]serve.ManagerOption{serve.WithJournalDir(b.TempDir())}, opts...)
	mgr := serve.NewManager(reg, 0, all...)
	defer mgr.CloseAll()
	s, err := mgr.Create(serve.Config{Dataset: "test", EtaFrac: 0.3, Workers: 1, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	const rounds = 10
	for r := 0; r < rounds; r++ {
		batch, err := s.NextBatch()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Observe(batch); err != nil {
			b.Fatal(err)
		}
	}
	if pending {
		if _, err := s.NextBatch(); err != nil {
			b.Fatal(err)
		}
	}
	id := s.ID()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ok, err := mgr.Passivate(id)
		if err != nil || !ok {
			b.Fatalf("passivate: ok=%v err=%v", ok, err)
		}
		b.StartTimer()
		if _, err := mgr.Session(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReactivateCheckpointed reactivates through the checkpoint
// passivation wrote (interval 4, compaction on): a restore with no round
// to replay.
func BenchmarkReactivateCheckpointed(b *testing.B) {
	benchReactivate(b, false, serve.WithCheckpointEvery(4))
}

// BenchmarkReactivatePending is BenchmarkReactivateCheckpointed for a
// session parked between a proposal and its observation: the checkpoint
// carries the pending batch, so the round-11 selection is not re-run.
func BenchmarkReactivatePending(b *testing.B) {
	benchReactivate(b, true, serve.WithCheckpointEvery(4))
}

// BenchmarkReactivateFullReplay reactivates with checkpoints disabled:
// the full 10-round replay this subsystem exists to avoid.
func BenchmarkReactivateFullReplay(b *testing.B) {
	benchReactivate(b, false, serve.WithCheckpointEvery(0))
}
