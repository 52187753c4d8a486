package serve_test

import (
	"testing"

	"asti/internal/serve"
)

// benchConfig is the session every benchmark here plays, for benchRounds
// rounds of batch-only observations.
var benchConfig = serve.Config{Dataset: "test", EtaFrac: 0.3, Workers: 1, Seed: 7}

const benchRounds = 10

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
	s, err := mgr.Create(benchConfig)
	if err != nil {
		b.Fatal(err)
	}
	driveBatchOnlyRounds(b, s, benchRounds)
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

// benchStep measures one step (a NextBatch plus its Observe) under the
// given manager options: every iteration plays the same 10-round
// campaign that observes only each batch, with the default checkpoint
// interval. Creating and closing the session are kept off the clock.
func benchStep(b *testing.B, opts ...serve.ManagerOption) {
	mgr := serve.NewManager(testRegistry(b), 0, opts...)
	defer mgr.CloseAll()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := mgr.Create(benchConfig)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		driveBatchOnlyRounds(b, s, benchRounds)
		b.StopTimer()
		if err := mgr.Close(s.ID()); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchRounds), "ns/step")
}

// BenchmarkStepInMemory is the step cost without durability: the
// baseline of BenchmarkStepJournaled.
func BenchmarkStepInMemory(b *testing.B) {
	benchStep(b)
}

// BenchmarkStepJournaled is the step cost with write-ahead journaling:
// an fsynced append per proposal and per observation, plus a checkpoint
// every DefaultCheckpointEvery rounds. Its ns/step less
// BenchmarkStepInMemory's is the per-step cost of durability.
func BenchmarkStepJournaled(b *testing.B) {
	benchStep(b, serve.WithJournalDir(b.TempDir()))
}
