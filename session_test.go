package asti_test

import (
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"asti"
)

// ExampleOpenSession splits the adaptive loop of ExampleRunAdaptive at
// the observation boundary: the caller proposes batches through a
// Session and reports back the realized influence — here replayed from a
// sampled world, in production from real campaign telemetry.
func ExampleOpenSession() {
	b := asti.NewGraphBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	g, err := b.Build("chain", true)
	if err != nil {
		panic(err)
	}
	policy, err := asti.NewASTI(0.3)
	if err != nil {
		panic(err)
	}
	world := asti.SampleRealization(g, asti.IC, 1)

	s, err := asti.OpenSession(g, asti.IC, 3, policy, 2)
	if err != nil {
		panic(err)
	}
	defer s.Close()
	for {
		batch, err := s.NextBatch()
		if errors.Is(err, asti.ErrSessionDone) {
			break
		}
		if err != nil {
			panic(err)
		}
		prog, err := s.Observe(world.Spread(batch, nil))
		if err != nil {
			panic(err)
		}
		if prog.Done {
			break
		}
	}
	res := s.Result()
	fmt.Println("reached threshold:", res.ReachedEta)
	fmt.Println("seeds used:", len(res.Seeds))
	// Output:
	// reached threshold: true
	// seeds used: 1
}

// ExampleWithJournalDir makes a session durable: its state transitions
// are write-ahead journaled, so after a crash (simulated here by simply
// abandoning the first manager) a fresh manager over the same directory
// recovers the session mid-campaign, and it proposes exactly what the
// uninterrupted session would have.
func ExampleWithJournalDir() {
	dir, err := os.MkdirTemp("", "asti-wal")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	reg := asti.NewSessionRegistry()
	b := asti.NewGraphBuilder(5)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	b.AddEdge(3, 4, 1)
	g, err := b.Build("chain", true)
	if err != nil {
		panic(err)
	}
	if err := reg.RegisterGraph("chain", g); err != nil {
		panic(err)
	}

	// First process life: propose one batch, observe, then "crash".
	mgr := asti.NewSessionManager(reg, 0, asti.WithJournalDir(dir))
	s, err := mgr.Create(asti.SessionConfig{Dataset: "chain", Eta: 4, Seed: 2})
	if err != nil {
		panic(err)
	}
	batch, err := s.NextBatch()
	if err != nil {
		panic(err)
	}
	if _, err := s.Observe(batch); err != nil { // nobody relayed the message
		panic(err)
	}
	id := s.ID()

	// Second process life: recover from the journal and keep going.
	mgr2 := asti.NewSessionManager(reg, 0, asti.WithJournalDir(dir))
	rep, err := mgr2.Recover("")
	if err != nil {
		panic(err)
	}
	fmt.Println("recovered sessions:", rep.Recovered)
	resumed, err := mgr2.Session(id)
	if err != nil {
		panic(err)
	}
	st := resumed.Status()
	fmt.Println("resumed at round:", st.Round, "phase:", st.Phase, "durable:", st.Durable)
	if _, err := resumed.NextBatch(); err != nil {
		panic(err)
	}
	fmt.Println("round after resume:", resumed.Status().Round)
	// Output:
	// recovered sessions: 1
	// resumed at round: 1 phase: propose durable: true
	// round after resume: 2
}

// ExampleWithIdleTTL shows idle-session passivation: a durable session
// parked by the sweep (forced here with Passivate, so the example does
// not depend on timing) frees its engine and pool, and the next manager
// lookup reactivates it from the journal with identical state.
func ExampleWithIdleTTL() {
	dir, err := os.MkdirTemp("", "asti-wal")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	reg := asti.NewSessionRegistry()
	b := asti.NewGraphBuilder(5)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	b.AddEdge(3, 4, 1)
	g, err := b.Build("chain", true)
	if err != nil {
		panic(err)
	}
	if err := reg.RegisterGraph("chain", g); err != nil {
		panic(err)
	}

	mgr := asti.NewSessionManager(reg, 0,
		asti.WithJournalDir(dir), asti.WithIdleTTL(time.Hour))
	defer mgr.CloseAll()
	s, err := mgr.Create(asti.SessionConfig{Dataset: "chain", Eta: 4, Seed: 2})
	if err != nil {
		panic(err)
	}
	batch, err := s.NextBatch()
	if err != nil {
		panic(err)
	}
	if _, err := s.Observe(batch); err != nil {
		panic(err)
	}
	id := s.ID()

	// The hourly sweep would do this on its own; force it for the example.
	if _, err := mgr.Passivate(id); err != nil {
		panic(err)
	}
	fmt.Println("passivated sessions:", mgr.Metrics().Passivated)

	// Any lookup transparently reactivates from the journal.
	resumed, err := mgr.Session(id)
	if err != nil {
		panic(err)
	}
	st := resumed.Status()
	fmt.Println("resumed at round:", st.Round, "phase:", st.Phase, "passivations:", st.Passivations)
	if _, err := resumed.NextBatch(); err != nil {
		panic(err)
	}
	fmt.Println("round after resume:", resumed.Status().Round)
	// Output:
	// passivated sessions: 1
	// resumed at round: 1 phase: propose passivations: 1
	// round after resume: 2
}

// TestOpenSessionMatchesRunAdaptive checks the facade contract: a session
// fed a world's own observations reproduces RunAdaptive on that world.
func TestOpenSessionMatchesRunAdaptive(t *testing.T) {
	g, err := asti.GenerateDataset("synth-nethept", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	eta := int64(float64(g.N()) * 0.1)
	world := asti.SampleRealization(g, asti.IC, 17)

	runPolicy, err := asti.NewASTI(0.5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := asti.RunAdaptive(g, asti.IC, eta, runPolicy, world, 23)
	if err != nil {
		t.Fatal(err)
	}

	sessPolicy, err := asti.NewASTI(0.5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := asti.OpenSession(g, asti.IC, eta, sessPolicy, 23)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for {
		batch, err := s.NextBatch()
		if errors.Is(err, asti.ErrSessionDone) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		// Observe is lenient about already-active ids, so replaying the
		// whole-graph spread of each batch is a valid client.
		prog, err := s.Observe(world.Spread(batch, nil))
		if err != nil {
			t.Fatal(err)
		}
		if prog.Done {
			break
		}
	}
	got := s.Result()
	if fmt.Sprint(got.Seeds) != fmt.Sprint(want.Seeds) {
		t.Errorf("session seeds %v != RunAdaptive seeds %v", got.Seeds, want.Seeds)
	}
	if got.Spread != want.Spread {
		t.Errorf("session spread %d != RunAdaptive spread %d", got.Spread, want.Spread)
	}
}
