package serve_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asti/internal/adaptive"
	"asti/internal/bitset"
	"asti/internal/diffusion"
	"asti/internal/gen"
	"asti/internal/graph"
	"asti/internal/rng"
	"asti/internal/serve"
	"asti/internal/trim"
)

// testGraph generates a small synthetic graph shared by the tests.
func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	spec, err := gen.Dataset("synth-nethept")
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Generate(0.05)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// testRegistry returns a registry with the test graph under "test".
func testRegistry(t testing.TB) *serve.Registry {
	t.Helper()
	reg := serve.NewRegistry()
	if err := reg.RegisterGraph("test", testGraph(t)); err != nil {
		t.Fatal(err)
	}
	return reg
}

// drive plays a session to completion against one realization, keeping a
// client-side mirror of the active set (the session's own state is
// opaque, as it would be over HTTP). Returns the seed sequence.
func drive(t *testing.T, s *serve.Session, φ *diffusion.Realization) []int32 {
	t.Helper()
	mirror := bitset.New(int(φ.Graph().N()))
	var seeds []int32
	for {
		batch, err := s.NextBatch()
		if errors.Is(err, serve.ErrDone) {
			break
		}
		if err != nil {
			t.Fatalf("NextBatch: %v", err)
		}
		seeds = append(seeds, batch...)
		newly := φ.Spread(batch, mirror)
		for _, v := range newly {
			mirror.Set(v)
		}
		prog, err := s.Observe(newly)
		if err != nil {
			t.Fatalf("Observe: %v", err)
		}
		if prog.Done {
			break
		}
	}
	return seeds
}

func TestRegistryLoadsOnce(t *testing.T) {
	reg := serve.NewRegistry()
	var loads atomic.Int64
	err := reg.RegisterLoader("lazy", func() (*graph.Graph, error) {
		loads.Add(1)
		b := graph.NewBuilder(2)
		b.AddEdge(0, 1, 1)
		return b.Build("lazy", true)
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	graphs := make([]*graph.Graph, 8)
	for i := range graphs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := reg.Graph("lazy")
			if err != nil {
				t.Error(err)
			}
			graphs[i] = g
		}(i)
	}
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Errorf("loader ran %d times, want 1", n)
	}
	for _, g := range graphs[1:] {
		if g != graphs[0] {
			t.Error("concurrent Graph calls returned different graphs")
		}
	}
}

func TestRegistryErrors(t *testing.T) {
	reg := testRegistry(t)
	if _, err := reg.Graph("no-such-dataset"); err == nil {
		t.Error("unknown dataset accepted")
	}
	if err := reg.RegisterGraph("test", testGraph(t)); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := reg.RegisterLoader("", nil); err == nil {
		t.Error("empty name accepted")
	}
	failing := serve.NewRegistry()
	if err := failing.RegisterLoader("bad", func() (*graph.Graph, error) {
		return nil, errors.New("boom")
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // error is cached, not retried into success
		if _, err := failing.Graph("bad"); err == nil {
			t.Error("failing loader produced no error")
		}
	}
	names := reg.Names()
	if len(names) != 1 || names[0] != "test" {
		t.Errorf("Names() = %v, want [test]", names)
	}
}

func TestSyntheticRegistryNames(t *testing.T) {
	reg := serve.NewSyntheticRegistry(0.05)
	names := reg.Names()
	if len(names) != len(gen.Datasets()) {
		t.Fatalf("got %d datasets, want %d", len(names), len(gen.Datasets()))
	}
	for _, spec := range gen.Datasets() {
		if _, err := reg.Graph(spec.Name); err != nil {
			t.Errorf("Graph(%s): %v", spec.Name, err)
		}
	}
}

// TestSessionMatchesAdaptiveRun is the session determinism contract: the
// split NextBatch/Observe loop fed φ's observations must reproduce
// adaptive.Run on the same φ and seed exactly, seed for seed, for TRIM
// and TRIM-B under both models.
func TestSessionMatchesAdaptiveRun(t *testing.T) {
	g := testGraph(t)
	eta := int64(float64(g.N()) * 0.1)
	const seed = 7
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		for _, batch := range []int{1, 3} {
			cfg := trim.Config{Epsilon: 0.5, Batch: batch, Truncated: true}
			t.Run(trim.MustNew(cfg).Name()+"/"+model.String(), func(t *testing.T) {
				φ := diffusion.SampleRealization(g, model, rng.New(99))
				pol := trim.MustNew(cfg)
				want, err := adaptive.Run(g, model, eta, pol, φ, rng.New(seed))
				pol.Close()
				if err != nil {
					t.Fatal(err)
				}

				s, err := serve.NewSession(g, model, eta, trim.MustNew(cfg), seed)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				got := drive(t, s, φ)

				if fmt.Sprint(got) != fmt.Sprint(want.Seeds) {
					t.Errorf("session seeds %v != adaptive.Run seeds %v", got, want.Seeds)
				}
				res := s.Result()
				if res.Spread != want.Spread || !res.ReachedEta {
					t.Errorf("session spread %d reached=%v, want %d reached=true",
						res.Spread, res.ReachedEta, want.Spread)
				}
				if len(res.Rounds) != len(want.Rounds) {
					t.Fatalf("session rounds %d != adaptive rounds %d", len(res.Rounds), len(want.Rounds))
				}
				for i := range res.Rounds {
					if res.Rounds[i].Marginal != want.Rounds[i].Marginal ||
						res.Rounds[i].NiBefore != want.Rounds[i].NiBefore ||
						res.Rounds[i].EtaIBefore != want.Rounds[i].EtaIBefore {
						t.Errorf("round %d trace %+v != %+v", i, res.Rounds[i], want.Rounds[i])
					}
				}
			})
		}
	}
}

// panicPolicy panics on every selection.
type panicPolicy struct{}

func (panicPolicy) Name() string { return "panics" }

func (panicPolicy) SelectBatch(*adaptive.State) ([]int32, error) { panic("policy bug") }

// TestPolicyPanicPoisonsSession: a panic inside the policy closes the
// session the way a lost journal does. The step's error wraps ErrClosed
// (410 over HTTP) and names the panic, the round is not counted, and
// every later step is refused.
func TestPolicyPanicPoisonsSession(t *testing.T) {
	s, err := serve.NewSession(testGraph(t), diffusion.IC, 10, panicPolicy{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Propose(); !errors.Is(err, serve.ErrClosed) || !strings.Contains(err.Error(), "policy bug") {
		t.Fatalf("Propose after a policy panic: %v, want ErrClosed naming the panic", err)
	}
	st := s.Status()
	if st.Phase != "closed" || st.Round != 0 || !strings.Contains(st.LastFailure, "policy bug") {
		t.Fatalf("status after a policy panic: phase %q round %d last_failure %q", st.Phase, st.Round, st.LastFailure)
	}
	if _, err := s.Propose(); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("second Propose: %v, want ErrClosed", err)
	}
}

// TestSteppedSessionsHoldNoGoroutines: a session whose first proposal
// fanned its sampling out over the default worker count holds no
// goroutines once the step returns.
func TestSteppedSessionsHoldNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	mgr := serve.NewManager(testRegistry(t), 0)
	defer mgr.CloseAll()
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		s, err := mgr.Create(serve.Config{Dataset: "test", Policy: "ASTI-8", EtaFrac: 0.1, Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.NextBatch(); err != nil {
			t.Fatal(err)
		}
	}
	// A joined goroutine may take a moment to exit after signalling.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if held := runtime.NumGoroutine() - before; held > 0 {
		t.Errorf("10 stepped sessions hold %d goroutines", held)
	}
}

// TestConcurrentSessionsDeterministic runs many sessions with the same
// config concurrently on one shared registry graph: every session must
// propose the identical batch sequence (run under -race in CI).
func TestConcurrentSessionsDeterministic(t *testing.T) {
	reg := testRegistry(t)
	mgr := serve.NewManager(reg, 0)
	g, err := reg.Graph("test")
	if err != nil {
		t.Fatal(err)
	}
	φ := diffusion.SampleRealization(g, diffusion.IC, rng.New(3))

	const sessions = 8
	seqs := make([][]int32, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := mgr.Create(serve.Config{Dataset: "test", EtaFrac: 0.1, Seed: 42, Workers: 1 + i%3})
			if err != nil {
				t.Error(err)
				return
			}
			defer mgr.Close(s.ID())
			seqs[i] = drive(t, s, φ)
		}(i)
	}
	wg.Wait()
	for i := 1; i < sessions; i++ {
		if fmt.Sprint(seqs[i]) != fmt.Sprint(seqs[0]) {
			t.Errorf("session %d selected %v, session 0 selected %v", i, seqs[i], seqs[0])
		}
	}
	if n := len(mgr.List()); n != 0 {
		t.Errorf("%d sessions left open after Close", n)
	}
}

func TestSessionLifecycleErrors(t *testing.T) {
	reg := testRegistry(t)
	mgr := serve.NewManager(reg, 0)

	if _, err := mgr.Create(serve.Config{Dataset: "nope"}); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := mgr.Create(serve.Config{Dataset: "test", Policy: "nope"}); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := mgr.Create(serve.Config{Dataset: "test", Eta: 1 << 40}); err == nil {
		t.Error("eta > n accepted")
	}
	if _, err := mgr.Create(serve.Config{Dataset: "test", Epsilon: 2}); err == nil {
		t.Error("epsilon >= 1 accepted")
	}

	s, err := mgr.Create(serve.Config{Dataset: "test", EtaFrac: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Observe before any NextBatch.
	if _, err := s.Observe(nil); !errors.Is(err, serve.ErrNoBatchPending) {
		t.Errorf("observe-before-next: got %v, want ErrNoBatchPending", err)
	}
	batch, err := s.NextBatch()
	if err != nil {
		t.Fatal(err)
	}
	// Double NextBatch while a batch is pending.
	if _, err := s.NextBatch(); !errors.Is(err, serve.ErrBatchPending) {
		t.Errorf("double NextBatch: got %v, want ErrBatchPending", err)
	}
	// Out-of-range observation.
	if _, err := s.Observe([]int32{-1}); err == nil {
		t.Error("negative node id accepted")
	}
	if _, err := s.Observe([]int32{s.Graph().N()}); err == nil {
		t.Error("node id == n accepted")
	}
	if _, err := s.Observe(batch); err != nil {
		t.Fatalf("valid observe failed: %v", err)
	}
	// Double observe.
	if _, err := s.Observe(nil); !errors.Is(err, serve.ErrNoBatchPending) {
		t.Errorf("double observe: got %v, want ErrNoBatchPending", err)
	}

	// Step after close.
	mgr.Close(s.ID())
	if _, err := s.NextBatch(); !errors.Is(err, serve.ErrClosed) {
		t.Errorf("NextBatch after close: got %v, want ErrClosed", err)
	}
	if _, err := s.Observe(nil); !errors.Is(err, serve.ErrClosed) {
		t.Errorf("Observe after close: got %v, want ErrClosed", err)
	}
	s.Close() // idempotent
	if _, err := mgr.Session(s.ID()); err == nil {
		t.Error("closed session still resolvable")
	}
	if err := mgr.Close("s999"); err == nil {
		t.Error("closing unknown session succeeded")
	}
}

func TestSessionDoneAndStatus(t *testing.T) {
	g := testGraph(t)
	// η = 1: the first observation finishes the campaign.
	pol := trim.MustNew(trim.Config{Epsilon: 0.5, Batch: 1, Truncated: true})
	s, err := serve.NewSession(g, diffusion.IC, 1, pol, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	st := s.Status()
	if st.Phase != "propose" || st.Round != 0 || st.Activated != 0 || st.EtaI != 1 {
		t.Errorf("fresh status %+v", st)
	}
	batch, err := s.NextBatch()
	if err != nil {
		t.Fatal(err)
	}
	st = s.Status()
	if st.Phase != "observe" || len(st.Pending) != len(batch) {
		t.Errorf("pending status %+v", st)
	}
	prog, err := s.Observe(nil) // seeds alone reach η = 1
	if err != nil {
		t.Fatal(err)
	}
	if !prog.Done || prog.Activated < 1 || prog.EtaI != 0 {
		t.Errorf("progress %+v, want done", prog)
	}
	if _, err := s.NextBatch(); !errors.Is(err, serve.ErrDone) {
		t.Errorf("NextBatch after done: got %v, want ErrDone", err)
	}
	st = s.Status()
	if !st.Done || st.Phase != "done" || st.Seeds != len(batch) {
		t.Errorf("done status %+v", st)
	}
}

func TestManagerSessionLimit(t *testing.T) {
	mgr := serve.NewManager(testRegistry(t), 2)
	a, err := mgr.Create(serve.Config{Dataset: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Create(serve.Config{Dataset: "test"}); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Create(serve.Config{Dataset: "test"}); !errors.Is(err, serve.ErrTooManySessions) {
		t.Errorf("third session: got %v, want ErrTooManySessions", err)
	}
	if err := mgr.Close(a.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Create(serve.Config{Dataset: "test"}); err != nil {
		t.Errorf("create after close: %v", err)
	}
	if got := len(mgr.List()); got != 2 {
		t.Errorf("List() has %d sessions, want 2", got)
	}
	mgr.CloseAll()
	if got := len(mgr.List()); got != 0 {
		t.Errorf("List() has %d sessions after CloseAll, want 0", got)
	}
}

// TestObserveLenientAlreadyActive verifies callers may resend their full
// activated set: already-active ids are ignored, not double-counted.
func TestObserveLenientAlreadyActive(t *testing.T) {
	g := testGraph(t)
	pol := trim.MustNew(trim.Config{Epsilon: 0.5, Batch: 1, Truncated: true})
	eta := int64(float64(g.N()) * 0.5)
	s, err := serve.NewSession(g, diffusion.IC, eta, pol, 11)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b1, err := s.NextBatch()
	if err != nil {
		t.Fatal(err)
	}
	p1, err := s.Observe(b1)
	if err != nil {
		t.Fatal(err)
	}
	if p1.NewlyActivated != int64(len(b1)) {
		t.Fatalf("first observe activated %d, want %d", p1.NewlyActivated, len(b1))
	}
	if p1.Done {
		t.Skip("tiny graph finished in one round")
	}
	if _, err = s.NextBatch(); err != nil {
		t.Fatal(err)
	}
	p2, err := s.Observe(b1) // resend round-1 nodes only
	if err != nil {
		t.Fatal(err)
	}
	if p2.NewlyActivated != 1 { // just round 2's seed
		t.Errorf("resent observation newly activated %d, want 1", p2.NewlyActivated)
	}
	if p2.Activated != p1.Activated+1 {
		t.Errorf("total activated %d, want %d", p2.Activated, p1.Activated+1)
	}
}

// TestSessionPoolReuseEquivalence pins the served determinism contract:
// two sessions differing only in DisablePoolReuse propose identical
// batches under identical observations — reuse is a speed knob, never a
// semantics knob, end to end through the session service.
func TestSessionPoolReuseEquivalence(t *testing.T) {
	reg := testRegistry(t)
	mgr := serve.NewManager(reg, 0)
	defer mgr.CloseAll()
	g, err := reg.Graph("test")
	if err != nil {
		t.Fatal(err)
	}
	φ := diffusion.SampleRealization(g, diffusion.IC, rng.New(41))

	run := func(disable bool) []int32 {
		s, err := mgr.Create(serve.Config{
			Dataset: "test", Policy: "ASTI", Eta: int64(float64(g.N()) * 0.25),
			Epsilon: 0.5, Workers: 1, Seed: 7, DisablePoolReuse: disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		return drive(t, s, φ)
	}
	on := run(false)
	off := run(true)
	if len(on) != len(off) {
		t.Fatalf("reuse on proposed %d seeds, off %d", len(on), len(off))
	}
	for i := range on {
		if on[i] != off[i] {
			t.Fatalf("proposal %d differs: %d with reuse vs %d without", i, on[i], off[i])
		}
	}
}
