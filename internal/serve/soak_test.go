package serve_test

import (
	"errors"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asti/internal/serve"
)

// soakDuration returns the wall-clock budget for the soak test: a short
// burst by default (kept under the race detector's patience in CI), or
// whatever ASTI_SOAK parses to for nightly runs (e.g. ASTI_SOAK=60s).
func soakDuration(t *testing.T) time.Duration {
	t.Helper()
	if v := os.Getenv("ASTI_SOAK"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			t.Fatalf("ASTI_SOAK=%q: %v", v, err)
		}
		return d
	}
	return 1500 * time.Millisecond
}

// TestSoakPhaseCensus hammers one journaled manager from many goroutines
// with the full client verb set — create, next, observe, passivate,
// close — plus a passivation churner and a metrics prober, for a bounded
// wall clock. It asserts, mid-run and at quiescence, the phase-census
// invariant: the sum of the per-phase gauges equals the number of live
// sessions, and at quiescence the O(1) passivated gauge of Snapshot
// equals the table-walking census of Metrics. Run it under -race;
// that is the point. Skipped under -short.
func TestSoakPhaseCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	reg := testRegistry(t)
	mgr := serve.NewManager(reg, 256, serve.WithJournalDir(t.TempDir()))
	defer mgr.CloseAll()

	const workers = 8
	deadline := time.Now().Add(soakDuration(t))
	var (
		created atomic.Uint64 // successful Create calls
		closed  atomic.Uint64 // successful Close calls
		nexts   atomic.Uint64 // successful NextBatch calls
		obs     atomic.Uint64 // successful Observe calls
		stop    atomic.Bool
	)

	// expected filters the sentinel errors a concurrent client legally
	// sees: its session was passivated under it, a batch it raced itself
	// on, a campaign that finished. Anything else is a soak failure.
	expected := func(err error) bool {
		return errors.Is(err, serve.ErrBatchPending) ||
			errors.Is(err, serve.ErrNoBatchPending) ||
			errors.Is(err, serve.ErrDone) ||
			errors.Is(err, serve.ErrClosed) ||
			errors.Is(err, serve.ErrPassivated) ||
			errors.Is(err, serve.ErrTooManySessions)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(w) + 1))
			var ids []string
			for !stop.Load() && time.Now().Before(deadline) {
				op := rnd.Intn(10)
				switch {
				case op < 3 || len(ids) == 0: // create
					if len(ids) >= 8 {
						break
					}
					s, err := mgr.Create(serve.Config{
						Dataset: "test",
						EtaFrac: 0.1,
						Seed:    uint64(w)*1000 + uint64(len(ids)) + 1,
						Workers: 1,
					})
					if err != nil {
						if !expected(err) {
							t.Errorf("Create: %v", err)
							stop.Store(true)
						}
						break
					}
					created.Add(1)
					ids = append(ids, s.ID())
				case op < 6: // next
					s, err := mgr.Session(ids[rnd.Intn(len(ids))])
					if err != nil {
						if !errors.Is(err, serve.ErrUnknownSession) && !expected(err) {
							t.Errorf("Session: %v", err)
							stop.Store(true)
						}
						break
					}
					if _, err := s.NextBatch(); err != nil {
						if !expected(err) {
							t.Errorf("NextBatch: %v", err)
							stop.Store(true)
						}
						break
					}
					nexts.Add(1)
				case op < 8: // observe (empty delta is always legal)
					s, err := mgr.Session(ids[rnd.Intn(len(ids))])
					if err != nil {
						break
					}
					if _, err := s.Observe(nil); err != nil {
						if !expected(err) {
							t.Errorf("Observe: %v", err)
							stop.Store(true)
						}
						break
					}
					obs.Add(1)
				case op < 9: // passivate one of ours
					if _, err := mgr.Passivate(ids[rnd.Intn(len(ids))]); err != nil {
						if !errors.Is(err, serve.ErrUnknownSession) && !expected(err) {
							t.Errorf("Passivate: %v", err)
							stop.Store(true)
						}
					}
				default: // close
					i := rnd.Intn(len(ids))
					if err := mgr.Close(ids[i]); err != nil {
						if !errors.Is(err, serve.ErrUnknownSession) && !expected(err) {
							t.Errorf("Close: %v", err)
							stop.Store(true)
						}
						break
					}
					closed.Add(1)
					ids = append(ids[:i], ids[i+1:]...)
				}
			}
			// Leave leftover sessions open: the quiescent census below
			// must balance with live sessions present, not on an empty
			// table.
		}(w)
	}

	// Churner: passivate everything idle, constantly. This is the
	// passivation pressure the phase gauges must stay consistent under.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() && time.Now().Before(deadline) {
			mgr.PassivateIdle(0)
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// Prober: mid-run census. Metrics walks the live table, so every
	// snapshot — taken while creates, closes and passivations are in
	// flight — must still satisfy the phase-census invariant.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() && time.Now().Before(deadline) {
			mt := mgr.Metrics()
			sum := 0
			for phase, n := range mt.Phases {
				if n < 0 {
					t.Errorf("mid-run: negative phase gauge %s=%d", phase, n)
					stop.Store(true)
				}
				sum += n
			}
			if sum != mt.Sessions {
				t.Errorf("mid-run: phase census %d != sessions %d (%v)", sum, mt.Sessions, mt.Phases)
				stop.Store(true)
			}
			// The O(1) gauge moves while the walk runs, so mid-run it
			// can only be checked for underflow; the quiescent census
			// below pins it to the walked count exactly.
			if g := int64(mt.Counters[serve.Passivated]); g < 0 {
				t.Errorf("mid-run: passivated gauge is negative (%d)", g)
				stop.Store(true)
			}
			mgr.Snapshot()
			mgr.List()
			time.Sleep(2 * time.Millisecond)
		}
	}()

	wg.Wait()

	// Quiescent census: with all clients stopped, the counters must
	// balance exactly.
	st := mgr.Snapshot()
	mt := mgr.Metrics()
	wantLive := int(created.Load() - closed.Load())
	if st.Sessions != wantLive {
		t.Errorf("live sessions = %d, want created-closed = %d-%d = %d",
			st.Sessions, created.Load(), closed.Load(), wantLive)
	}
	if mt.Sessions != wantLive {
		t.Errorf("Metrics.Sessions = %d, want %d", mt.Sessions, wantLive)
	}
	sum := 0
	for _, n := range mt.Phases {
		sum += n
	}
	if sum != mt.Sessions {
		t.Errorf("quiescent phase census %d != sessions %d (%v)", sum, mt.Sessions, mt.Phases)
	}
	if st.Counters[serve.Passivated] != mt.Counters[serve.Passivated] {
		t.Errorf("Snapshot passivated gauge = %d, Metrics = %d", st.Counters[serve.Passivated], mt.Counters[serve.Passivated])
	}
	if mt.Phases[serve.PhasePassivated.String()] != int(mt.Counters[serve.Passivated]) {
		t.Errorf("passivated gauge %d != phase count %d",
			mt.Counters[serve.Passivated], mt.Phases[serve.PhasePassivated.String()])
	}
	// The load-facing throughput counters must agree with the client's
	// own bookkeeping: every acknowledged success counted exactly once,
	// replays (passivation churn forces plenty of reactivations) excluded.
	if st.Counters[serve.Creates] != created.Load() {
		t.Errorf("Creates = %d, client saw %d", st.Counters[serve.Creates], created.Load())
	}
	if st.Counters[serve.Closes] != closed.Load() {
		t.Errorf("Closes = %d, client saw %d", st.Counters[serve.Closes], closed.Load())
	}
	if st.Counters[serve.Proposals] != nexts.Load() {
		t.Errorf("Proposals = %d, client saw %d successful NextBatch calls", st.Counters[serve.Proposals], nexts.Load())
	}
	if st.Counters[serve.Observations] != obs.Load() {
		t.Errorf("Observations = %d, client saw %d successful Observe calls", st.Counters[serve.Observations], obs.Load())
	}
	if created.Load() == 0 || nexts.Load() == 0 {
		t.Errorf("soak did no work: creates=%d nexts=%d", created.Load(), nexts.Load())
	}
	t.Logf("soak: creates=%d closes=%d nexts=%d observes=%d passivations=%d reactivations=%d",
		created.Load(), closed.Load(), nexts.Load(), obs.Load(), st.Counters[serve.Passivations], st.Counters[serve.Reactivations])
}
