package serve_test

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"testing"

	"asti/internal/graph"
	"asti/internal/rng"
	"asti/internal/serve"
)

// model_test.go checks the Manager's session lifecycle against a small
// reference model. A seeded random driver applies create, next,
// observe, lookup, close, passivate and crash-restart to a journaled
// Manager and to the model, and after every operation compares the
// returned error, each session's phase and round, the phase census and
// the snapshot counters.

// modelSession is the model's view of one session. Observations echo
// the proposed batch, so a campaign of threshold eta under ASTI (one
// seed a round) is done after exactly eta rounds.
type modelSession struct {
	phase  string // "propose", "observe", "done" or "passivated"
	parked string // the phase a passivated session resumes in
	round  int    // proposals made (Status.Round)
	eta    int
	closed bool
	// handle is what a call through the driver's session pointer returns
	// before any phase check: nil while it points at the session, else
	// ErrClosed. Passivation never invalidates it.
	handle error
	// The newest checkpoint: the committed rounds it covers, whether it
	// carries a pending batch, and whether the log holds one at all.
	ckptRound   int
	ckptPending bool
	hasCkpt     bool
}

func (ms *modelSession) committed() int {
	if ms.phase == "observe" {
		return ms.round - 1
	}
	return ms.round
}

// model is the reference manager: sessions by id, the id counter, and
// the since-boot counters.
type model struct {
	limit, every, nextID int
	s                    map[string]*modelSession
	c                    map[serve.Counter]uint64
}

func (m *model) open() (n int) {
	for _, ms := range m.s {
		if !ms.closed {
			n++
		}
	}
	return n
}

func (m *model) create(dataset string, eta int) (string, error) {
	if dataset != "tiny" {
		return "", serve.ErrUnknownDataset
	}
	if m.open() >= m.limit {
		return "", serve.ErrTooManySessions
	}
	m.nextID++
	id := "s" + strconv.Itoa(m.nextID)
	m.s[id] = &modelSession{phase: "propose", eta: eta}
	m.c[serve.Creates]++
	return id, nil
}

func (m *model) next(id string) error {
	ms := m.s[id]
	if ms.handle != nil {
		return ms.handle
	}
	m.restore(ms)
	switch ms.phase {
	case "done":
		return serve.ErrDone
	case "observe":
		return serve.ErrBatchPending
	}
	ms.round++
	ms.phase = "observe"
	m.c[serve.Proposals]++
	return nil
}

func (m *model) observe(id string) error {
	ms := m.s[id]
	if ms.handle != nil {
		return ms.handle
	}
	m.restore(ms)
	if ms.phase != "observe" {
		return serve.ErrNoBatchPending
	}
	ms.phase = "propose"
	if ms.round == ms.eta {
		ms.phase = "done"
	}
	if ms.round%m.every == 0 || ms.phase == "done" {
		m.checkpoint(ms)
	}
	m.c[serve.Observations]++
	return nil
}

// checkpoint writes a checkpoint of ms's state; compaction follows it.
func (m *model) checkpoint(ms *modelSession) {
	ms.ckptRound, ms.ckptPending, ms.hasCkpt = ms.committed(), ms.phase == "observe", true
	m.c[serve.Checkpoints]++
	m.c[serve.Compactions]++
}

func (m *model) lookup(id string) error {
	ms := m.s[id]
	if ms == nil || ms.closed {
		return serve.ErrUnknownSession
	}
	ms.handle = nil
	m.restore(ms)
	return nil
}

// restore brings a passivated session back in the phase it was parked in,
// from its checkpoint if the log holds one.
func (m *model) restore(ms *modelSession) {
	if ms.phase != "passivated" {
		return
	}
	ms.phase = ms.parked
	m.c[serve.Reactivations]++
	m.c[serve.Passivated]--
	if ms.hasCkpt {
		m.c[serve.CheckpointRestores]++
	}
}

func (m *model) passivate(id string) (bool, error) {
	ms := m.s[id]
	if ms == nil || ms.closed {
		return false, serve.ErrUnknownSession
	}
	if ms.phase == "passivated" {
		return false, nil
	}
	if ms.ckptRound != ms.committed() || ms.ckptPending != (ms.phase == "observe") {
		m.checkpoint(ms)
	}
	ms.parked, ms.phase = ms.phase, "passivated"
	m.c[serve.Passivations]++
	m.c[serve.Passivated]++
	return true, nil
}

func (m *model) close(id string) error {
	ms := m.s[id]
	if ms == nil || ms.closed {
		return serve.ErrUnknownSession
	}
	if ms.phase == "passivated" {
		m.c[serve.Passivated]--
	}
	ms.closed, ms.handle = true, serve.ErrClosed
	m.c[serve.Closes]++
	return nil
}

// restart is CloseAll and Recover on a fresh manager: every handle is
// released, counters start from zero, open sessions come back live in
// the phase they would resume in (from their checkpoint, if any), and
// ids continue past the highest surviving one.
func (m *model) restart() (recovered int) {
	m.c = map[serve.Counter]uint64{}
	m.nextID = 0
	for id, ms := range m.s {
		ms.handle = serve.ErrClosed
		if ms.closed {
			continue
		}
		recovered++
		if ms.phase == "passivated" {
			ms.phase = ms.parked
		}
		if ms.hasCkpt {
			m.c[serve.CheckpointRestores]++
		}
		n, _ := strconv.Atoi(id[1:])
		m.nextID = max(m.nextID, n)
	}
	return recovered
}

// modelCounters are the snapshot counters the model predicts.
var modelCounters = map[serve.Counter]string{
	serve.Creates: "creates", serve.Closes: "closes", serve.Proposals: "proposals",
	serve.Observations: "observations", serve.Passivations: "passivations",
	serve.Reactivations: "reactivations", serve.Passivated: "passivated",
	serve.Checkpoints: "checkpoints", serve.Compactions: "compactions",
	serve.CheckpointRestores: "checkpoint restores",
}

// tinyRegistry registers a 40-node random graph as "tiny".
func tinyRegistry(t *testing.T) *serve.Registry {
	t.Helper()
	const n = 40
	b := graph.NewBuilder(n)
	r := rng.New(5)
	for u := int32(0); u < n; u++ {
		for k := 0; k < 3; k++ {
			if v := r.Int31n(n); v != u {
				b.AddEdge(u, v, 0.2)
			}
		}
	}
	g, err := b.Build("tiny", true)
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry()
	if err := reg.RegisterGraph("tiny", g); err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestLifecycleModel drives a journaled Manager with random lifecycle
// operations and checks it against the model after each one. Across the
// seeds every operation must succeed at least once and every error the
// model predicts must occur, so the driver keeps reaching the states
// worth checking.
func TestLifecycleModel(t *testing.T) {
	seen := map[string]bool{}
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runLifecycleModel(t, seed, 400, seen) })
	}
	for _, want := range []string{
		"create", "next", "observe", "lookup", "passivate", "close", "restart",
		"reactivate", "restore", "step restore", serve.ErrUnknownDataset.Error(), serve.ErrTooManySessions.Error(),
		serve.ErrUnknownSession.Error(), serve.ErrClosed.Error(),
		serve.ErrDone.Error(), serve.ErrBatchPending.Error(), serve.ErrNoBatchPending.Error(),
	} {
		if !seen[want] {
			t.Errorf("no operation covered %q", want)
		}
	}
}

// runLifecycleModel applies ops random operations, recording in seen
// each operation that succeeded and each error that was returned.
func runLifecycleModel(t *testing.T, seed uint64, ops int, seen map[string]bool) {
	const limit, every = 5, 2
	reg, dir := tinyRegistry(t), t.TempDir()
	boot := func() *serve.Manager {
		return serve.NewManager(reg, limit, serve.WithJournalDir(dir), serve.WithCheckpointEvery(every))
	}
	mgr := boot()
	defer func() { mgr.CloseAll() }()
	ref := &model{limit: limit, every: every, s: map[string]*modelSession{}, c: map[serve.Counter]uint64{}}
	handles := map[string]*serve.Session{} // the driver's session pointers
	batches := map[string][]int32{}        // each session's last proposal, echoed by observe
	r := rng.New(seed)

	// pick mostly targets open sessions, sometimes a closed one (stale
	// handle, unknown id) and sometimes an id never issued.
	pick := func() string {
		var open, all []string
		for id, ms := range ref.s {
			all = append(all, id)
			if !ms.closed {
				open = append(open, id)
			}
		}
		sort.Strings(open)
		sort.Strings(all)
		switch k := r.Intn(20); {
		case k < 17 && len(open) > 0:
			return open[r.Intn(len(open))]
		case k < 19 && len(all) > 0:
			return all[r.Intn(len(all))]
		}
		return "s99"
	}
	for i := 0; i < ops; i++ {
		var op string
		var got, want error
		restores, reactivations := ref.c[serve.CheckpointRestores], ref.c[serve.Reactivations]
		switch k := r.Intn(100); {
		case k < 14:
			dataset, eta := "tiny", 1+r.Intn(4)
			if r.Intn(10) == 0 {
				dataset = "missing"
			}
			op = "create"
			var id string
			id, want = ref.create(dataset, eta)
			var s *serve.Session
			s, got = mgr.Create(serve.Config{Dataset: dataset, Eta: int64(eta), Seed: r.Uint64(), Workers: 1})
			if got == nil {
				if s.ID() != id {
					t.Fatalf("op %d: created %s, model expected %s", i, s.ID(), id)
				}
				handles[id] = s
			}
		case k < 40:
			id := pick()
			if handles[id] == nil {
				continue
			}
			op, want = "next", ref.next(id)
			var p serve.Proposal
			if p, got = handles[id].Propose(); got == nil {
				batches[id] = p.Seeds
			}
		case k < 66:
			id := pick()
			if handles[id] == nil {
				continue
			}
			op, want = "observe", ref.observe(id)
			_, got = handles[id].Observe(batches[id])
		case k < 82:
			id := pick()
			op = "lookup"
			if ref.s[id] != nil && !ref.s[id].closed && ref.s[id].phase == "passivated" {
				op = "reactivate"
			}
			same := ref.s[id] != nil && ref.s[id].handle == nil
			want = ref.lookup(id)
			var s *serve.Session
			if s, got = mgr.Session(id); got == nil {
				if same && s != handles[id] {
					t.Fatalf("op %d: lookup of %s returned another *Session than the driver holds", i, id)
				}
				handles[id] = s
			}
		case k < 91:
			id := pick()
			op = "passivate"
			var ok, wantOK bool
			wantOK, want = ref.passivate(id)
			if ok, got = mgr.Passivate(id); ok != wantOK {
				t.Fatalf("op %d: passivated=%v, model %v", i, ok, wantOK)
			}
		case k < 99:
			id := pick()
			op, want, got = "close", ref.close(id), mgr.Close(id)
		default:
			op = "restart"
			mgr.CloseAll()
			mgr = boot()
			wantRecovered := ref.restart()
			rep, err := mgr.Recover("")
			if err != nil {
				t.Fatalf("op %d: Recover: %v", i, err)
			}
			if rep.Recovered != wantRecovered || rep.Skipped != 0 || rep.Closed != 0 {
				t.Fatalf("op %d: recovery %+v, model recovered %d", i, rep, wantRecovered)
			}
		}
		if (got == nil) != (want == nil) || (want != nil && !errors.Is(got, want)) {
			t.Fatalf("op %d: %s returned %v, model %v", i, op, got, want)
		}
		if want != nil {
			seen[want.Error()] = true
		} else {
			seen[op] = true
		}
		if ref.c[serve.CheckpointRestores] > restores && op != "restart" {
			seen["restore"] = true
		}
		if ref.c[serve.Reactivations] > reactivations && (op == "next" || op == "observe") {
			seen["step restore"] = true
		}
		checkModel(t, i, op, mgr, ref)
	}
}

// checkModel compares the manager with the model: every open session's
// phase and round, the phase census, and the snapshot counters.
func checkModel(t *testing.T, i int, op string, mgr *serve.Manager, ref *model) {
	t.Helper()
	census := map[string]int{}
	for _, ms := range ref.s {
		if !ms.closed {
			census[ms.phase]++
		}
	}
	list := mgr.List()
	if len(list) != ref.open() {
		t.Fatalf("op %d (%s): %d sessions listed, model has %d", i, op, len(list), ref.open())
	}
	for _, st := range list {
		ms := ref.s[st.ID]
		if ms == nil || ms.closed || st.Phase != ms.phase || st.Round != ms.round {
			t.Fatalf("op %d (%s): %s is %s at round %d, model %+v", i, op, st.ID, st.Phase, st.Round, ms)
		}
	}
	mt := mgr.Metrics()
	for _, ph := range []string{"propose", "observe", "done", "passivated"} {
		if mt.Phases[ph] != census[ph] {
			t.Fatalf("op %d (%s): census %v, model %v", i, op, mt.Phases, census)
		}
	}
	snap := mgr.Snapshot()
	if snap.Sessions != ref.open() {
		t.Fatalf("op %d (%s): %d sessions, model %d", i, op, snap.Sessions, ref.open())
	}
	for c, name := range modelCounters {
		if snap.Counters[c] != ref.c[c] {
			t.Fatalf("op %d (%s): %s = %d, model %d", i, op, name, snap.Counters[c], ref.c[c])
		}
	}
}
