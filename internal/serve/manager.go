package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"asti/internal/adaptive"
	"asti/internal/diffusion"
	"asti/internal/graph"
	"asti/internal/journal"
	"asti/internal/rrset"
	"asti/internal/trim"
)

// Config describes one session to create through a Manager.
type Config struct {
	// Dataset is the registry name of the graph to campaign on.
	Dataset string
	// Policy names the proposal policy: "ASTI" (TRIM, the default),
	// "ASTI-<b>" (TRIM-B with batch size b), or "AdaptIM" (the
	// untruncated baseline).
	Policy string
	// Model selects the diffusion model (default IC).
	Model diffusion.Model
	// Eta is the absolute threshold η; when 0, EtaFrac applies.
	Eta int64
	// EtaFrac is the threshold as a fraction of n (default 0.05),
	// consulted only when Eta is 0.
	EtaFrac float64
	// Epsilon is the approximation slack ε ∈ (0,1) (default 0.5).
	Epsilon float64
	// Workers sets the session's sampling-engine worker count:
	// 0 = GOMAXPROCS, 1 = sequential. Proposals are identical for every
	// setting.
	Workers int
	// MaxSetsPerRound optionally caps the per-round sample pool
	// (0 = the algorithm's θmax only).
	MaxSetsPerRound int64
	// DisablePoolReuse turns off cross-round sampling-pool reuse for the
	// session's policy (it is on by default). Reuse scales a round's
	// sampling cost with the observation's activation delta instead of
	// θ_max; on or off, the proposed batches are identical — the knob only
	// trades speed, and exists mainly for benchmarking the reuse win.
	DisablePoolReuse bool
	// SamplerVersion pins the sampler's stream-consumption contract for
	// the session (1 = the original per-edge-coin stream, 2 = geometric
	// edge-coin skipping; 0 = the current default, resolved at Create
	// time). The resolved version is written into the session's journal
	// created record, so recovery and reactivation replay the session
	// under the contract it was created with — old write-ahead logs stay
	// byte-for-byte replayable when the default advances. Proposals are
	// identically distributed under every version; the knob trades
	// sampling speed, never output quality.
	SamplerVersion int
	// Seed fixes the session's sampling randomness: equal configs propose
	// equal batches under equal observations.
	Seed uint64
}

// ErrTooManySessions is returned by Create when the manager's session
// cap is reached.
var ErrTooManySessions = errors.New("serve: session limit reached")

// ErrJournalUnhealthy is returned by Create on a journaled manager while
// the journal-health breaker is open: a recent commit or create hit a
// final (post-retry) journal failure, and admitting new durable sessions
// onto a sick disk would only mint more broken campaigns. The breaker
// re-probes after its cooldown — the next Create attempt goes through
// and its outcome re-arms or resets the breaker. Front ends map this to
// 503 with a Retry-After of Manager.BreakerRetryAfter.
var ErrJournalUnhealthy = errors.New("serve: journal unhealthy, not admitting new durable sessions")

// DurabilityPolicy decides what a journaled session does when its
// write-ahead log fails for good (the writer's bounded retries and the
// emergency ENOSPC compaction are already spent).
type DurabilityPolicy int

const (
	// FailStop (the default) closes the session with the cause recorded:
	// the write-ahead contract cannot hold, so the session refuses to
	// acknowledge transitions that would not survive a crash.
	FailStop DurabilityPolicy = iota
	// DegradeToNonDurable keeps the session serving without the journal:
	// Status.Durable flips false and Degraded carries the cause, while
	// the log stays on disk frozen at the last durable transition — a
	// later crash recovers the session there (a rollback the client can
	// see coming, since every acknowledgement after the degrade said
	// Durable=false).
	DegradeToNonDurable
)

// String returns the policy's wire name.
func (p DurabilityPolicy) String() string {
	switch p {
	case FailStop:
		return "fail-stop"
	case DegradeToNonDurable:
		return "degrade"
	default:
		return fmt.Sprintf("DurabilityPolicy(%d)", int(p))
	}
}

// ParseDurabilityPolicy maps a wire name ("fail-stop", "degrade") back
// to its policy.
func ParseDurabilityPolicy(name string) (DurabilityPolicy, error) {
	switch strings.ToLower(name) {
	case "", "fail-stop", "failstop":
		return FailStop, nil
	case "degrade", "degrade-to-non-durable":
		return DegradeToNonDurable, nil
	default:
		return 0, fmt.Errorf("serve: unknown durability policy %q (fail-stop, degrade)", name)
	}
}

// DefaultBreakerCooldown is how long the journal-health breaker keeps
// rejecting new durable sessions after a final journal failure before
// letting a probe create through.
const DefaultBreakerCooldown = 15 * time.Second

// ErrUnknownSession is returned by Session, Close and Passivate for ids
// not in the table (never created, or deleted). Front ends use it to
// separate the caller's 404 from server-side failures: a restore that
// fails (ErrRestoreFailed) is NOT this error — the session still exists,
// the server just could not revive it.
var ErrUnknownSession = errors.New("serve: unknown session")

// Manager owns the session table of a serving process: it resolves
// datasets through a shared Registry, creates and indexes sessions, and
// closes them. With a journal attached (WithJournal / WithJournalDir) it
// write-ahead-logs every session state transition and can rebuild its
// table after a crash with Recover. With an idle TTL (WithIdleTTL) it
// additionally passivates idle durable sessions — their engine and mRR
// pool are released while the journal keeps their state, checkpointed on
// the way out — and restores each in place, from that checkpoint, on its
// next lookup or step. All methods are safe for concurrent use.
type Manager struct {
	reg *Registry

	mu         sync.Mutex
	journal    *journal.Store      // guarded by mu (Recover may attach late)
	journalErr error               // deferred WithJournalDir open failure
	sessions   map[string]*Session // guarded by mu
	nextID     uint64              // guarded by mu
	limit      int
	creating   int // guarded by mu; sessions holding a reserved id while their created record syncs

	// counters holds the since-boot counters, indexed by Counter.
	counters [numCounters]atomic.Uint64

	// Resilience configuration, set at construction and read-only
	// afterwards (no lock needed to read them).
	durability      DurabilityPolicy
	breakerCooldown time.Duration

	// Journal-health breaker state. breakerUntil non-zero and in the
	// future means open (Create rejects durable sessions); a Create
	// arriving after it passes is the probe that closes it.
	breakerUntil time.Time // guarded by mu

	// Checkpointing configuration (ckptEvery, compact: set at
	// construction, read-only afterwards). graphSigs caches the per-graph
	// structural fingerprint that checkpoints pin (computed once per
	// distinct graph).
	ckptEvery int
	compact   bool
	graphSigs map[*graph.Graph]uint64 // guarded by mu

	idleTTL   time.Duration
	sweepStop chan struct{}
	sweepEnd  sync.Once
}

// store returns the attached journal store and any deferred open error.
func (m *Manager) store() (*journal.Store, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.journal, m.journalErr
}

// ManagerOption configures a Manager at construction.
type ManagerOption func(*Manager)

// WithJournal attaches a write-ahead journal store: every session
// created through the manager logs its state transitions (fsynced)
// before acknowledging them, and Recover can rebuild the session table
// from the store after a restart.
func WithJournal(st *journal.Store) ManagerOption {
	return func(m *Manager) {
		//asm:lock-ok construction-time write; options run before NewManager shares m
		m.journal = st
	}
}

// WithJournalDir is WithJournal over journal.Open(dir). The directory is
// created if needed; an open failure is deferred to the first Create or
// Recover call (option functions cannot return errors).
func WithJournalDir(dir string) ManagerOption {
	return func(m *Manager) {
		st, err := journal.Open(dir)
		if err != nil {
			m.journalErr = err
			return
		}
		//asm:lock-ok construction-time write; options run before NewManager shares m
		m.journal = st
	}
}

// WithIdleTTL arms idle-session passivation: a background sweep (every
// ttl/4, clamped to [10ms, 1m]) passivates durable sessions that no
// client call has touched for ttl, releasing their engine and sampling
// pool while the write-ahead journal keeps their state on disk. With
// checkpointing on, each passivation first checkpoints the session (a
// pending batch included), and a sweep that released pool memory ends
// with a garbage collection so the process footprint follows. The
// session stays in the table, and the same *Session stays valid: its
// next lookup, NextBatch/Propose or Observe restores it in place from
// that checkpoint (replaying its log when there is none), and it
// proposes byte-identical batches to an uninterrupted one. Sessions
// without a journal are never passivated (there would be nothing to
// restore from); ttl <= 0 leaves passivation off. CloseAll stops the
// sweep.
func WithIdleTTL(ttl time.Duration) ManagerOption {
	return func(m *Manager) { m.idleTTL = ttl }
}

// WithCheckpointEvery sets the checkpoint interval in committed rounds:
// a journaled session snapshots its resumable state into the log after
// every k rounds (and at campaign completion and passivation), so
// recovery replays at most k rounds past the newest checkpoint instead
// of the whole history, and reactivation replays none. k <= 0 disables
// checkpointing (the journal degrades gracefully to a plain full-replay
// log); without this option a journaled manager checkpoints every
// DefaultCheckpointEvery rounds. Checkpoints are invisible in the output: a session proposes
// byte-identical batches with checkpointing on, off, or restored-from.
func WithCheckpointEvery(k int) ManagerOption {
	return func(m *Manager) {
		if k < 0 {
			k = 0
		}
		m.ckptEvery = k
	}
}

// WithCompaction arms or disarms log truncation past each written
// checkpoint (on by default). With compaction off the log keeps its full
// history — checkpoints still accelerate recovery, and a distrusted
// checkpoint can still fall back to replay-from-zero; operators who want
// an audit trail of every transition trade disk growth for it.
func WithCompaction(on bool) ManagerOption {
	return func(m *Manager) { m.compact = on }
}

// WithDurabilityPolicy selects what journaled sessions do when their
// write-ahead log fails for good: FailStop (default) closes the session
// with the cause recorded; DegradeToNonDurable keeps it serving with
// Status.Durable=false and the Degraded flag raised.
func WithDurabilityPolicy(p DurabilityPolicy) ManagerOption {
	return func(m *Manager) { m.durability = p }
}

// WithBreakerCooldown sets how long the journal-health breaker rejects
// new durable sessions after a final journal failure before re-probing
// (default DefaultBreakerCooldown; d <= 0 disables the breaker).
func WithBreakerCooldown(d time.Duration) ManagerOption {
	return func(m *Manager) { m.breakerCooldown = d }
}

// CheckpointEvery returns the manager's checkpoint interval in rounds
// (0 = checkpointing off).
func (m *Manager) CheckpointEvery() int { return m.ckptEvery }

// DurabilityPolicy returns the journal-failure policy sessions run
// under.
func (m *Manager) DurabilityPolicy() DurabilityPolicy { return m.durability }

// BreakerRetryAfter returns how long until the journal-health breaker
// re-probes (0 = breaker closed; front ends turn this into Retry-After).
func (m *Manager) BreakerRetryAfter() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.breakerUntil.IsZero() {
		return 0
	}
	d := time.Until(m.breakerUntil)
	if d < 0 {
		return 0
	}
	return d
}

// noteJournalFailure opens (or re-arms) the journal-health breaker after
// a final journal failure; sessions call it from under their own lock
// (lock order s.mu → m.mu).
func (m *Manager) noteJournalFailure() {
	if m.breakerCooldown <= 0 {
		return
	}
	m.mu.Lock()
	now := time.Now()
	if m.breakerUntil.IsZero() || now.After(m.breakerUntil) {
		m.add(BreakerTrips, 1) // closed → open transition
	}
	m.breakerUntil = now.Add(m.breakerCooldown)
	m.mu.Unlock()
}

// admitDurable gates Create on the journal-health breaker. A call
// arriving while the breaker is open is rejected; the first call after
// the cooldown closes the breaker and proceeds as the probe (its own
// failure would re-open it via noteJournalFailure).
func (m *Manager) admitDurable() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.breakerUntil.IsZero() {
		return nil
	}
	if time.Now().Before(m.breakerUntil) {
		return ErrJournalUnhealthy
	}
	m.breakerUntil = time.Time{}
	return nil
}

// NewManager returns a manager resolving datasets from reg. limit caps
// the number of concurrently open sessions (0 = unlimited).
func NewManager(reg *Registry, limit int, opts ...ManagerOption) *Manager {
	m := &Manager{reg: reg, sessions: map[string]*Session{}, limit: limit,
		ckptEvery: DefaultCheckpointEvery, compact: true,
		breakerCooldown: DefaultBreakerCooldown}
	for _, opt := range opts {
		opt(m)
	}
	if m.idleTTL > 0 {
		m.sweepStop = make(chan struct{})
		go m.sweepLoop()
	}
	return m
}

// sweepLoop drives the idle-passivation ticker until CloseAll.
func (m *Manager) sweepLoop() {
	every := m.idleTTL / 4
	if every < 10*time.Millisecond {
		every = 10 * time.Millisecond
	}
	if every > time.Minute {
		every = time.Minute
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-m.sweepStop:
			return
		case <-t.C:
			if _, released := m.passivateIdle(m.idleTTL); released > 0 {
				// Passivation exists to give pool memory back. Without a
				// collection now, the freed pools stay inside the
				// collector's heap goal until new allocation starts the
				// next cycle.
				runtime.GC()
			}
		}
	}
}

// IdleTTL returns the passivation TTL the manager was built with (0 =
// passivation off).
func (m *Manager) IdleTTL() time.Duration { return m.idleTTL }

// PassivateIdle passivates every durable session that has been idle for
// at least ttl and returns how many it passivated (ttl <= 0 passivates
// every eligible session — useful for shedding memory under pressure).
// In-memory sessions are never touched: without a journal there is
// nothing to reactivate from.
func (m *Manager) PassivateIdle(ttl time.Duration) int {
	n, _ := m.passivateIdle(ttl)
	return n
}

// passivateIdle is PassivateIdle, also returning the pool bytes the
// passivations released.
func (m *Manager) passivateIdle(ttl time.Duration) (n int, released int64) {
	now := time.Now()
	for _, s := range m.table() {
		if s.idleFor(now) < ttl {
			continue
		}
		// passivate re-checks idleness under the session lock, so a client
		// call racing the sweep keeps its session live.
		//asm:errclass-ok a failed checkpoint append already went to the session's durability policy (Status.LastFailure, the poisoned counter); the sweep moves on
		if ok, b, _ := s.passivate(now, ttl); ok {
			n++
			released += b
		}
	}
	return n, released
}

// Passivate passivates one session by id regardless of how recently it
// was touched. It fails for unknown ids and for a session whose
// passivation checkpoint failed to append under the fail-stop policy,
// and reports false for sessions that cannot be passivated (in-memory,
// closed, already passivated, or degraded by that failure).
func (m *Manager) Passivate(id string) (bool, error) {
	m.mu.Lock()
	s, ok := m.sessions[id]
	m.mu.Unlock()
	if !ok {
		return false, fmt.Errorf("%w %q", ErrUnknownSession, id)
	}
	ok, _, err := s.passivate(time.Now(), 0)
	return ok, err
}

// Registry returns the manager's dataset registry.
func (m *Manager) Registry() *Registry { return m.reg }

// Journaled reports whether the manager write-ahead-logs its sessions.
// A deferred open failure (WithJournalDir) means no store is attached,
// so it reports false until the error surfaces on the first Create.
func (m *Manager) Journaled() bool {
	st, err := m.store()
	return err == nil && st != nil
}

// Create builds a session from cfg: it resolves the dataset (loading the
// graph on first use), instantiates a fresh policy, and registers the
// session under a new id. On a journaled manager the session's created
// record is committed to disk before Create returns.
func (m *Manager) Create(cfg Config) (*Session, error) {
	st, jerr := m.store()
	if jerr != nil {
		return nil, jerr
	}
	if st != nil {
		if err := m.admitDurable(); err != nil {
			return nil, err
		}
	}
	// Resolve the sampler version before anything is built or journaled:
	// the created record must pin an explicit version, or a later binary
	// with a newer default could not replay this session's log.
	if cfg.SamplerVersion == 0 {
		cfg.SamplerVersion = int(rrset.DefaultVersion)
	}
	s, err := m.buildSession(cfg)
	if err != nil {
		return nil, err
	}

	// Reserve an id (and a slot against the limit, counting in-flight
	// creates) under the lock, but journal outside it: the created
	// record's fsync must not stall unrelated Session/List/Close calls.
	m.mu.Lock()
	if m.limit > 0 && len(m.sessions)+m.creating >= m.limit {
		m.mu.Unlock()
		s.Close()
		return nil, ErrTooManySessions
	}
	m.nextID++
	s.id = "s" + strconv.FormatUint(m.nextID, 10)
	m.creating++
	m.mu.Unlock()

	// Journal (and fsync) the created record before the session becomes
	// visible in the table: no other caller may step a session whose
	// write-ahead log is not armed yet. The reserved id is never reused
	// on failure — ids are write-once within a journal directory.
	if st != nil {
		if err := journalCreate(st, s, cfg); err != nil {
			m.mu.Lock()
			m.creating--
			m.mu.Unlock()
			s.Close()
			// A create that cannot commit its first record is the same sick
			// disk a failed append signals: open the breaker (this is also
			// how a failed probe re-arms it).
			m.noteJournalFailure()
			return nil, err
		}
	}
	s.publish()
	m.mu.Lock()
	m.creating--
	m.sessions[s.id] = s
	m.mu.Unlock()
	m.add(Creates, 1)
	return s, nil
}

// buildSession resolves cfg into a ready (but unregistered, unjournaled)
// session: dataset graph, threshold, fresh policy. Shared by Create and
// Recover, so a replayed session is constructed exactly like the
// original.
func (m *Manager) buildSession(cfg Config) (*Session, error) {
	g, err := m.reg.Graph(cfg.Dataset)
	if err != nil {
		return nil, err
	}
	// Model's zero value is IC, so an unset Config.Model defaults sanely.
	model := cfg.Model
	eta := cfg.Eta
	if eta == 0 {
		frac := cfg.EtaFrac
		if frac == 0 {
			frac = 0.05
		}
		if frac < 0 || frac > 1 {
			return nil, fmt.Errorf("serve: eta fraction %v outside [0,1]", frac)
		}
		eta = int64(frac * float64(g.N()))
		if eta < 1 {
			eta = 1
		}
	}
	eps := cfg.Epsilon
	if eps == 0 {
		eps = 0.5
	}
	ver := rrset.Version(cfg.SamplerVersion)
	if ver == 0 {
		ver = rrset.DefaultVersion
	}
	if !ver.Valid() {
		return nil, fmt.Errorf("serve: unknown sampler version %d", cfg.SamplerVersion)
	}
	policy, err := newPolicy(cfg.Policy, eps, cfg.Workers, cfg.MaxSetsPerRound, !cfg.DisablePoolReuse, ver)
	if err != nil {
		return nil, err
	}
	s, err := NewSession(g, model, eta, policy, cfg.Seed)
	if err != nil {
		return nil, err
	}
	s.dataset = cfg.Dataset
	s.samplerVer = int(ver)
	s.mgr = m
	s.ckptEvery = m.ckptEvery
	s.compactOn = m.compact
	s.durability = m.durability
	s.graphSig = m.graphSig(g)
	return s, nil
}

// journalCreate opens the session's log in st and commits its created
// record; only then is write-ahead logging armed on the session.
func journalCreate(st *journal.Store, s *Session, cfg Config) error {
	frame, err := journal.Marshal(journal.TypeCreated, createdRecord(cfg))
	if err != nil {
		return err
	}
	w, err := st.Create(s.id)
	if err != nil {
		return err
	}
	if err := w.AppendFrame(frame); err != nil {
		w.Close()
		// Best-effort cleanup of the half-created log: the append failure is
		// the error the caller must see, with its failure class intact.
		//asm:errclass-ok joining the unlink error could let Classify match the wrong class upstream
		_ = st.Remove(s.id)
		return err
	}
	// Seed the history digest chain with the created record; every later
	// append folds itself in (checkpoints pin their log position with it).
	s.mu.Lock()
	s.jw, s.store, s.histDigest = w, st, journal.DigestFrame(0, frame)
	s.mu.Unlock()
	return nil
}

// createdRecord flattens a Config into its journal form (the model by
// wire name, everything else verbatim).
func createdRecord(cfg Config) journal.Created {
	return journal.Created{
		Dataset:          cfg.Dataset,
		Policy:           cfg.Policy,
		Model:            cfg.Model.String(),
		Eta:              cfg.Eta,
		EtaFrac:          cfg.EtaFrac,
		Epsilon:          cfg.Epsilon,
		Workers:          cfg.Workers,
		MaxSetsPerRound:  cfg.MaxSetsPerRound,
		DisablePoolReuse: cfg.DisablePoolReuse,
		SamplerVersion:   cfg.SamplerVersion,
		Seed:             cfg.Seed,
	}
}

// configFromRecord is createdRecord's inverse, rebuilding the Config a
// recovered session was created with.
func configFromRecord(c journal.Created) (Config, error) {
	model, err := diffusion.ParseModel(c.Model)
	if err != nil {
		return Config{}, fmt.Errorf("serve: %w", err)
	}
	ver := c.SamplerVersion
	if ver == 0 {
		// Logs written before sampler versioning carry no field; they were
		// produced by the original (v1) stream contract, and must replay
		// under it even though fresh sessions default higher.
		ver = int(rrset.V1)
	}
	return Config{
		Dataset:          c.Dataset,
		Policy:           c.Policy,
		Model:            model,
		Eta:              c.Eta,
		EtaFrac:          c.EtaFrac,
		Epsilon:          c.Epsilon,
		Workers:          c.Workers,
		MaxSetsPerRound:  c.MaxSetsPerRound,
		DisablePoolReuse: c.DisablePoolReuse,
		SamplerVersion:   ver,
		Seed:             c.Seed,
	}, nil
}

// Session returns the open session with the given id — the *Session
// Create or Recover registered, across any number of passivations —
// restoring it in place first if an idle sweep passivated it (from the
// checkpoint passivation wrote, or by replaying the log through the
// deterministic engine; either way it proposes byte-identical batches to
// a session that was never passivated). Concurrent lookups of one
// passivated session wait on its lock for a single restore; a live
// session's lookup takes no session lock. The lookup counts as activity:
// it refreshes the session's idle clock.
func (m *Manager) Session(id string) (*Session, error) {
	m.mu.Lock()
	s, ok := m.sessions[id]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownSession, id)
	}
	s.touch()
	if s.status.Load().Phase != PhasePassivated.String() {
		return s, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.publishLocked()
	if err := s.restoreLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// Close ends the session with the given id for good and removes it from
// the table. On a journaled manager the closed record is committed and
// the session's log deleted — a deliberately closed campaign is never
// recovered.
func (m *Manager) Close(id string) error {
	m.mu.Lock()
	s, ok := m.sessions[id]
	delete(m.sessions, id)
	st := m.journal
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w %q", ErrUnknownSession, id)
	}
	// Session.Close handles the passivated case itself (closed record via
	// a reopened log, gauge decrement) under the session lock, so a sweep
	// parking the session between our table delete and this call cannot
	// skip it.
	s.Close()
	if st != nil {
		// Best effort: the closed record is already committed, so a log
		// whose removal fails is recognized (and deleted) by the next
		// Recover — the close itself succeeded and must report success.
		//asm:errclass-ok the committed closed record makes a surviving log self-deleting on the next Recover
		_ = st.Remove(id)
	}
	m.add(Closes, 1)
	return nil
}

// CloseAll releases every open session's resources for serving-process
// shutdown, and stops the idle-passivation sweep if one is running.
// Unlike Close it does NOT mark journaled sessions closed: their logs
// stay on disk, and the next process recovers them with Recover.
func (m *Manager) CloseAll() {
	if m.sweepStop != nil {
		m.sweepEnd.Do(func() { close(m.sweepStop) })
	}
	m.mu.Lock()
	sessions := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		sessions = append(sessions, s)
	}
	m.sessions = map[string]*Session{}
	m.mu.Unlock()
	for _, s := range sessions {
		s.release()
	}
}

// List returns a status snapshot of every open session, sorted by id.
// It reads the statuses sessions publish, so it never waits on a session.
func (m *Manager) List() []Status {
	sessions := m.table()
	out := make([]Status, len(sessions))
	for i, s := range sessions {
		out[i] = s.Status()
	}
	sort.Slice(out, func(i, j int) bool {
		// Numeric id order: "s2" before "s10".
		if len(out[i].ID) != len(out[j].ID) {
			return len(out[i].ID) < len(out[j].ID)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// table returns the open sessions, in no particular order.
func (m *Manager) table() []*Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		out = append(out, s)
	}
	return out
}

// newPolicy instantiates a fresh proposal policy by wire name: "ASTI"
// (the default) and "ASTI-<b>" are truncated TRIM with batch 1 and b,
// "AdaptIM" is the untruncated single-seed baseline.
func newPolicy(name string, epsilon float64, workers int, maxSets int64, reuse bool, ver rrset.Version) (adaptive.Policy, error) {
	batch, truncated := 1, true
	switch {
	case name == "" || strings.EqualFold(name, "ASTI"):
	case strings.HasPrefix(strings.ToUpper(name), "ASTI-"):
		b, err := strconv.Atoi(name[len("ASTI-"):])
		if err != nil || b < 1 {
			return nil, fmt.Errorf("serve: bad batch size in policy %q", name)
		}
		batch = b
	case strings.EqualFold(name, "AdaptIM"):
		truncated = false
	default:
		return nil, fmt.Errorf("serve: unknown policy %q (ASTI, ASTI-<b>, AdaptIM)", name)
	}
	return trim.New(trim.Config{Epsilon: epsilon, Batch: batch, Truncated: truncated,
		Workers: workers, MaxSetsPerRound: maxSets, ReusePool: reuse, SamplerVersion: ver})
}
