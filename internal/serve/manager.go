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
	"asti/internal/baselines"
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
	// Workers sizes the session's sampling-engine pool: 0 = GOMAXPROCS,
	// 1 = sequential. Proposals are identical for every setting.
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
// separate the caller's 404 from server-side failures: a reactivation
// that fails (damaged journal, replay divergence) is NOT this error —
// the session still exists, the server just could not revive it.
var ErrUnknownSession = errors.New("serve: unknown session")

// Manager owns the session table of a serving process: it resolves
// datasets through a shared Registry, creates and indexes sessions, and
// closes them. With a journal attached (WithJournal / WithJournalDir) it
// write-ahead-logs every session state transition and can rebuild its
// table after a crash with Recover. With an idle TTL (WithIdleTTL) it
// additionally passivates idle durable sessions — their engine and mRR
// pool are released while the journal keeps their state, checkpointed on
// the way out — and transparently reactivates them on the next Session
// lookup by restoring that checkpoint. All methods are safe for
// concurrent use.
type Manager struct {
	reg *Registry

	mu         sync.Mutex
	journal    *journal.Store      // guarded by mu (Recover may attach late)
	journalErr error               // deferred WithJournalDir open failure
	sessions   map[string]*Session // guarded by mu
	nextID     uint64              // guarded by mu
	limit      int
	creating   int // guarded by mu; sessions holding a reserved id while their created record syncs

	// Lifecycle-governance counters. passive tracks the number of
	// currently passivated sessions so Stats stays O(1).
	passivations  uint64 // guarded by mu
	reactivations uint64 // guarded by mu
	passive       int    // guarded by mu

	// Resilience configuration, set at construction and read-only
	// afterwards (no lock needed to read them).
	durability      DurabilityPolicy
	breakerCooldown time.Duration

	// Journal-health breaker state. breakerUntil non-zero and in the
	// future means open (Create rejects durable sessions); a Create
	// arriving after it passes is the probe that closes it.
	breakerUntil         time.Time // guarded by mu
	breakerTrips         uint64    // guarded by mu
	poisoned             uint64    // guarded by mu
	degradedTotal        uint64    // guarded by mu
	emergencyCompactions uint64    // guarded by mu

	// Checkpointing configuration (ckptEvery, compact: set at
	// construction, read-only afterwards) and counters. graphSigs caches
	// the per-graph structural fingerprint that checkpoints pin
	// (computed once per distinct graph).
	ckptEvery      int
	compact        bool
	graphSigs      map[*graph.Graph]uint64 // guarded by mu
	checkpoints    uint64                  // guarded by mu
	ckptFailures   uint64                  // guarded by mu
	compactions    uint64                  // guarded by mu
	compactedBytes uint64                  // guarded by mu
	ckptRestores   uint64                  // guarded by mu

	// Load-facing throughput counters (atomic, not mu-guarded: proposals
	// and observations are counted from inside Session calls that hold
	// the session lock, never the manager lock). They count
	// client-visible successes — what a load generator sees as completed
	// work — so sessions/sec and steps/sec can be cross-checked
	// server-side under load.
	creates      atomic.Uint64
	closes       atomic.Uint64
	proposals    atomic.Uint64
	observations atomic.Uint64

	// reactMu guards reactInflight: one replay per session id at a time
	// (concurrent lookups of one passivated session wait for the winner
	// instead of racing duplicate replays), while reactivations of
	// DIFFERENT sessions run concurrently — replays are expensive, and a
	// process-wide serial replay queue would stall unrelated requests.
	reactMu       sync.Mutex
	reactInflight map[string]chan struct{}

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
// with a garbage collection so the process footprint follows. The next
// Session lookup reactivates a passivated session transparently by
// restoring that checkpoint (replaying its log when there is none) —
// the reactivated session proposes byte-identical batches to an
// uninterrupted one. Sessions without a journal are never passivated
// (there would be nothing to reactivate from); ttl <= 0 leaves
// passivation off. CloseAll stops the sweep.
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
		m.breakerTrips++ // closed → open transition
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

// notePoisoned / noteDegraded / noteEmergencyCompaction maintain the
// resilience counters; sessions call them from under their own lock
// (lock order s.mu → m.mu).
func (m *Manager) notePoisoned() {
	m.mu.Lock()
	m.poisoned++
	m.mu.Unlock()
}

func (m *Manager) noteDegraded() {
	m.mu.Lock()
	m.degradedTotal++
	m.mu.Unlock()
}

func (m *Manager) noteEmergencyCompaction() {
	m.mu.Lock()
	m.emergencyCompactions++
	m.mu.Unlock()
}

// NewManager returns a manager resolving datasets from reg. limit caps
// the number of concurrently open sessions (0 = unlimited).
func NewManager(reg *Registry, limit int, opts ...ManagerOption) *Manager {
	m := &Manager{reg: reg, sessions: map[string]*Session{}, limit: limit,
		reactInflight: map[string]chan struct{}{},
		ckptEvery:     DefaultCheckpointEvery, compact: true,
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
	m.mu.Lock()
	candidates := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		candidates = append(candidates, s)
	}
	m.mu.Unlock()
	now := time.Now()
	for _, s := range candidates {
		if s.idleFor(now) < ttl {
			continue
		}
		// passivate re-checks idleness under the session lock, so a client
		// call racing the sweep keeps its session live. Counter updates
		// happen inside passivate (still under the session lock), so the
		// passivated gauge is already up when a reactivation becomes able
		// to decrement it.
		//asm:errclass-ok a failed checkpoint append already went to the session's durability policy (Status.LastFailure, the poisoned counter); the sweep moves on
		if ok, b, _ := s.passivate(now, ttl); ok {
			n++
			released += b
		}
	}
	return n, released
}

// notePassivated / notePassivatedClosed maintain the lifecycle counters;
// sessions call them from under their own lock (lock order s.mu → m.mu).
func (m *Manager) notePassivated() {
	m.mu.Lock()
	m.passivations++
	m.passive++
	m.mu.Unlock()
}

func (m *Manager) notePassivatedClosed() {
	m.mu.Lock()
	m.passive--
	m.mu.Unlock()
}

// noteCheckpoint / noteCheckpointFailed / noteCompaction /
// noteCheckpointRestore maintain the checkpoint counters; sessions call
// the first three from under their own lock (lock order s.mu → m.mu).
func (m *Manager) noteCheckpoint() {
	m.mu.Lock()
	m.checkpoints++
	m.mu.Unlock()
}

func (m *Manager) noteCheckpointFailed() {
	m.mu.Lock()
	m.ckptFailures++
	m.mu.Unlock()
}

func (m *Manager) noteCompaction(bytes int64) {
	m.mu.Lock()
	m.compactions++
	m.compactedBytes += uint64(bytes)
	m.mu.Unlock()
}

func (m *Manager) noteCheckpointRestore() {
	m.mu.Lock()
	m.ckptRestores++
	m.mu.Unlock()
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
	m.mu.Lock()
	m.creating--
	m.sessions[s.id] = s
	m.mu.Unlock()
	m.creates.Add(1)
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
	s.attachJournal(w, st)
	// Seed the history digest chain with the created record; every later
	// append folds itself in (checkpoints pin their log position with it).
	s.mu.Lock()
	s.histDigest = journal.DigestFrame(0, frame)
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
	model, err := parseModelName(c.Model)
	if err != nil {
		return Config{}, err
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

// parseModelName maps a journaled model name back to a diffusion.Model
// ("" = IC, matching Config's zero value).
func parseModelName(name string) (diffusion.Model, error) {
	switch strings.ToUpper(name) {
	case "", "IC":
		return diffusion.IC, nil
	case "LT":
		return diffusion.LT, nil
	default:
		return 0, fmt.Errorf("serve: unknown model %q", name)
	}
}

// Session returns the open session with the given id, reactivating it
// first if an idle sweep passivated it (from the checkpoint passivation
// wrote, or by replaying the log through the deterministic engine; either
// way the reactivated session proposes byte-identical batches to one
// that was never passivated). The lookup counts as activity: it
// refreshes the session's idle clock.
func (m *Manager) Session(id string) (*Session, error) {
	m.mu.Lock()
	s, ok := m.sessions[id]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownSession, id)
	}
	if !s.passivated() {
		s.touch()
		return s, nil
	}
	return m.reactivate(id)
}

// reactivate rebuilds a passivated session from its journal and swaps
// the live session into the table. Concurrent reactivations of one id
// share a single replay — losers wait on the winner's in-flight channel
// and then find the live session on re-check — while distinct ids
// replay concurrently. The passivated stub is left behind for stale
// pointers: their calls keep returning ErrPassivated and a fresh
// Manager.Session lookup hands out the live object.
func (m *Manager) reactivate(id string) (*Session, error) {
	for {
		m.reactMu.Lock()
		inflight, busy := m.reactInflight[id]
		if !busy {
			done := make(chan struct{})
			m.reactInflight[id] = done
			m.reactMu.Unlock()
			s, err := m.replayPassivated(id)
			m.reactMu.Lock()
			delete(m.reactInflight, id)
			close(done)
			m.reactMu.Unlock()
			return s, err
		}
		m.reactMu.Unlock()
		<-inflight
		// The winner finished: usually the session is live now. If its
		// replay failed (or a sweep re-passivated already), loop and try
		// the replay ourselves.
		m.mu.Lock()
		s, ok := m.sessions[id]
		m.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("%w %q", ErrUnknownSession, id)
		}
		if !s.passivated() {
			s.touch()
			return s, nil
		}
	}
}

// replayPassivated performs one reactivation replay for id; callers
// must hold the id's reactInflight slot (see reactivate).
func (m *Manager) replayPassivated(id string) (*Session, error) {
	m.mu.Lock()
	old, ok := m.sessions[id]
	st := m.journal
	m.mu.Unlock()
	if !ok {
		// Closed while we waited for the reactivation slot.
		return nil, fmt.Errorf("%w %q", ErrUnknownSession, id)
	}
	if !old.passivated() {
		// Another caller reactivated it first (or it was never passivated).
		old.touch()
		return old, nil
	}
	if st == nil {
		// Unreachable (only journaled sessions passivate), but never nil-deref.
		return nil, fmt.Errorf("serve: session %q passivated without a journal", id)
	}
	recs, tailErr, err := st.Load(id)
	if err != nil {
		return nil, fmt.Errorf("serve: reactivate %s: %w", id, err)
	}
	if tailErr != nil {
		// The log was intact when the session passivated; a torn or corrupt
		// tail now means the disk lost bytes under us. Resuming from the
		// shorter prefix would silently roll back acknowledged transitions,
		// so reactivation refuses (crash recovery, where losing the record
		// being appended is expected, stays lenient — see Recover).
		return nil, fmt.Errorf("serve: reactivate %s: journal damaged while passivated: %w", id, tailErr)
	}
	s, _, fromCkpt, err := m.rebuild(recs, nil)
	if err != nil {
		return nil, fmt.Errorf("serve: reactivate %s: %w", id, err)
	}
	if fromCkpt {
		m.noteCheckpointRestore()
	}
	res, err := st.Resume(id)
	if err != nil {
		s.release()
		return nil, fmt.Errorf("serve: reactivate %s: %w", id, err)
	}
	if len(res.Records) != len(recs) {
		res.Writer.Close()
		s.release()
		return nil, fmt.Errorf("serve: reactivate %s: journal changed during reactivation", id)
	}
	s.id = id
	s.passivations = old.passivations
	s.attachJournal(res.Writer, st)
	// Claim the episode's gauge count before touching the table (the flag
	// is guarded by the session lock, which must not nest inside m.mu).
	counted := old.consumePassiveCount()
	m.mu.Lock()
	if cur, ok := m.sessions[id]; !ok || cur != old {
		// A concurrent Close deleted the session (and its log) while we
		// replayed: inserting the rebuilt session would resurrect a
		// deliberately closed campaign. Discard it — but settle the gauge
		// count we claimed, since the close found the flag already consumed
		// and skipped its own decrement.
		if counted {
			m.passive--
		}
		m.mu.Unlock()
		res.Writer.Close()
		s.release()
		return nil, fmt.Errorf("%w %q", ErrUnknownSession, id)
	}
	m.sessions[id] = s
	if counted {
		m.passive--
	}
	m.reactivations++
	m.mu.Unlock()
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
	// a reopened log, gauge decrement) — decided under the session lock,
	// so a sweep parking the session between our table delete and this
	// call cannot skip it.
	s.Close()
	if st != nil {
		// Best effort: the closed record is already committed, so a log
		// whose removal fails is recognized (and deleted) by the next
		// Recover — the close itself succeeded and must report success.
		//asm:errclass-ok the committed closed record makes a surviving log self-deleting on the next Recover
		_ = st.Remove(id)
	}
	m.closes.Add(1)
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
	m.passive = 0
	m.mu.Unlock()
	for _, s := range sessions {
		s.release()
	}
}

// Stats is the O(1) counter subset of Metrics, cheap enough for
// per-request probes (/healthz): session and passivated counts plus the
// lifetime passivation/reactivation counters. The memory gauges need a
// table walk and live on Metrics.
type Stats struct {
	// Sessions is the number of open sessions, passivated included.
	Sessions int
	// Passivated is the number of currently passivated sessions.
	Passivated int
	// Passivations / Reactivations count lifecycle events since the
	// manager was built.
	Passivations  uint64
	Reactivations uint64
	// Checkpoints counts checkpoints written (passivation checkpoints
	// included), Compactions the log truncations past them, and CheckpointRestores the recoveries and
	// reactivations that resumed from a checkpoint instead of a full
	// replay.
	Checkpoints        uint64
	Compactions        uint64
	CheckpointRestores uint64
	// Poisoned counts sessions closed by a journal failure under the
	// fail-stop policy, Degraded the sessions that switched to
	// non-durable serving under the degrade policy, and
	// EmergencyCompactions the ENOSPC episodes answered with an on-demand
	// log compaction.
	Poisoned             uint64
	Degraded             uint64
	EmergencyCompactions uint64
	// JournalHealthy is false while the journal-health breaker is open
	// (new durable sessions are being rejected); BreakerTrips counts
	// closed→open transitions.
	JournalHealthy bool
	BreakerTrips   uint64
	// Journal carries the store's append-resilience counters (retries,
	// final failures, disk-full episodes, writer reopens); zero-valued on
	// an unjournaled manager.
	Journal journal.StoreMetrics
	// Creates / Closes / Proposals / Observations count client-visible
	// successes since the manager was built (recovery and reactivation
	// replays are excluded): the server-side throughput a load generator
	// cross-checks its own numbers against.
	Creates      uint64
	Closes       uint64
	Proposals    uint64
	Observations uint64
}

// Stats returns the manager's O(1) lifecycle counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Stats{
		Sessions:             len(m.sessions),
		Passivated:           m.passive,
		Passivations:         m.passivations,
		Reactivations:        m.reactivations,
		Checkpoints:          m.checkpoints,
		Compactions:          m.compactions,
		CheckpointRestores:   m.ckptRestores,
		Poisoned:             m.poisoned,
		Degraded:             m.degradedTotal,
		EmergencyCompactions: m.emergencyCompactions,
		JournalHealthy:       m.breakerUntil.IsZero() || !time.Now().Before(m.breakerUntil),
		BreakerTrips:         m.breakerTrips,
		Creates:              m.creates.Load(),
		Closes:               m.closes.Load(),
		Proposals:            m.proposals.Load(),
		Observations:         m.observations.Load(),
	}
	if m.journal != nil {
		st.Journal = m.journal.Metrics()
	}
	return st
}

// Count returns the number of open sessions, passivated ones included
// (O(1); health probes should prefer it over len(List()), which
// snapshots every session).
func (m *Manager) Count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// Metrics is a point-in-time roll-up of the manager's session table for
// monitoring endpoints (/metrics, /healthz): population by phase, the
// lifetime passivation/reactivation counters, and the memory gauges —
// estimated sampling-pool bytes held in RAM and journal bytes held on
// disk.
type Metrics struct {
	// Sessions is the number of open sessions, passivated included.
	Sessions int
	// Passivated is the number of currently passivated sessions.
	Passivated int
	// Phases counts sessions by phase name ("propose", "observe",
	// "done", "passivated").
	Phases map[string]int
	// Passivations / Reactivations count lifecycle events since the
	// manager was built.
	Passivations  uint64
	Reactivations uint64
	// Checkpoints / CheckpointFailures count checkpoints written (at
	// interval boundaries, campaign completion and passivation) and
	// snapshots skipped because they failed to encode (an oversized
	// record; the session keeps journaling and recovers by replay).
	Checkpoints        uint64
	CheckpointFailures uint64
	// Compactions counts log truncations past a checkpoint, and
	// CompactedBytes the total journal bytes they reclaimed.
	Compactions    uint64
	CompactedBytes uint64
	// CheckpointRestores counts recoveries/reactivations that resumed
	// from a checkpoint instead of replaying the full history.
	CheckpointRestores uint64
	// Poisoned / Degraded / EmergencyCompactions / JournalHealthy /
	// BreakerTrips / Journal mirror the Stats resilience counters (see
	// Stats); DegradedNow is the walked gauge of sessions currently
	// serving non-durably.
	Poisoned             uint64
	Degraded             uint64
	DegradedNow          int
	EmergencyCompactions uint64
	JournalHealthy       bool
	BreakerTrips         uint64
	Journal              journal.StoreMetrics
	// PoolBytes is the summed per-session sampling-pool estimate
	// (passivated sessions contribute 0 — that is the point).
	PoolBytes int64
	// JournalBytes is the summed on-disk size of the open sessions' logs
	// (0 for an unjournaled manager). With compaction on it stays bounded
	// by the checkpoint interval instead of growing with campaign length.
	JournalBytes int64
	// Creates / Closes / Proposals / Observations count client-visible
	// successes since the manager was built (replays excluded) — the
	// server-side readout a load generator checks its throughput against.
	Creates      uint64
	Closes       uint64
	Proposals    uint64
	Observations uint64
}

// Metrics snapshots the manager for monitoring. It walks every session
// (like List), so poll it at metrics-scrape cadence, not per request.
func (m *Manager) Metrics() Metrics {
	m.mu.Lock()
	sessions := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		sessions = append(sessions, s)
	}
	st := m.journal
	mt := Metrics{
		Phases:               map[string]int{},
		Passivations:         m.passivations,
		Reactivations:        m.reactivations,
		Checkpoints:          m.checkpoints,
		CheckpointFailures:   m.ckptFailures,
		Compactions:          m.compactions,
		CompactedBytes:       m.compactedBytes,
		CheckpointRestores:   m.ckptRestores,
		Poisoned:             m.poisoned,
		Degraded:             m.degradedTotal,
		EmergencyCompactions: m.emergencyCompactions,
		JournalHealthy:       m.breakerUntil.IsZero() || !time.Now().Before(m.breakerUntil),
		BreakerTrips:         m.breakerTrips,
		Creates:              m.creates.Load(),
		Closes:               m.closes.Load(),
		Proposals:            m.proposals.Load(),
		Observations:         m.observations.Load(),
	}
	m.mu.Unlock()
	if st != nil {
		mt.Journal = st.Metrics()
	}
	for _, s := range sessions {
		stt := s.Status()
		mt.Sessions++
		mt.Phases[stt.Phase]++
		if stt.Phase == PhasePassivated.String() {
			mt.Passivated++
		}
		if stt.Degraded {
			mt.DegradedNow++
		}
		mt.PoolBytes += stt.PoolBytes
		if st != nil && stt.Durable {
			if size, err := st.Size(stt.ID); err == nil {
				mt.JournalBytes += size
			}
		}
	}
	return mt
}

// List returns a status snapshot of every open session, sorted by id.
func (m *Manager) List() []Status {
	m.mu.Lock()
	sessions := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		sessions = append(sessions, s)
	}
	m.mu.Unlock()
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

// newPolicy instantiates a fresh proposal policy by wire name.
func newPolicy(name string, epsilon float64, workers int, maxSets int64, reuse bool, ver rrset.Version) (adaptive.Policy, error) {
	switch {
	case name == "" || strings.EqualFold(name, "ASTI"):
		return trim.New(trim.Config{Epsilon: epsilon, Batch: 1, Truncated: true,
			Workers: workers, MaxSetsPerRound: maxSets, ReusePool: reuse, SamplerVersion: ver})
	case strings.HasPrefix(strings.ToUpper(name), "ASTI-"):
		b, err := strconv.Atoi(name[len("ASTI-"):])
		if err != nil || b < 1 {
			return nil, fmt.Errorf("serve: bad batch size in policy %q", name)
		}
		return trim.New(trim.Config{Epsilon: epsilon, Batch: b, Truncated: true,
			Workers: workers, MaxSetsPerRound: maxSets, ReusePool: reuse, SamplerVersion: ver})
	case strings.EqualFold(name, "AdaptIM"):
		return baselines.NewAdaptIM(epsilon, maxSets, workers, reuse, ver)
	default:
		return nil, fmt.Errorf("serve: unknown policy %q (ASTI, ASTI-<b>, AdaptIM)", name)
	}
}
