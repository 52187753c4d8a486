package serve

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"asti/internal/adaptive"
	"asti/internal/diffusion"
	"asti/internal/graph"
	"asti/internal/journal"
	"asti/internal/rng"
)

// Phase is a session's position in the select–observe loop.
type Phase int

const (
	// PhasePropose means the session is waiting for NextBatch.
	PhasePropose Phase = iota
	// PhaseObserve means a batch is pending and the session is waiting
	// for Observe.
	PhaseObserve
	// PhaseDone means the threshold η has been reached.
	PhaseDone
	// PhaseClosed means Close was called; the session accepts no calls.
	PhaseClosed
	// PhasePassivated means an idle sweep released the session's engine,
	// pool and residual state; its state lives in the journal. The next
	// Manager.Session lookup, NextBatch/Propose or Observe restores the
	// session in place, so any pointer to it stays valid.
	PhasePassivated
)

// String returns the phase's wire name.
func (p Phase) String() string {
	switch p {
	case PhasePropose:
		return "propose"
	case PhaseObserve:
		return "observe"
	case PhaseDone:
		return "done"
	case PhaseClosed:
		return "closed"
	case PhasePassivated:
		return "passivated"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Session lifecycle errors, comparable with errors.Is.
var (
	// ErrClosed is returned by NextBatch/Propose and Observe after Close
	// (Status and Result keep reporting the final state).
	ErrClosed = errors.New("serve: session closed")
	// ErrDone is returned by NextBatch once η is reached.
	ErrDone = errors.New("serve: session already reached eta")
	// ErrBatchPending is returned by NextBatch while a proposed batch
	// awaits its observation.
	ErrBatchPending = errors.New("serve: previous batch not yet observed")
	// ErrNoBatchPending is returned by Observe when no batch awaits
	// observation (observe-before-next, double-observe).
	ErrNoBatchPending = errors.New("serve: no batch pending observation")
	// ErrRestoreFailed wraps the failure to restore a passivated session
	// from its journal (damaged log, replay divergence, environment
	// drift), from a lookup or a step. The session still exists and stays
	// passivated; the server could not revive it.
	ErrRestoreFailed = errors.New("serve: cannot restore passivated session")
)

// Session is one live adaptive-seeding campaign: the residual-graph state
// of the ASTI loop with the observation step handed to the caller.
// NextBatch proposes seeds for the current residual graph; Observe
// commits the batch's realized influence and advances the state. The
// session is done once at least η nodes are active.
//
// A Session is safe for concurrent use; calls are serialized internally
// (on a journaled session this includes the commit fsync). Status never
// waits for them: every call that changes the session publishes a
// snapshot before it returns. Given the same dataset, policy and seed,
// the proposed batches are a deterministic function of the observation
// sequence.
type Session struct {
	mu sync.Mutex

	id         string
	dataset    string
	samplerVer int // resolved sampler stream contract (0 for NewSession-built sessions)
	g          *graph.Graph
	jw         *journal.Writer // nil for in-memory sessions (and during replay)
	store      *journal.Store  // set with jw; lets a passivated session reopen its log
	mgr        *Manager        // owning manager (nil for NewSession-built sessions)
	replaying  bool            // true while recovery/reactivation re-executes the log (suppresses the manager's load counters)

	campaign

	// status is the snapshot the last change published, read without
	// s.mu; touched is the last client call (Propose/Observe/manager
	// lookup) in Unix nanoseconds.
	status  atomic.Pointer[Status]
	touched atomic.Int64

	// Checkpointing (journaled sessions only). ckptEvery is the manager's
	// interval in committed rounds (0 = off); compactOn arms log
	// truncation past each written checkpoint; graphSig pins the
	// dataset's structure.
	ckptEvery int
	compactOn bool
	graphSig  uint64

	// Resilience state. durability decides what a final journal failure
	// does (copied from the manager at build time); degraded means the
	// degrade policy already fired — the session serves without a journal
	// (jw is nil, the log on disk is frozen at the last durable
	// transition) with degradeReason carrying the cause. lastFailure
	// records the most recent final journal failure whichever policy
	// handled it, so a poisoned session's Status still says why it died.
	durability    DurabilityPolicy
	degraded      bool
	degradeReason string
	lastFailure   string

	// passivations counts how many times an idle sweep released this
	// campaign's resources.
	passivations int
}

// campaign is the state the session derives from its observation
// history: Algorithm 1's loop (policy, randomness, residual graph,
// committed rounds, selection clock), the phase with the batch awaiting
// observation, and the journal position. Passivation releases it but for
// the selection clock; a restore adopts the campaign of a session rebuilt
// from the journal. The loop is a named field, not an embedded one, so
// its Commit never becomes a Session method that skips the journal.
type campaign struct {
	loop    *adaptive.Campaign
	phase   Phase
	pending []int32

	// histDigest chains CRC32-C over every record payload appended to (or
	// recovered from) the log — the position pin a checkpoint stores so
	// loaders can tell it belongs to exactly this history. ckpts and
	// lastCkptRound mirror the newest checkpoint for Status, and
	// ckptPending records whether it carried a pending batch. restoredPool
	// is the pool digest of the checkpoint the session was restored from,
	// which its own snapshots report until the policy regenerates a pool.
	histDigest    uint32
	ckpts         int
	lastCkptRound int
	ckptPending   bool
	restoredPool  uint64
}

// NewSession returns a session for one campaign on g: reach eta active
// nodes under the model, proposing batches with policy. The policy
// becomes owned by the session (sessions must not share one) and its
// sampling randomness derives from seed alone. The graph is only read.
func NewSession(g *graph.Graph, model diffusion.Model, eta int64, policy adaptive.Policy, seed uint64) (*Session, error) {
	loop, err := adaptive.NewCampaign(g, model, eta, policy, rng.New(seed))
	if err != nil {
		return nil, err
	}
	s := &Session{g: g, campaign: campaign{loop: loop}}
	s.touch()
	s.publishLocked()
	return s, nil
}

// ID returns the manager-assigned session id ("" for sessions built
// directly with NewSession).
func (s *Session) ID() string { return s.id }

// Graph returns the session's (shared, read-only) graph.
func (s *Session) Graph() *graph.Graph { return s.g }

// Proposal is one NextBatch result: the proposed seeds and the 1-based
// round they belong to.
type Proposal struct {
	// Round is the 1-based round index of this proposal.
	Round int
	// Seeds is the proposed batch.
	Seeds []int32
}

// NextBatch proposes the next seed batch for the current residual graph.
// It returns ErrBatchPending if the previous batch has not been observed,
// ErrDone once η is reached, and ErrClosed after Close.
func (s *Session) NextBatch() ([]int32, error) {
	p, err := s.Propose()
	return p.Seeds, err
}

// Propose is NextBatch returning the round alongside the seeds, so
// callers relaying proposals (cmd/asmserve) can pair the two atomically.
func (s *Session) Propose() (Proposal, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.publishLocked()
	s.touch()
	if err := s.restoreLocked(); err != nil {
		return Proposal{}, err
	}
	switch s.phase {
	case PhaseClosed:
		return Proposal{}, ErrClosed
	case PhaseDone:
		return Proposal{}, ErrDone
	case PhaseObserve:
		return Proposal{}, ErrBatchPending
	}
	batch, err := s.selectLocked()
	if err != nil {
		return Proposal{}, err
	}
	round := s.loop.Round
	// Write-ahead commit: the proposal is journaled (and fsynced) before
	// the session acknowledges it, so a killed process can replay it.
	if s.jw != nil {
		frame, err := journal.Marshal(journal.TypeProposed, journal.Proposed{Round: round, Seeds: batch})
		if err != nil {
			s.loop.Round--
			return Proposal{}, fmt.Errorf("serve: round %d: %w", round, err)
		}
		if err := s.commitFrameLocked(frame); err != nil {
			return Proposal{}, err
		}
	}
	s.pending = batch
	s.phase = PhaseObserve
	if !s.replaying {
		s.mgr.add(Proposals, 1)
	}
	return Proposal{Round: round, Seeds: slices.Clone(batch)}, nil
}

// selectLocked runs the loop's proposal step. A panic inside the policy
// poisons the session, as a lost journal does: what the half-run
// selection left behind is unknown, so the session closes and the error
// wraps ErrClosed. The round is not counted either way. Callers hold
// s.mu.
func (s *Session) selectLocked() (batch []int32, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = s.failLocked(fmt.Errorf("%w: round %d: policy panicked: %v", ErrClosed, s.loop.Round+1, r))
		}
	}()
	return s.loop.Propose()
}

// Progress reports the session state after an observation.
type Progress struct {
	// Round is the 1-based round just observed.
	Round int
	// NewlyActivated is the number of nodes this observation activated
	// (seeds included).
	NewlyActivated int64
	// Activated is the total number of active nodes.
	Activated int64
	// EtaI is the remaining shortfall max(η − Activated, 0).
	EtaI int64
	// Done reports whether the campaign reached η.
	Done bool
}

// Observe commits the realized influence of the pending batch: activated
// lists the nodes the batch influenced in the real world (the batch's
// own seeds are always committed and may be included or omitted freely).
// Node ids out of range are rejected; already-active ids are ignored, so
// callers may report their full activated-user set rather than the
// per-wave delta. Observe returns ErrNoBatchPending unless a NextBatch
// proposal is outstanding.
func (s *Session) Observe(activated []int32) (Progress, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.publishLocked()
	s.touch()
	if err := s.restoreLocked(); err != nil {
		return Progress{}, err
	}
	switch s.phase {
	case PhaseClosed:
		return Progress{}, ErrClosed
	case PhasePropose, PhaseDone:
		return Progress{}, ErrNoBatchPending
	}
	for _, v := range activated {
		if v < 0 || v >= s.g.N() {
			return Progress{}, fmt.Errorf("serve: round %d: observed node %d outside [0, n=%d)", s.loop.Round, v, s.g.N())
		}
	}
	// Write-ahead commit: the observation — the session's only
	// nondeterministic input — is journaled before any state changes.
	if s.jw != nil {
		// Only the ids this observation can newly activate are journaled:
		// commit semantics ignore already-active ids, so dropping them is
		// replay-invisible and bounds the record by the residual graph
		// rather than by however large a cumulative activated set the
		// client chooses to resend each round.
		fresh := make([]int32, 0, len(activated))
		for _, v := range activated {
			if !s.loop.Active.Get(v) {
				fresh = append(fresh, v)
			}
		}
		frame, err := journal.Marshal(journal.TypeObserved, journal.Observed{Round: s.loop.Round, Activated: fresh})
		if err != nil {
			// Encoding failed before anything touched disk: the session
			// state is untouched and the session stays serviceable — this
			// is the caller's oversized record, not a broken log.
			return Progress{}, fmt.Errorf("serve: round %d: %w", s.loop.Round, err)
		}
		if err := s.commitFrameLocked(frame); err != nil {
			return Progress{}, err
		}
	}
	newly := s.loop.Commit(s.pending, activated)
	s.pending = nil
	s.phase = PhasePropose
	if s.loop.EtaI() <= 0 {
		s.phase = PhaseDone
	}
	// Checkpoint on interval boundaries and at campaign completion, so a
	// finished session that outlives passivation or a restart restores
	// with nothing to replay. The observation above is already durable, so
	// a skipped or failed checkpoint never loses a transition — it only
	// costs replay time.
	if s.jw != nil && s.ckptEvery > 0 && (s.loop.Round%s.ckptEvery == 0 || s.phase == PhaseDone) {
		if err := s.checkpointLocked(); err != nil {
			// Append/reopen failure under fail-stop: the session is poisoned
			// (write-ahead contract), but the observation itself was committed
			// — recovery resumes past it. Under the degrade policy the error
			// is nil and the session continues non-durably.
			return Progress{}, err
		}
	}
	if !s.replaying {
		s.mgr.add(Observations, 1)
	}
	return s.progressLocked(newly), nil
}

// Status is a point-in-time snapshot of a session.
type Status struct {
	// ID is the manager-assigned session id.
	ID string
	// Dataset is the registry name of the session's graph ("" when the
	// session was built on an unregistered graph).
	Dataset string
	// Policy is the policy's report name.
	Policy string
	// Model names the diffusion model.
	Model string
	// N is the graph's node count.
	N int64
	// Eta is the campaign threshold η.
	Eta int64
	// SamplerVersion is the sampler stream contract the session runs
	// under (pinned at creation and journaled; 0 for sessions built
	// directly with NewSession, which carry whatever their policy's
	// config resolved to).
	SamplerVersion int
	// Phase is the loop position ("propose", "observe", "done",
	// "closed", "passivated").
	Phase string
	// Round counts NextBatch proposals so far.
	Round int
	// Pending is the batch awaiting observation (nil otherwise).
	Pending []int32
	// Seeds is the total number of committed seeds.
	Seeds int
	// Activated is the number of active nodes.
	Activated int64
	// EtaI is the remaining shortfall max(η − Activated, 0).
	EtaI int64
	// Done reports whether η has been reached.
	Done bool
	// Durable reports whether the session is journaled (its state
	// survives a process restart via Manager.Recover). Passivated
	// sessions report true: passivation is only available to journaled
	// sessions, and the journal is exactly where their state lives.
	Durable bool
	// Degraded reports that a final journal failure switched the session
	// to non-durable serving under the degrade durability policy (Durable
	// is false from that point on); DegradeReason carries the cause. A
	// restart recovers the session from its frozen log — at the last
	// durable transition, not at the degraded head — and clears the flag.
	Degraded bool
	// DegradeReason is the journal failure that degraded the session
	// ("" unless Degraded).
	DegradeReason string
	// LastFailure is the most recent final journal failure the session
	// saw, whichever durability policy handled it, or the policy panic
	// that closed it ("" if none). For a poisoned session this is why it
	// closed.
	LastFailure string
	// Passivations counts how many times an idle sweep passivated this
	// session (carried across reactivations and reported even while the
	// session is passivated; reset by a process restart).
	Passivations int
	// Checkpoints is the sequence number of the session's newest journal
	// checkpoint (0 = none), and LastCheckpointRound the last committed
	// round it covers (a checkpoint with a batch pending covers the rounds
	// before it).
	// Both are restored from the checkpoint itself on recovery, so they
	// are stable across a restart.
	Checkpoints         int
	LastCheckpointRound int
	// PoolBytes estimates the heap bytes held by the session's sampling
	// pool (0 for passivated sessions — releasing that memory is what
	// passivation is for). Manager.Metrics rolls the estimates up into a
	// service-level gauge.
	PoolBytes int64
	// IdleSeconds is the time since the session was last touched by a
	// client call (proposal, observation, or manager lookup).
	IdleSeconds float64
	// SelectSeconds is the cumulative policy-side selection time. It is
	// kept across passivation; a restart's recovery re-measures it (replayed
	// rounds re-run selection, so it restarts near the pre-crash value but
	// is not byte-identical to it).
	SelectSeconds float64
}

// Status returns a snapshot of the session: the one its last change
// published, with the idle clock read now. It never waits on a call in
// flight.
func (s *Session) Status() Status {
	st := *s.status.Load()
	st.Pending = slices.Clone(st.Pending)
	st.IdleSeconds = s.idleFor(time.Now()).Seconds()
	return st
}

// publishLocked stores the session's Status for readers that take no
// lock; every call that changes the session publishes before it releases
// s.mu. Callers hold s.mu.
func (s *Session) publishLocked() {
	st := s.statusLocked()
	s.status.Store(&st)
}

// statusLocked builds the Status snapshot, less IdleSeconds; callers hold
// s.mu. A released campaign (a passivated session, or one closed while
// passivated) keeps the figures published before its release. Pending
// shares the batch, which is never modified in place.
func (s *Session) statusLocked() Status {
	if s.loop.Policy == nil {
		st := *s.status.Load()
		st.Phase, st.Passivations, st.LastFailure, st.PoolBytes = s.phase.String(), s.passivations, s.lastFailure, 0
		return st
	}
	st := Status{
		ID:                  s.id,
		Dataset:             s.dataset,
		SamplerVersion:      s.samplerVer,
		Policy:              s.loop.Policy.Name(),
		Model:               s.loop.Model.String(),
		N:                   int64(s.g.N()),
		Eta:                 s.loop.Eta,
		Phase:               s.phase.String(),
		Round:               s.loop.Round,
		Seeds:               len(s.loop.Seeds),
		Activated:           s.loop.Activated(),
		Done:                s.phase == PhaseDone,
		Durable:             s.jw != nil,
		Degraded:            s.degraded,
		DegradeReason:       s.degradeReason,
		LastFailure:         s.lastFailure,
		Passivations:        s.passivations,
		Checkpoints:         s.ckpts,
		LastCheckpointRound: s.lastCkptRound,
		PoolBytes:           s.poolBytesLocked(),
		SelectSeconds:       s.loop.SelectTime.Seconds(),
		Pending:             s.pending,
	}
	st.EtaI = max(s.loop.EtaI(), 0)
	return st
}

// poolBytesLocked estimates the policy's sampling-pool memory (0 when
// the policy does not account for itself); callers hold s.mu.
func (s *Session) poolBytesLocked() int64 {
	if p, ok := s.loop.Policy.(interface{ PoolBytes() int64 }); ok {
		return p.PoolBytes()
	}
	return 0
}

// Result converts a finished session into the adaptive.Result shape the
// batch evaluators report, so served campaigns and offline runs can be
// compared with the same tooling. On a passivated session the per-round
// traces live in the journal, so Result reports the totals with nil
// Seeds/Rounds — look the session up through its manager first (which
// restores it) for the full trace.
func (s *Session) Result() *adaptive.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.statusLocked()
	return &adaptive.Result{
		Policy:     st.Policy,
		Seeds:      slices.Clone(s.loop.Seeds),
		Rounds:     slices.Clone(s.loop.Rounds),
		Spread:     st.Activated,
		ReachedEta: st.Activated >= st.Eta,
		Duration:   s.loop.SelectTime,
	}
}

// Close ends the campaign for good: it releases the session's policy
// resources (the sampling engine's scratch for TRIM-family policies)
// and, for journaled sessions, appends the closed record so recovery
// never resurrects the session. Close is idempotent; NextBatch and
// Observe return ErrClosed afterwards, while Status and Result keep
// reporting the final state.
//
// A serving process shutting down must NOT Close sessions it intends to
// recover after restart — Manager.CloseAll releases resources without
// marking sessions closed.
func (s *Session) Close() {
	s.closeSession(true)
}

// release is shutdown-time Close: resources are freed but no closed
// record is written, so the session stays recoverable from its journal.
func (s *Session) release() {
	s.closeSession(false)
}

// closeSession implements Close/release; mark journals the closed
// record.
func (s *Session) closeSession(mark bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.phase == PhaseClosed {
		return
	}
	if s.phase == PhasePassivated {
		s.mgr.add(Passivated, -1)
		if mark {
			// A passivated session has no writer: reopen the log for the
			// closed record, or a lost unlink would resurrect a deliberately
			// closed campaign on the next Recover. (Shutdown leaves the log
			// recoverable.)
			if res, err := s.store.Resume(s.id); err == nil {
				s.jw = res.Writer
			} else {
				// Still best effort — recovery recognizes the unmarked log —
				// but the failure stays observable in Status.
				s.lastFailure = err.Error()
			}
		}
	}
	s.phase = PhaseClosed
	s.pending = nil
	if s.jw != nil {
		var cerr error
		if mark {
			// Best effort: a failed closed-record append at worst resurrects
			// the session on recovery, where the client can delete it again.
			cerr = s.jw.Append(journal.TypeClosed, nil)
		}
		if cerr = errors.Join(cerr, s.jw.Close()); cerr != nil {
			// The close still succeeds, but the failure is kept visible in
			// Status instead of vanishing.
			s.lastFailure = cerr.Error()
		}
		s.jw = nil
	}
	if c, ok := s.loop.Policy.(interface{ Close() }); ok {
		c.Close()
	}
	s.publishLocked()
}

// commitFrameLocked appends one write-ahead frame with the session's
// full resilience ladder behind it: the writer's own bounded retries run
// first (inside AppendFrame); a disk-full failure then gets one
// emergency compaction and a single re-append; and whatever still fails
// goes to journalFailureLocked, where the durability policy decides
// between poisoning the session (fail-stop, the returned error) and
// degrading it to non-durable serving (nil — the caller proceeds with
// the transition acknowledged un-journaled). On success the history
// digest advances. Callers hold s.mu with s.jw armed.
func (s *Session) commitFrameLocked(frame []byte) error {
	err := s.jw.AppendFrame(frame)
	if err != nil && journal.Classify(err) == journal.ClassDiskFull {
		if cerr := s.emergencyCompactLocked(); cerr == nil {
			err = s.jw.AppendFrame(frame)
		}
	}
	if err != nil {
		return s.journalFailureLocked(fmt.Errorf("serve: round %d: %w", s.loop.Round, err))
	}
	s.histDigest = journal.DigestFrame(s.histDigest, frame)
	return nil
}

// emergencyCompactLocked answers a disk-full append by compacting the
// session's own log in place (dropping the replay history before the
// newest checkpoint — the one way to free journal bytes without new
// space) and re-arming the writer at the shrunken end. It returns nil
// only when the compaction actually reclaimed bytes, so the caller does
// not burn its one re-append on a log that is as small as it gets.
// Callers hold s.mu with s.jw armed.
func (s *Session) emergencyCompactLocked() error {
	if s.store == nil || s.id == "" {
		return errors.New("serve: no store to compact")
	}
	//asm:errclass-ok the fd is replaced after a disk-full append; its close error adds nothing to the compaction outcome
	_ = s.jw.Close()
	s.jw = nil
	removed, cerr := s.store.Compact(s.id)
	res, rerr := s.store.Resume(s.id)
	if rerr != nil {
		// No writer anymore: this is its own final journal failure, but the
		// caller's journalFailureLocked handles it with the original error.
		return fmt.Errorf("serve: reopening log after emergency compaction: %w", rerr)
	}
	s.jw = res.Writer
	if cerr != nil {
		return cerr
	}
	if removed == 0 {
		return errors.New("serve: emergency compaction freed no bytes")
	}
	// The rewrite changed the log bytes but not the history the digest
	// chains over: Compact preserves record identity, and the digest is
	// over records, not file offsets.
	s.mgr.add(EmergencyCompactions, 1)
	s.mgr.add(Compactions, 1)
	s.mgr.add(CompactedBytes, removed)
	return nil
}

// journalFailureLocked is the final-failure policy switch: the writer's
// retries and the emergency compaction are spent, so durability is
// genuinely lost. Under fail-stop the session is poisoned (the returned
// error propagates to the caller); under degrade it keeps serving
// non-durably — the journal writer is released, the log stays frozen on
// disk at the last durable transition, and Status flips
// Durable=false/Degraded=true. Either way the manager's journal-health
// breaker learns of the failure. Callers hold s.mu.
func (s *Session) journalFailureLocked(err error) error {
	s.lastFailure = err.Error()
	if s.mgr != nil {
		s.mgr.noteJournalFailure()
	}
	if s.durability == DegradeToNonDurable {
		if s.jw != nil {
			//asm:errclass-ok the session is already degrading on err; a release-path close error would only obscure its class
			_ = s.jw.Close()
			s.jw = nil
		}
		s.degraded = true
		s.degradeReason = err.Error()
		s.mgr.add(Degraded, 1)
		return nil
	}
	return s.failLocked(err)
}

// failLocked poisons the session after a journal append failure (the
// write-ahead contract, "journaled before acknowledged", cannot hold
// anymore, so instead of serving acknowledgements that would not survive
// a crash, the session closes) or a policy panic. The cause is recorded
// for Status and the manager's poisoned counter. Callers hold s.mu; the wrapped error is
// returned for relaying.
func (s *Session) failLocked(err error) error {
	s.lastFailure = err.Error()
	s.phase = PhaseClosed
	s.pending = nil
	if s.jw != nil {
		//asm:errclass-ok the session is being poisoned on err; the release-path close error must not mask it
		_ = s.jw.Close()
		s.jw = nil
	}
	if c, ok := s.loop.Policy.(interface{ Close() }); ok {
		c.Close()
	}
	s.mgr.add(Poisoned, 1)
	return err
}

// passivate releases the session's live resources — policy engine, mRR
// pool, journal writer, residual-graph state — while its journal stays
// on disk; the session stays in its manager's table, showing the figures
// it had live. Any durable (journaled) session qualifies, a pending batch
// included; closed, already-passivated, or in-memory sessions are left
// alone, as are sessions touched less than minIdle before now (the
// idleness re-check runs under s.mu, so a client call that slips in
// between the sweep's candidate scan and this lock keeps its session
// live; minIdle 0 forces).
//
// With checkpointing on, the session first checkpoints its state unless
// the newest checkpoint already covers it, so a restore brings the
// snapshot back instead of re-running the selections since the last
// interval checkpoint. That write goes through the session's durability
// policy like any append: if it fails, the session is poisoned
// (fail-stop) or keeps serving without a journal (degrade) — either way
// it is not passivated, and err carries a fail-stop failure. It reports
// whether the session was passivated and the pool bytes that released.
// The passivated gauge moves here and where the session leaves the
// phase (restoreLocked, closeSession), always under s.mu.
func (s *Session) passivate(now time.Time, minIdle time.Duration) (ok bool, released int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.phase == PhaseClosed || s.phase == PhasePassivated || s.jw == nil {
		return false, 0, nil
	}
	if minIdle > 0 && s.idleFor(now) < minIdle {
		return false, 0, nil
	}
	defer s.publishLocked()
	if s.ckptEvery > 0 && !s.checkpointCurrentLocked() {
		if err := s.checkpointLocked(); err != nil || s.jw == nil {
			return false, 0, err
		}
	}
	released = s.poolBytesLocked()
	s.publishLocked() // the figures the released campaign keeps showing
	s.passivations++
	s.mgr.add(Passivations, 1)
	s.mgr.add(Passivated, 1)
	// No closed record: the log must stay replayable. Everything the
	// campaign holds is reconstructed from it.
	//asm:errclass-ok every committed frame is already fsynced, and a close error on a writer the session is dropping changes nothing it can report
	_ = s.jw.Close()
	s.jw = nil
	if c, ok := s.loop.Policy.(interface{ Close() }); ok {
		c.Close()
	}
	s.campaign = campaign{loop: &adaptive.Campaign{SelectTime: s.loop.SelectTime}, phase: PhasePassivated}
	return true, released, nil
}

// restoreLocked brings a passivated session back in place (a no-op for
// any other phase): the recovery path rebuilds the campaign from the
// journal into a fresh session — restoring the checkpoint passivation
// wrote, or replaying the log without one — and this session adopts that
// campaign and the fresh writer at the log's end. The selection clock is
// kept: nothing the restore re-runs is the client's selection. On failure
// the session stays passivated. Callers hold s.mu.
func (s *Session) restoreLocked() error {
	if s.phase != PhasePassivated {
		return nil
	}
	recs, tailErr, err := s.store.Load(s.id)
	if err == nil && tailErr != nil {
		// The log was intact when the session passivated; a torn or corrupt
		// tail now means the disk lost bytes under it. Resuming from the
		// shorter prefix would silently roll back acknowledged transitions,
		// so the restore refuses (crash recovery, where losing the record
		// being appended is expected, stays lenient — see Recover).
		err = fmt.Errorf("journal damaged while passivated: %w", tailErr)
	}
	var fresh *Session
	if err == nil {
		fresh, _, _, err = s.mgr.resume(s.store, s.id, recs, nil)
	}
	if err != nil {
		return fmt.Errorf("%w %s: %w", ErrRestoreFailed, s.id, err)
	}
	fresh.loop.SelectTime = s.loop.SelectTime
	s.campaign, s.jw = fresh.campaign, fresh.jw
	s.mgr.add(Reactivations, 1)
	s.mgr.add(Passivated, -1)
	return nil
}

// touch refreshes the idle clock (manager lookups count as activity).
func (s *Session) touch() { s.touched.Store(time.Now().UnixNano()) }

// idleFor returns how long the session has been untouched.
func (s *Session) idleFor(now time.Time) time.Duration {
	return now.Sub(time.Unix(0, s.touched.Load()))
}

// publish is publishLocked taking the session lock.
func (s *Session) publish() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.publishLocked()
}

// progressLocked builds a Progress snapshot; callers hold s.mu.
func (s *Session) progressLocked(newly int64) Progress {
	return Progress{
		Round:          s.loop.Round,
		NewlyActivated: newly,
		Activated:      s.loop.Activated(),
		EtaI:           max(s.loop.EtaI(), 0),
		Done:           s.phase == PhaseDone,
	}
}
