package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"asti/internal/adaptive"
	"asti/internal/bitset"
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
	// PhasePassivated means an idle sweep released the session's engine
	// and pool; its state lives in the journal. The manager reactivates
	// the session transparently on the next Manager.Session lookup —
	// only stale pointers to the passivated object observe this phase
	// (their calls return ErrPassivated).
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
	// ErrPassivated is returned by NextBatch/Propose and Observe on a
	// session object an idle sweep passivated after the caller looked it
	// up. The session itself is fine — re-fetching it from its manager
	// (Manager.Session) reactivates it and returns a live object.
	ErrPassivated = errors.New("serve: session passivated (reacquire it from its manager)")
)

// Session is one live adaptive-seeding campaign: the residual-graph state
// of the ASTI loop with the observation step handed to the caller.
// NextBatch proposes seeds for the current residual graph; Observe
// commits the batch's realized influence and advances the state. The
// session is done once at least η nodes are active.
//
// A Session is safe for concurrent use; calls are serialized internally
// (on a journaled session this includes the commit fsync, so a Status
// snapshot may briefly wait behind an in-flight transition — the price
// of a strictly ordered log). Given the same dataset, policy and seed,
// the proposed batches are a deterministic function of the observation
// sequence.
type Session struct {
	mu sync.Mutex

	id         string
	dataset    string
	samplerVer int // resolved sampler stream contract (0 for NewSession-built sessions)
	g          *graph.Graph
	model      diffusion.Model
	eta        int64
	policy     adaptive.Policy
	src        *rng.Source
	jw         *journal.Writer // nil for in-memory sessions (and during replay)
	store      *journal.Store  // set with jw; lets a passivated close reopen its log
	mgr        *Manager        // owning manager (nil for NewSession-built sessions)
	replaying  bool            // true while recovery/reactivation re-executes the log (suppresses the manager's load counters)

	phase    Phase
	round    int
	active   *bitset.Set
	inactive []int32
	delta    []int32 // nodes the last observation removed from inactive
	pending  []int32
	seeds    []int32
	rounds   []adaptive.RoundTrace

	created    time.Time
	touched    time.Time // last client-visible call (Propose/Observe/manager lookup)
	selectTime time.Duration

	// Checkpointing (journaled sessions only). ckptEvery is the manager's
	// interval in committed rounds (0 = off); compactOn arms log
	// truncation past each written checkpoint. histDigest chains CRC32-C
	// over every record payload appended to (or recovered from) the log —
	// the position pin a checkpoint stores so loaders can tell it belongs
	// to exactly this history. ckpts and lastCkptRound mirror the newest
	// checkpoint for Status, and ckptPending records whether it carried a
	// pending batch; graphSig pins the dataset's structure. restoredPool
	// is the pool digest of the checkpoint the session was restored from,
	// which its own snapshots report until the policy regenerates a pool.
	ckptEvery     int
	compactOn     bool
	graphSig      uint64
	histDigest    uint32
	ckpts         int
	lastCkptRound int
	ckptPending   bool
	restoredPool  uint64

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

	// Passivation bookkeeping: how many times an idle sweep released this
	// campaign's resources (carried across reactivations by the manager),
	// and — on a passivated object — the status snapshot taken when the
	// resources were released. passiveCounted means this object holds the
	// manager's passivated-gauge count for the current episode; exactly
	// one path (reactivation swap, or a close) may consume it, so the
	// gauge can neither leak nor go negative whichever wins the race.
	passivations   int
	passiveStatus  *Status
	passiveCounted bool
}

// NewSession returns a session for one campaign on g: reach eta active
// nodes under the model, proposing batches with policy. The policy
// becomes owned by the session (sessions must not share one) and its
// sampling randomness derives from seed alone. The graph is only read.
func NewSession(g *graph.Graph, model diffusion.Model, eta int64, policy adaptive.Policy, seed uint64) (*Session, error) {
	if g == nil {
		return nil, errors.New("serve: nil graph")
	}
	if !model.Valid() {
		return nil, errors.New("serve: unknown diffusion model")
	}
	if eta < 1 || eta > int64(g.N()) {
		return nil, fmt.Errorf("serve: eta %d outside [1, n=%d]", eta, g.N())
	}
	if policy == nil {
		return nil, errors.New("serve: nil policy")
	}
	adaptive.ResetPolicy(policy)
	n := int(g.N())
	inactive := make([]int32, n)
	for i := range inactive {
		inactive[i] = int32(i)
	}
	now := time.Now()
	return &Session{
		g:        g,
		model:    model,
		eta:      eta,
		policy:   policy,
		src:      rng.New(seed),
		active:   bitset.New(n),
		inactive: inactive,
		created:  now,
		touched:  now,
	}, nil
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
	s.touched = time.Now()
	switch s.phase {
	case PhaseClosed:
		return Proposal{}, ErrClosed
	case PhasePassivated:
		return Proposal{}, ErrPassivated
	case PhaseDone:
		return Proposal{}, ErrDone
	case PhaseObserve:
		return Proposal{}, ErrBatchPending
	}
	s.round++
	st := &adaptive.State{
		G:        s.g,
		Model:    s.model,
		Eta:      s.eta,
		Active:   s.active,
		Inactive: s.inactive,
		Delta:    s.delta,
		Round:    s.round,
		Rng:      s.src,
	}
	t0 := time.Now()
	batch, err := s.policy.SelectBatch(st)
	s.selectTime += time.Since(t0)
	if err != nil {
		s.round--
		return Proposal{}, fmt.Errorf("serve: round %d: %w", s.round+1, err)
	}
	if len(batch) == 0 {
		s.round--
		return Proposal{}, adaptive.ErrNoProgress
	}
	if err := adaptive.ValidateBatch(s.g, s.active, batch); err != nil {
		s.round--
		return Proposal{}, fmt.Errorf("serve: round %d: %w", s.round+1, err)
	}
	// Write-ahead commit: the proposal is journaled (and fsynced) before
	// the session acknowledges it, so a killed process can replay it.
	if s.jw != nil {
		frame, err := journal.Marshal(journal.TypeProposed, journal.Proposed{Round: s.round, Seeds: batch})
		if err != nil {
			s.round--
			return Proposal{}, fmt.Errorf("serve: round %d: %w", s.round+1, err)
		}
		if err := s.commitFrameLocked(frame); err != nil {
			return Proposal{}, err
		}
	}
	s.pending = append([]int32(nil), batch...)
	s.phase = PhaseObserve
	out := make([]int32, len(batch))
	copy(out, batch)
	if !s.replaying {
		s.mgr.add(Proposals, 1)
	}
	return Proposal{Round: s.round, Seeds: out}, nil
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
	s.touched = time.Now()
	switch s.phase {
	case PhaseClosed:
		return Progress{}, ErrClosed
	case PhasePassivated:
		return Progress{}, ErrPassivated
	case PhasePropose, PhaseDone:
		return Progress{}, ErrNoBatchPending
	}
	for _, v := range activated {
		if v < 0 || v >= s.g.N() {
			return Progress{}, fmt.Errorf("serve: round %d: observed node %d outside [0, n=%d)", s.round, v, s.g.N())
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
			if !s.active.Get(v) {
				fresh = append(fresh, v)
			}
		}
		frame, err := journal.Marshal(journal.TypeObserved, journal.Observed{Round: s.round, Activated: fresh})
		if err != nil {
			// Encoding failed before anything touched disk: the session
			// state is untouched and the session stays serviceable — this
			// is the caller's oversized record, not a broken log.
			return Progress{}, fmt.Errorf("serve: round %d: %w", s.round, err)
		}
		if err := s.commitFrameLocked(frame); err != nil {
			return Progress{}, err
		}
	}
	before := s.activatedLocked()
	niBefore := int64(len(s.inactive))
	for _, v := range s.pending {
		s.active.Set(v)
	}
	for _, v := range activated {
		s.active.Set(v)
	}
	s.inactive, s.delta = adaptive.CompactInactive(s.inactive, s.active)
	newly := s.activatedLocked() - before
	s.seeds = append(s.seeds, s.pending...)
	s.rounds = append(s.rounds, adaptive.RoundTrace{
		Seeds:      s.pending,
		Marginal:   newly,
		NiBefore:   niBefore,
		EtaIBefore: s.eta - before,
	})
	s.pending = nil
	s.phase = PhasePropose
	if s.activatedLocked() >= s.eta {
		s.phase = PhaseDone
	}
	// Checkpoint on interval boundaries and at campaign completion, so a
	// finished session that outlives passivation or a restart restores
	// with nothing to replay. The observation above is already durable, so
	// a skipped or failed checkpoint never loses a transition — it only
	// costs replay time.
	if s.jw != nil && s.ckptEvery > 0 && (s.round%s.ckptEvery == 0 || s.phase == PhaseDone) {
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
	// "closed").
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
	// saw, whichever durability policy handled it ("" if none). For a
	// poisoned (fail-stop) session this is why it closed.
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
	// SelectSeconds is the cumulative policy-side selection time.
	// Replayed rounds re-run selection, so after a recovery this restarts
	// near the pre-crash value but is not byte-identical to it.
	SelectSeconds float64
}

// Status returns a snapshot of the session.
func (s *Session) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked()
}

// statusLocked builds the Status snapshot; callers hold s.mu. For a
// passivated session it serves the snapshot taken at passivation time
// (the live state is on disk), with the idle clock still running.
func (s *Session) statusLocked() Status {
	if s.passiveStatus != nil {
		st := *s.passiveStatus
		st.IdleSeconds = time.Since(s.touched).Seconds()
		return st
	}
	st := Status{
		ID:                  s.id,
		Dataset:             s.dataset,
		SamplerVersion:      s.samplerVer,
		Policy:              s.policy.Name(),
		Model:               s.model.String(),
		N:                   int64(s.g.N()),
		Eta:                 s.eta,
		Phase:               s.phase.String(),
		Round:               s.round,
		Seeds:               len(s.seeds),
		Activated:           s.activatedLocked(),
		Done:                s.phase == PhaseDone,
		Durable:             s.jw != nil,
		Degraded:            s.degraded,
		DegradeReason:       s.degradeReason,
		LastFailure:         s.lastFailure,
		Passivations:        s.passivations,
		Checkpoints:         s.ckpts,
		LastCheckpointRound: s.lastCkptRound,
		PoolBytes:           s.poolBytesLocked(),
		IdleSeconds:         time.Since(s.touched).Seconds(),
		SelectSeconds:       s.selectTime.Seconds(),
	}
	if s.pending != nil {
		st.Pending = append([]int32(nil), s.pending...)
	}
	st.EtaI = s.eta - st.Activated
	if st.EtaI < 0 {
		st.EtaI = 0
	}
	return st
}

// poolBytesLocked estimates the policy's sampling-pool memory (0 when
// the policy does not account for itself); callers hold s.mu.
func (s *Session) poolBytesLocked() int64 {
	if p, ok := s.policy.(interface{ PoolBytes() int64 }); ok {
		return p.PoolBytes()
	}
	return 0
}

// Result converts a finished session into the adaptive.Result shape the
// batch evaluators report, so served campaigns and offline runs can be
// compared with the same tooling. On a passivated session object the
// per-round traces live in the journal, so Result reports the snapshot
// totals with nil Seeds/Rounds — reacquire the session from its manager
// first for the full trace.
func (s *Session) Result() *adaptive.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.passiveStatus != nil {
		return &adaptive.Result{
			Policy:     s.passiveStatus.Policy,
			Spread:     s.passiveStatus.Activated,
			ReachedEta: s.passiveStatus.Done,
			Duration:   s.selectTime,
		}
	}
	spread := s.activatedLocked()
	return &adaptive.Result{
		Policy:     s.policy.Name(),
		Seeds:      append([]int32(nil), s.seeds...),
		Rounds:     append([]adaptive.RoundTrace(nil), s.rounds...),
		Spread:     spread,
		ReachedEta: spread >= s.eta,
		Duration:   s.selectTime,
	}
}

// Close ends the campaign for good: it releases the session's policy
// resources (the sampling-engine worker pool for TRIM-family policies)
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
// record. It reports whether the session was passivated when the close
// landed — decided under s.mu, so a close racing the idle sweep learns
// the truth (the manager must then commit the closed record itself: a
// passivated session has no writer to append it to).
func (s *Session) closeSession(mark bool) (wasPassivated bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.phase == PhaseClosed {
		return false
	}
	wasPassivated = s.phase == PhasePassivated
	s.phase = PhaseClosed
	if s.passiveStatus != nil {
		// A passivated stub keeps serving its frozen snapshot; closing it
		// must at least stop advertising the session as reactivatable.
		s.passiveStatus.Phase = PhaseClosed.String()
	}
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
	if wasPassivated && s.passiveCounted {
		// This close ends the passivation episode (no reactivation consumed
		// it first — the flag decides the race exactly once, under s.mu).
		s.passiveCounted = false
		if mark {
			// A passivated session has no live writer, so the closed-record
			// append above was skipped: reopen the log and commit one, or a
			// lost unlink would resurrect a deliberately closed campaign on
			// the next Recover. (mark=false is shutdown — the log must stay
			// recoverable, and CloseAll resets the gauge itself.)
			if s.store != nil && s.id != "" {
				rerr := func() error {
					res, err := s.store.Resume(s.id)
					if err != nil {
						return err
					}
					return errors.Join(res.Writer.Append(journal.TypeClosed, nil), res.Writer.Close())
				}()
				if rerr != nil {
					// Still best effort — recovery recognizes the unmarked log —
					// but the failure stays observable in Status.
					s.lastFailure = rerr.Error()
				}
			}
			s.mgr.add(Passivated, -1)
		}
	}
	if c, ok := s.policy.(interface{ Close() }); ok {
		c.Close()
	}
	return wasPassivated
}

// consumePassiveCount atomically claims the session's passivated-gauge
// count for the caller (the reactivation swap); it reports false if a
// concurrent close claimed it first.
func (s *Session) consumePassiveCount() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.passiveCounted
	s.passiveCounted = false
	return c
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
		return s.journalFailureLocked(fmt.Errorf("serve: round %d: %w", s.round, err))
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

// failLocked poisons the session after a journal append failure: the
// write-ahead contract ("journaled before acknowledged") cannot hold
// anymore, so instead of serving acknowledgements that would not survive
// a crash, the session closes. The cause is recorded for Status and the
// manager's poisoned counter. Callers hold s.mu; the wrapped error is
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
	if c, ok := s.policy.(interface{ Close() }); ok {
		c.Close()
	}
	s.mgr.add(Poisoned, 1)
	return err
}

// passivate releases the session's live resources — policy engine, mRR
// pool, journal writer, residual-graph state — while its journal stays
// on disk, and freezes a status snapshot for List/metrics. Any durable
// (journaled) session qualifies, a pending batch included; closed,
// already-passivated, or in-memory sessions are left alone, as are
// sessions touched less than minIdle before now (the idleness re-check
// runs under s.mu, so a client call that slips in between the sweep's
// candidate scan and this lock keeps its session live; minIdle 0
// forces).
//
// With checkpointing on, the session first checkpoints its state unless
// the newest checkpoint already covers it, so reactivation (the
// manager's job) restores the snapshot instead of re-running the
// selections since the last interval checkpoint. That write goes through
// the session's durability policy like any append: if it fails, the
// session is poisoned (fail-stop) or keeps serving without a journal
// (degrade) — either way it is not passivated, and err carries a
// fail-stop failure. It reports whether the session was passivated and
// the pool bytes that released; stale pointers to this object get
// ErrPassivated.
func (s *Session) passivate(now time.Time, minIdle time.Duration) (ok bool, released int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.phase == PhaseClosed || s.phase == PhasePassivated || s.jw == nil {
		return false, 0, nil
	}
	if minIdle > 0 && now.Sub(s.touched) < minIdle {
		return false, 0, nil
	}
	if s.ckptEvery > 0 && !s.checkpointCurrentLocked() {
		if err := s.checkpointLocked(); err != nil || s.jw == nil {
			return false, 0, err
		}
	}
	released = s.poolBytesLocked()
	snap := s.statusLocked()
	snap.Phase = PhasePassivated.String()
	snap.Passivations++
	snap.PoolBytes = 0
	s.passiveStatus = &snap
	s.passivations++
	s.phase = PhasePassivated
	// Count the episode in the manager's gauge before releasing s.mu: a
	// reactivation can only observe PhasePassivated (and later decrement)
	// after this lock drops, so the gauge never dips negative.
	s.passiveCounted = true
	s.mgr.add(Passivations, 1)
	s.mgr.add(Passivated, 1)
	// No closed record: the log must stay replayable. Everything the
	// session holds beyond the snapshot is reconstructed from it.
	//asm:errclass-ok every committed frame is already fsynced, and the frozen snapshot Status cannot carry a late close error
	_ = s.jw.Close()
	s.jw = nil
	s.active = nil
	s.inactive = nil
	s.delta = nil
	s.pending = nil
	s.seeds = nil
	s.rounds = nil
	if c, ok := s.policy.(interface{ Close() }); ok {
		c.Close()
	}
	return true, released, nil
}

// passivated reports whether the session is currently passivated.
func (s *Session) passivated() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.phase == PhasePassivated
}

// touch refreshes the idle clock (manager lookups count as activity).
func (s *Session) touch() {
	s.mu.Lock()
	s.touched = time.Now()
	s.mu.Unlock()
}

// idleFor returns how long the session has been untouched.
func (s *Session) idleFor(now time.Time) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return now.Sub(s.touched)
}

// attachJournal arms write-ahead logging (used by the Manager after the
// created record is committed, and after a successful replay). The
// store is remembered so a close landing on a passivated session — whose
// writer is gone — can reopen the log for its closed record.
func (s *Session) attachJournal(w *journal.Writer, st *journal.Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jw = w
	s.store = st
}

// activatedLocked returns the active-node count; callers hold s.mu.
func (s *Session) activatedLocked() int64 {
	return int64(s.g.N()) - int64(len(s.inactive))
}

// progressLocked builds a Progress snapshot; callers hold s.mu.
func (s *Session) progressLocked(newly int64) Progress {
	act := s.activatedLocked()
	etaI := s.eta - act
	if etaI < 0 {
		etaI = 0
	}
	return Progress{
		Round:          s.round,
		NewlyActivated: newly,
		Activated:      act,
		EtaI:           etaI,
		Done:           s.phase == PhaseDone,
	}
}
