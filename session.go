package asti

import (
	"time"

	"asti/internal/serve"
)

// Session is a live adaptive-seeding campaign with the observation step
// handed to the caller: NextBatch proposes seeds for the current residual
// graph, Observe feeds back who the batch actually influenced, and the
// loop repeats until η users are active. It is the library-level
// counterpart of one cmd/asmserve HTTP session; see OpenSession.
type Session = serve.Session

// SessionStatus is a point-in-time snapshot of a Session.
type SessionStatus = serve.Status

// SessionProgress reports a Session's state after an observation.
type SessionProgress = serve.Progress

// SessionRegistry resolves dataset names to graphs, loading each at most
// once and sharing the cached graph read-only across sessions.
type SessionRegistry = serve.Registry

// SessionManager owns a table of concurrent sessions over a shared
// registry — the in-process equivalent of running cmd/asmserve. With a
// journal attached (WithJournalDir) sessions are durable: state
// transitions are write-ahead logged before being acknowledged, and
// Recover rebuilds the table after a process restart.
type SessionManager = serve.Manager

// SessionConfig describes a session created through a SessionManager.
type SessionConfig = serve.Config

// SessionManagerOption configures NewSessionManager.
type SessionManagerOption = serve.ManagerOption

// SessionRecovery reports what a SessionManager.Recover call rebuilt:
// recovered/closed/skipped session counts, replayed rounds, warnings.
type SessionRecovery = serve.RecoveryReport

// Session lifecycle errors; compare with errors.Is.
var (
	// ErrSessionClosed is returned by session calls after Close.
	ErrSessionClosed = serve.ErrClosed
	// ErrSessionDone is returned by NextBatch once η is reached.
	ErrSessionDone = serve.ErrDone
	// ErrBatchPending is returned by NextBatch while a proposed batch
	// awaits its observation.
	ErrBatchPending = serve.ErrBatchPending
	// ErrNoBatchPending is returned by Observe when no batch awaits
	// observation.
	ErrNoBatchPending = serve.ErrNoBatchPending
)

// OpenSession starts an adaptive campaign on g: reach eta active nodes
// under the model, proposing batches with policy (NewASTI, NewASTIBatch,
// NewAdaptIM, ...). Unlike RunAdaptive — which plays the whole
// select–observe loop against a sampled Realization — a session leaves
// observation to the caller, so real (or replayed) feedback can drive
// the loop:
//
//	s, _ := asti.OpenSession(g, asti.IC, 500, policy, 7)
//	defer s.Close()
//	for {
//	    batch, err := s.NextBatch()
//	    if errors.Is(err, asti.ErrSessionDone) {
//	        break
//	    }
//	    prog, _ := s.Observe(launchWave(batch)) // the real world answers
//	    if prog.Done {
//	        break
//	    }
//	}
//
// The policy becomes owned by the session (do not share or reuse it) and
// its randomness derives from seed alone: equal graph+policy+seed
// sessions propose identical batches under identical observations.
// Sessions are safe for concurrent use, and any number of sessions may
// share one graph.
func OpenSession(g *Graph, model Model, eta int64, policy Policy, seed uint64) (*Session, error) {
	return serve.NewSession(g, model, eta, policy, seed)
}

// NewSessionRegistry returns an empty dataset registry for
// NewSessionManager.
func NewSessionRegistry() *SessionRegistry { return serve.NewRegistry() }

// NewSessionManager returns a manager creating sessions on reg's
// datasets; limit caps concurrently open sessions (0 = unlimited).
func NewSessionManager(reg *SessionRegistry, limit int, opts ...SessionManagerOption) *SessionManager {
	return serve.NewManager(reg, limit, opts...)
}

// WithJournalDir makes a SessionManager's sessions durable: every state
// transition (create, propose, observe, close) is appended — fsynced —
// to a per-session write-ahead log in dir before it is acknowledged.
// After a crash or restart, calling Recover("") on a manager built over
// the same directory replays each log through the deterministic engine
// and resumes every session exactly where its last acknowledged
// transition left it:
//
//	mgr := asti.NewSessionManager(reg, 0, asti.WithJournalDir("wal"))
//	rep, err := mgr.Recover("") // on startup
//	log.Printf("recovered %d session(s)", rep.Recovered)
//
// Durability costs one fsync per transition. In internal/serve,
// BenchmarkStepJournaled against BenchmarkStepInMemory measures that
// per-step overhead, and BenchmarkReactivate* the cost of a restore.
func WithJournalDir(dir string) SessionManagerOption {
	return serve.WithJournalDir(dir)
}

// WithIdleTTL adds idle-session passivation to a durable SessionManager
// (it requires WithJournalDir; in-memory sessions are never passivated).
// A background sweep checkpoints, then releases the engine, sampling
// pool, and residual-graph state of any session no client call has
// touched for ttl — the dominant per-session memory — while its
// write-ahead log keeps the state on disk. The session stays in the
// manager and its *Session stays valid: the next SessionManager.Session
// lookup, NextBatch or Observe restores it in place from that
// checkpoint (replaying the log when checkpointing is off); by the
// serve determinism contract the restored session proposes
// byte-identical batches to one that was never passivated:
//
//	mgr := asti.NewSessionManager(reg, 0,
//	    asti.WithJournalDir("wal"), asti.WithIdleTTL(30*time.Minute))
//
// Reactivation re-runs no past selection; the next proposal
// regenerates the sampling pool instead of pruning a carried one.
// SessionManager.Metrics reports the passivation counters and the
// memory reclaimed.
func WithIdleTTL(ttl time.Duration) SessionManagerOption {
	return serve.WithIdleTTL(ttl)
}

// WithCheckpointEvery sets how often a durable session writes a state
// checkpoint into its write-ahead log: every k committed rounds (and at
// campaign completion and idle passivation), 0 to disable. The default
// is serve.DefaultCheckpointEvery. A checkpoint snapshots the session's
// adaptive state and RNG positions, pinned to its place in the log by a
// digest chain; recovery and reactivation restore the newest checkpoint
// whose pins hold and replay only the rounds after it — O(k) instead of
// O(rounds), none after a passivation — falling back to full replay
// whenever a checkpoint is damaged or the environment drifted.
// Checkpoints are invisible in the proposal stream: sessions propose
// byte-identical batches with checkpointing on, off, or at any interval.
func WithCheckpointEvery(k int) SessionManagerOption {
	return serve.WithCheckpointEvery(k)
}

// WithCompaction toggles journal compaction (on by default): after each
// checkpoint the session's log is atomically rewritten as
// [created record][checkpoint][suffix], bounding the log's disk footprint
// by the checkpoint interval instead of the campaign length. Turning it
// off keeps the full history on disk, preserving the ability to fall
// back to a complete replay if a later checkpoint is distrusted.
func WithCompaction(on bool) SessionManagerOption {
	return serve.WithCompaction(on)
}

// Durability policies for WithDurabilityPolicy: what a durable session
// does when its write-ahead log fails for good (the journal writer's
// bounded retries and the emergency disk-full compaction are already
// spent).
const (
	// FailStop closes the session with the cause recorded in its Status
	// (the default — never acknowledge a transition that would not
	// survive a crash).
	FailStop = serve.FailStop
	// DegradeToNonDurable keeps the session serving without the journal:
	// Status.Durable flips false, Status.Degraded carries the cause, and
	// the log stays frozen on disk at the last durable transition (where
	// a later restart would recover the session).
	DegradeToNonDurable = serve.DegradeToNonDurable
)

// WithDurabilityPolicy selects between the FailStop and
// DegradeToNonDurable responses to a final journal failure. Transient
// failures are invisible at this level: the journal writer retries them
// with bounded exponential backoff, and a disk-full failure first gets
// an emergency log compaction, before the policy is consulted.
func WithDurabilityPolicy(p serve.DurabilityPolicy) SessionManagerOption {
	return serve.WithDurabilityPolicy(p)
}
