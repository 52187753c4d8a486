package serve

import (
	"time"

	"asti/internal/journal"
)

// Counter indexes the manager's since-boot counters: one atomic slot
// each, bumped where the event happens and read by Snapshot.
type Counter int

const (
	// Creates / Closes / Proposals / Observations count client-visible
	// successes (recovery and reactivation replays excluded): the
	// server-side throughput a load generator checks its own against.
	Creates Counter = iota
	Closes
	Proposals
	Observations
	// Passivations / Reactivations count idle-lifecycle events.
	// Passivated is the one gauge: the sessions currently passivated.
	Passivations
	Reactivations
	Passivated
	// Checkpoints counts checkpoints written (at interval boundaries,
	// campaign completion and passivation) and CheckpointFailures the
	// snapshots skipped because they failed to encode (the session
	// recovers by replay). Compactions counts log truncations past a
	// checkpoint, CompactedBytes the journal bytes they reclaimed, and
	// CheckpointRestores the recoveries and reactivations that resumed
	// from a checkpoint instead of a full replay.
	Checkpoints
	CheckpointFailures
	Compactions
	CompactedBytes
	CheckpointRestores
	// EmergencyCompactions counts disk-full episodes answered with an
	// on-demand compaction, Poisoned the sessions a final journal
	// failure (fail-stop) or a policy panic closed, Degraded those a
	// final journal failure switched to non-durable serving (degrade),
	// and BreakerTrips the journal-health breaker's closed→open
	// transitions.
	EmergencyCompactions
	Poisoned
	Degraded
	BreakerTrips
	numCounters
)

// add moves counter c by n (n < 0 only for the Passivated gauge). A
// session built without a manager counts nowhere.
func (m *Manager) add(c Counter, n int64) {
	if m != nil {
		m.counters[c].Add(uint64(n))
	}
}

// Metrics is a point-in-time view of a manager for monitoring. Snapshot
// fills the O(1) part; Metrics adds the gauges that walk the session
// table.
type Metrics struct {
	// Counters holds the since-boot counters, indexed by Counter.
	Counters [numCounters]uint64
	// Sessions is the number of open sessions, passivated included.
	Sessions int
	// JournalHealthy is false while the journal-health breaker is open
	// (new durable sessions are being rejected).
	JournalHealthy bool
	// Journal carries the store's append-resilience counters (retries,
	// final failures, disk-full episodes, writer reopens); zero-valued
	// on an unjournaled manager.
	Journal journal.StoreMetrics

	// Phases counts sessions by phase name ("propose", "observe",
	// "done", "passivated"), and DegradedNow those serving non-durably.
	Phases      map[string]int
	DegradedNow int
	// PoolBytes sums the sessions' sampling-pool estimates (passivated
	// sessions contribute 0 — that is the point), and JournalBytes the
	// on-disk size of their logs (0 for an unjournaled manager).
	PoolBytes    int64
	JournalBytes int64
}

// Snapshot returns the manager's counters, session count and journal
// health without visiting any session: cheap enough for every probe
// (/healthz).
func (m *Manager) Snapshot() Metrics {
	m.mu.Lock()
	mt := Metrics{
		Sessions:       len(m.sessions),
		JournalHealthy: m.breakerUntil.IsZero() || !time.Now().Before(m.breakerUntil),
	}
	st := m.journal
	m.mu.Unlock()
	for c := range mt.Counters {
		mt.Counters[c] = m.counters[c].Load()
	}
	if st != nil {
		mt.Journal = st.Metrics()
	}
	return mt
}

// Metrics is Snapshot plus the gauges that need the session table: the
// phase census, DegradedNow, PoolBytes and JournalBytes. It reads the
// statuses sessions publish (like List), so it never waits on a session;
// it stats every journal file, so poll it at scrape cadence, not per
// request.
func (m *Manager) Metrics() Metrics {
	mt := m.Snapshot()
	m.mu.Lock()
	st := m.journal
	m.mu.Unlock()
	sessions := m.table()
	mt.Sessions = len(sessions) // the census sums to the sessions it walked
	mt.Phases = map[string]int{}
	for _, s := range sessions {
		stt := s.status.Load()
		mt.Phases[stt.Phase]++
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
