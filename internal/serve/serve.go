// Package serve turns the batch algorithms into a stateful
// adaptive-seeding service: long-lived Sessions that interleave seed
// proposal and real-world feedback, a Registry that loads each dataset
// once and shares it read-only across sessions, and a Manager that owns
// the session table behind cmd/asmserve and the asti.OpenSession facade.
//
// The paper's ASTI framework (Algorithm 1) is a select–observe loop:
// propose a seed batch for the residual graph, watch who the batch
// actually influences, remove the influenced users, repeat until η users
// are active. internal/adaptive runs that loop against a pre-sampled
// Realization in one call — fine for experiments, useless for a live
// campaign where the "observation" is a marketing wave measured in the
// field. A Session splits the loop at the observation boundary:
//
//	s, _ := mgr.Create(serve.Config{Dataset: "synth-nethept", Eta: 500, Seed: 7})
//	for {
//	    batch, _ := s.NextBatch()        // TRIM/TRIM-B proposes seeds
//	    activated := launchWave(batch)   // the real world answers
//	    prog, _ := s.Observe(activated)  // feed the answer back
//	    if prog.Done {
//	        break
//	    }
//	}
//
// Sessions are safe for concurrent use and deterministic: two sessions
// created with the same dataset, policy and seed propose identical
// batches when fed identical observations, regardless of worker count or
// how many other sessions run beside them (each session owns its policy
// and sampling-engine pool; the graph is shared read-only).
//
// # Durability
//
// A Manager built with WithJournal or WithJournalDir write-ahead-logs
// every session transition (create, propose, observe, close) through
// internal/journal — fsynced before the transition is acknowledged —
// and Recover rebuilds the session table after a crash or restart by
// replaying each log through the deterministic engine:
//
//	mgr := serve.NewManager(reg, 0, serve.WithJournalDir("wal"))
//	rep, _ := mgr.Recover("") // on startup: resume journaled sessions
//
// Determinism is what makes this cheap and safe: a session's state is a
// pure function of (dataset, policy config, seed, observation history),
// so the journal stores only those inputs, and every replayed proposal
// is verified byte-for-byte against the journaled one — a session whose
// environment changed under the journal is skipped with a warning, not
// silently resumed into a diverged campaign.
//
// # Idle passivation
//
// The same journal doubles as a memory-management tool. A manager built
// with WithIdleTTL sweeps its table and passivates durable sessions no
// client call has touched for the TTL: the session's engine, mRR pool
// and residual-graph state — the dominant per-session memory — are
// released while the log on disk remains the authoritative state. With
// checkpointing on (the default), passivation first writes a checkpoint
// of the session's state, a batch awaiting its observation included. The
// session stays in the manager's table as the same *Session, and its next
// lookup, NextBatch or Observe restores it in place from that snapshot:
// no past selection is re-run. Without a usable checkpoint it replays the
// log instead, and either way the determinism contract makes the restored
// session propose byte-identical batches:
//
//	mgr := serve.NewManager(reg, 0,
//	    serve.WithJournalDir("wal"), serve.WithIdleTTL(30*time.Minute))
//
// Manager.Metrics reports the roll-up (sessions by phase, passivation
// and reactivation counters, estimated pool bytes in RAM and journal
// bytes on disk) for monitoring endpoints.
package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"asti/internal/gen"
	"asti/internal/graph"
)

// Registry errors, comparable with errors.Is (front ends map them to
// distinct failure classes: unknown name = caller's mistake, load
// failure = server-side problem).
var (
	// ErrUnknownDataset is returned by Graph for unregistered names.
	ErrUnknownDataset = errors.New("serve: unknown dataset")
	// ErrDatasetLoad is returned by Graph when a registered loader fails;
	// the loader's error is wrapped alongside it.
	ErrDatasetLoad = errors.New("serve: dataset load failed")
)

// Registry resolves dataset names to graphs, loading each at most once
// and sharing the cached graph read-only across all sessions. It is safe
// for concurrent use.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*regEntry
}

// regEntry is one registered dataset: a loader plus its memoized result.
type regEntry struct {
	load func() (*graph.Graph, error)
	once sync.Once
	g    *graph.Graph
	err  error
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]*regEntry{}}
}

// NewSyntheticRegistry returns a registry with every synthetic
// scale-model dataset (gen.Datasets) registered at the given generation
// scale ∈ (0,1]. Graphs are generated lazily on first use.
func NewSyntheticRegistry(scale float64) *Registry {
	r := NewRegistry()
	for _, spec := range gen.Datasets() {
		spec := spec
		if err := r.RegisterLoader(spec.Name, func() (*graph.Graph, error) {
			return spec.Generate(scale)
		}); err != nil {
			// The gen registry guarantees unique non-empty names; a collision
			// here is a programming error, not a runtime condition.
			panic(fmt.Sprintf("serve: synthetic registry: %v", err))
		}
	}
	return r
}

// RegisterLoader registers a lazily-loaded dataset under name. The loader
// runs at most once, on first Graph call; its result (or error) is
// cached. Registering a name twice is an error.
func (r *Registry) RegisterLoader(name string, load func() (*graph.Graph, error)) error {
	if name == "" {
		return fmt.Errorf("serve: empty dataset name")
	}
	if load == nil {
		return fmt.Errorf("serve: nil loader for dataset %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[name]; dup {
		return fmt.Errorf("serve: dataset %q already registered", name)
	}
	r.entries[name] = &regEntry{load: load}
	return nil
}

// RegisterGraph registers an already-built graph under name.
func (r *Registry) RegisterGraph(name string, g *graph.Graph) error {
	if g == nil {
		return fmt.Errorf("serve: nil graph for dataset %q", name)
	}
	return r.RegisterLoader(name, func() (*graph.Graph, error) { return g, nil })
}

// Graph returns the graph registered under name, running the loader on
// first use. Concurrent calls for the same name share one load.
func (r *Registry) Graph(name string) (*graph.Graph, error) {
	r.mu.Lock()
	e, ok := r.entries[name]
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	e.once.Do(func() { e.g, e.err = e.load() })
	if e.err != nil {
		return nil, fmt.Errorf("%w: %q: %w", ErrDatasetLoad, name, e.err)
	}
	return e.g, nil
}

// Names returns the registered dataset names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
