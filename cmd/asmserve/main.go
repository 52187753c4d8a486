// Command asmserve is the adaptive-seeding session service: an HTTP/JSON
// front end over internal/serve that drives the paper's select–observe
// loop interactively. Clients create a session on a registered dataset,
// repeatedly fetch the next proposed seed batch and report back who the
// batch actually influenced, until η users are active.
//
// Start it and run one round trip:
//
//	asmserve -addr :8080 -scale 0.2
//
//	curl -s localhost:8080/v1/datasets
//	curl -s -X POST localhost:8080/v1/sessions \
//	    -d '{"dataset":"synth-nethept","eta_frac":0.05,"seed":7}'
//	curl -s -X POST localhost:8080/v1/sessions/s1/next
//	curl -s -X POST localhost:8080/v1/sessions/s1/observe -d '{"activated":[]}'
//	curl -s localhost:8080/v1/sessions/s1
//	curl -s -X DELETE localhost:8080/v1/sessions/s1
//
// Endpoints (full reference: docs/API.md):
//
//	GET    /healthz                   liveness probe + recovery/memory stats
//	GET    /metrics                   Prometheus-style metrics (sessions by phase, passivations, step latency)
//	GET    /v1/datasets               registered dataset names
//	POST   /v1/sessions               create a session
//	GET    /v1/sessions               list open sessions
//	GET    /v1/sessions/{id}          session status
//	POST   /v1/sessions/{id}/next     propose the next seed batch
//	POST   /v1/sessions/{id}/observe  report the batch's realized influence
//	DELETE /v1/sessions/{id}          close a session
//
// Sessions are deterministic per seed: two sessions created with equal
// bodies propose identical batches under identical observations. SIGINT
// or SIGTERM drains in-flight requests and releases every session.
//
// With -journal-dir set, sessions are durable: every state transition is
// write-ahead journaled (fsynced) before it is acknowledged, and on boot
// the server replays the directory's logs through the deterministic
// engine, resuming every session — even after a SIGKILL mid-round —
// exactly where its last acknowledged transition left it (docs/
// OPERATIONS.md describes the recovery procedure and directory layout).
//
// With -idle-ttl additionally set, sessions a client stops touching are
// passivated: their sampling engine and mRR pool (the dominant
// per-session memory) are released while the journal keeps their state,
// checkpointed on the way out, and the next API call reactivates them
// transparently by restoring that checkpoint — the reactivated session
// proposes byte-identical batches.
//
// Durable sessions additionally write state checkpoints into their
// logs every -checkpoint-every rounds (default 8, 0 = off), and
// by default compact the log past each one (-checkpoint-compact). A
// checkpoint turns recovery from a full-history replay into restoring
// the snapshot plus replaying at most one interval's worth of rounds
// (reactivation restores the passivation checkpoint and replays none), and compaction bounds each log's disk footprint the
// same way. Checkpoints never change what a session proposes.
//
// Journal I/O failures are handled in layers (docs/OPERATIONS.md,
// "Failure modes & degradation"): transient append/fsync errors are
// retried with bounded exponential backoff inside the journal writer,
// a disk-full failure first triggers an emergency log compaction, and
// only a failure that survives both reaches the -durability policy —
// fail-stop (close the session, record the cause) or degrade (keep
// serving non-durably). A final failure also trips a journal-health
// breaker that answers new durable creates with 503 + Retry-After for
// -breaker-cooldown before re-probing. -fault-plan (or
// $ASMSERVE_FAULT_PLAN) arms deterministic fault injection at the
// journal I/O sites for chaos testing; never set it in production.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"asti/internal/fault"
	"asti/internal/graph"
	"asti/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		scale       = flag.Float64("scale", 0.2, "generation scale (0,1] for the synthetic datasets")
		graphPath   = flag.String("graph", "", "also register a graph from an edge-list file (name 'custom')")
		maxSessions = flag.Int("max-sessions", 1024, "maximum concurrently open sessions (0 = unlimited)")
		journalDir  = flag.String("journal-dir", "", "write-ahead-journal directory for durable sessions (empty = in-memory only)")
		idleTTL     = flag.Duration("idle-ttl", 0, "passivate durable sessions idle for this long, releasing their memory until the next call reactivates them from the journal (0 = never; requires -journal-dir)")
		ckptEvery   = flag.Int("checkpoint-every", serve.DefaultCheckpointEvery, "write a state checkpoint into each durable session's journal every K committed rounds, so recovery replays only the rounds after it (0 = checkpoints off, full replay)")
		ckptCompact = flag.Bool("checkpoint-compact", true, "after each checkpoint, compact the session's journal down to [created][checkpoint][suffix], bounding its disk footprint by the checkpoint interval")
		durability  = flag.String("durability", "fail-stop", "what a durable session does when its journal fails for good, after the writer's bounded retries and the disk-full emergency compaction: 'fail-stop' closes it with the cause recorded, 'degrade' keeps it serving non-durably (status reports durable=false plus the cause)")
		breakerCool = flag.Duration("breaker-cooldown", serve.DefaultBreakerCooldown, "after a final journal failure, reject new durable sessions with 503 for this long before re-probing the journal with the next create (0 = breaker off)")
		faultPlan   = flag.String("fault-plan", os.Getenv("ASMSERVE_FAULT_PLAN"), "TESTING ONLY: activate a deterministic fault-injection plan against the journal I/O sites, e.g. 'journal/append-sync:after=2:times=1:err=io' (defaults to $ASMSERVE_FAULT_PLAN; empty = no faults, zero overhead)")
	)
	flag.Parse()
	if err := run(*addr, *scale, *graphPath, *maxSessions, *journalDir, *idleTTL, *ckptEvery, *ckptCompact, *durability, *breakerCool, *faultPlan); err != nil {
		fmt.Fprintf(os.Stderr, "asmserve: %v\n", err)
		os.Exit(1)
	}
}

func run(addr string, scale float64, graphPath string, maxSessions int, journalDir string, idleTTL time.Duration, ckptEvery int, ckptCompact bool, durability string, breakerCool time.Duration, faultPlan string) error {
	reg := serve.NewSyntheticRegistry(scale)
	if graphPath != "" {
		if err := reg.RegisterLoader("custom", func() (*graph.Graph, error) {
			return graph.LoadFile(graphPath)
		}); err != nil {
			return err
		}
	}
	var opts []serve.ManagerOption
	if journalDir != "" {
		opts = append(opts, serve.WithJournalDir(journalDir))
	}
	if idleTTL > 0 {
		if journalDir == "" {
			return errors.New("-idle-ttl requires -journal-dir (only journaled sessions can be passivated)")
		}
		opts = append(opts, serve.WithIdleTTL(idleTTL))
	}
	opts = append(opts, serve.WithCheckpointEvery(ckptEvery), serve.WithCompaction(ckptCompact))
	policy, err := serve.ParseDurabilityPolicy(durability)
	if err != nil {
		return err
	}
	opts = append(opts, serve.WithDurabilityPolicy(policy), serve.WithBreakerCooldown(breakerCool))
	if faultPlan != "" {
		plan, err := fault.Parse(faultPlan)
		if err != nil {
			return fmt.Errorf("-fault-plan: %w", err)
		}
		fault.Activate(plan)
		fmt.Fprintf(os.Stderr, "asmserve: FAULT INJECTION ACTIVE: %s\n", plan)
	}
	mgr := serve.NewManager(reg, maxSessions, opts...)
	defer mgr.CloseAll()

	recovered := 0
	if journalDir != "" {
		rep, err := mgr.Recover("") // the journal is already attached
		if err != nil {
			return err
		}
		for _, w := range rep.Warnings {
			fmt.Fprintf(os.Stderr, "asmserve: journal: %s\n", w)
		}
		recovered = rep.Recovered
		fmt.Printf("asmserve: journal %s: recovered %d session(s), %d closed, %d skipped, %d round(s) replayed, %d from checkpoint\n",
			journalDir, rep.Recovered, rep.Closed, rep.Skipped, rep.Rounds, rep.CheckpointRestores)
	}

	srv := &http.Server{
		Addr:        addr,
		Handler:     newHandler(mgr, recovered),
		ReadTimeout: 30 * time.Second,
		// WriteTimeout bounds how long a slow-reading client can pin a
		// handler goroutine (and, for /next, a session lock). It must
		// cover the slowest legitimate response — a proposal on a large
		// graph plus a reactivation replay — hence minutes, not seconds.
		WriteTimeout: 10 * time.Minute,
		// IdleTimeout reaps keep-alive connections parked between
		// requests; without it (and with ReadTimeout only arming per
		// request) an idle client holds its connection forever.
		IdleTimeout: 2 * time.Minute,
	}

	errc := make(chan error, 1)
	go func() {
		fmt.Printf("asmserve: listening on %s (datasets: %v)\n", addr, reg.Names())
		errc <- srv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		fmt.Printf("asmserve: %v, shutting down\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
