package main

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"asti/internal/fault"
)

// stepBuckets are the latency histogram bucket bounds in seconds. One
// step spans a journal fsync (sub-ms to ~10ms depending on disk), a
// policy selection (ms to seconds at scale), or a reactivation replay
// (grows with rounds), so the buckets cover 1ms..10s log-ish.
var stepBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// histogram is a fixed-bucket latency histogram, safe for concurrent
// observation without locks (handlers record, the /metrics scrape
// reads; Prometheus semantics tolerate the snapshot being torn across
// counters).
type histogram struct {
	buckets  []atomic.Uint64 // per-bucket (non-cumulative) counts
	overflow atomic.Uint64   // observations beyond the last bound
	count    atomic.Uint64
	sumMicro atomic.Int64 // sum in microseconds (exact enough for latency)
}

// newHistogram returns a histogram over stepBuckets.
func newHistogram() *histogram {
	return &histogram{buckets: make([]atomic.Uint64, len(stepBuckets))}
}

// observe records one latency sample.
func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	placed := false
	for i, b := range stepBuckets {
		if s <= b {
			h.buckets[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		h.overflow.Add(1)
	}
	h.count.Add(1)
	h.sumMicro.Add(d.Microseconds())
}

// writeProm emits the histogram in Prometheus text format under name,
// with one fixed label (op="next"/"observe").
func (h *histogram) writeProm(w http.ResponseWriter, name, label, value string) {
	cum := uint64(0)
	for i, b := range stepBuckets {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s=%q,le=%q} %d\n", name, label, value, formatBound(b), cum)
	}
	cum += h.overflow.Load()
	fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, label, value, cum)
	fmt.Fprintf(w, "%s_sum{%s=%q} %g\n", name, label, value, float64(h.sumMicro.Load())/1e6)
	fmt.Fprintf(w, "%s_count{%s=%q} %d\n", name, label, value, h.count.Load())
}

// formatBound renders a bucket bound the way Prometheus expects
// (shortest float representation, no trailing zeros).
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// handleMetrics serves GET /metrics: a Prometheus-style text exposition
// of the session census (by phase), the passivation/reactivation
// counters, the memory gauges, and the step-latency histograms. Scraping
// it walks the session table once; it never touches idle clocks, so
// monitoring cannot keep a session alive.
func (sv *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	mt := sv.mgr.Metrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	fmt.Fprintln(w, "# HELP asmserve_sessions Open sessions by lifecycle phase (passivated sessions are parked in the journal).")
	fmt.Fprintln(w, "# TYPE asmserve_sessions gauge")
	// Emit every known phase (zeros included) so dashboards see stable
	// series, then any phase the census has that we did not predict.
	known := []string{"propose", "observe", "done", "passivated"}
	seen := map[string]bool{}
	for _, ph := range known {
		seen[ph] = true
		fmt.Fprintf(w, "asmserve_sessions{phase=%q} %d\n", ph, mt.Phases[ph])
	}
	var extra []string
	for ph := range mt.Phases {
		if !seen[ph] {
			extra = append(extra, ph)
		}
	}
	sort.Strings(extra)
	for _, ph := range extra {
		fmt.Fprintf(w, "asmserve_sessions{phase=%q} %d\n", ph, mt.Phases[ph])
	}

	fmt.Fprintln(w, "# HELP asmserve_sessions_created_total Sessions created by clients since boot (recovered sessions excluded).")
	fmt.Fprintln(w, "# TYPE asmserve_sessions_created_total counter")
	fmt.Fprintf(w, "asmserve_sessions_created_total %d\n", mt.Creates)
	fmt.Fprintln(w, "# HELP asmserve_sessions_closed_total Sessions closed by clients since boot.")
	fmt.Fprintln(w, "# TYPE asmserve_sessions_closed_total counter")
	fmt.Fprintf(w, "asmserve_sessions_closed_total %d\n", mt.Closes)
	fmt.Fprintln(w, "# HELP asmserve_proposals_total Successful seed-batch proposals served since boot (recovery/reactivation replays excluded).")
	fmt.Fprintln(w, "# TYPE asmserve_proposals_total counter")
	fmt.Fprintf(w, "asmserve_proposals_total %d\n", mt.Proposals)
	fmt.Fprintln(w, "# HELP asmserve_observations_total Successful observation commits since boot (recovery/reactivation replays excluded).")
	fmt.Fprintln(w, "# TYPE asmserve_observations_total counter")
	fmt.Fprintf(w, "asmserve_observations_total %d\n", mt.Observations)
	fmt.Fprintln(w, "# HELP asmserve_passivations_total Idle sessions passivated to the write-ahead journal since boot.")
	fmt.Fprintln(w, "# TYPE asmserve_passivations_total counter")
	fmt.Fprintf(w, "asmserve_passivations_total %d\n", mt.Passivations)
	fmt.Fprintln(w, "# HELP asmserve_reactivations_total Passivated sessions reactivated by log replay since boot.")
	fmt.Fprintln(w, "# TYPE asmserve_reactivations_total counter")
	fmt.Fprintf(w, "asmserve_reactivations_total %d\n", mt.Reactivations)
	fmt.Fprintln(w, "# HELP asmserve_checkpoints_total State checkpoints written into session journals since boot.")
	fmt.Fprintln(w, "# TYPE asmserve_checkpoints_total counter")
	fmt.Fprintf(w, "asmserve_checkpoints_total %d\n", mt.Checkpoints)
	fmt.Fprintln(w, "# HELP asmserve_checkpoint_failures_total Checkpoints skipped because the snapshot failed to encode (the session continues journaling normally).")
	fmt.Fprintln(w, "# TYPE asmserve_checkpoint_failures_total counter")
	fmt.Fprintf(w, "asmserve_checkpoint_failures_total %d\n", mt.CheckpointFailures)
	fmt.Fprintln(w, "# HELP asmserve_compactions_total Session journals compacted down to their newest checkpoint since boot.")
	fmt.Fprintln(w, "# TYPE asmserve_compactions_total counter")
	fmt.Fprintf(w, "asmserve_compactions_total %d\n", mt.Compactions)
	fmt.Fprintln(w, "# HELP asmserve_compacted_bytes_total Journal bytes reclaimed by compaction since boot.")
	fmt.Fprintln(w, "# TYPE asmserve_compacted_bytes_total counter")
	fmt.Fprintf(w, "asmserve_compacted_bytes_total %d\n", mt.CompactedBytes)
	fmt.Fprintln(w, "# HELP asmserve_checkpoint_restores_total Recoveries and reactivations that restored a checkpoint and replayed only the suffix, instead of the full history.")
	fmt.Fprintln(w, "# TYPE asmserve_checkpoint_restores_total counter")
	fmt.Fprintf(w, "asmserve_checkpoint_restores_total %d\n", mt.CheckpointRestores)
	fmt.Fprintln(w, "# HELP asmserve_journal_retries_total Transient journal append/fsync failures absorbed by the writer's bounded retries.")
	fmt.Fprintln(w, "# TYPE asmserve_journal_retries_total counter")
	fmt.Fprintf(w, "asmserve_journal_retries_total %d\n", mt.Journal.AppendRetries)
	fmt.Fprintln(w, "# HELP asmserve_journal_append_failures_total Journal appends that failed for good (retry budget spent or non-retryable error class).")
	fmt.Fprintln(w, "# TYPE asmserve_journal_append_failures_total counter")
	fmt.Fprintf(w, "asmserve_journal_append_failures_total %d\n", mt.Journal.AppendFailures)
	fmt.Fprintln(w, "# HELP asmserve_journal_disk_full_total Journal append failures classified disk-full (each triggers an emergency compaction attempt).")
	fmt.Fprintln(w, "# TYPE asmserve_journal_disk_full_total counter")
	fmt.Fprintf(w, "asmserve_journal_disk_full_total %d\n", mt.Journal.DiskFull)
	fmt.Fprintln(w, "# HELP asmserve_journal_reopens_total Journal writer re-opens performed inside append retry loops.")
	fmt.Fprintln(w, "# TYPE asmserve_journal_reopens_total counter")
	fmt.Fprintf(w, "asmserve_journal_reopens_total %d\n", mt.Journal.Reopens)
	fmt.Fprintln(w, "# HELP asmserve_emergency_compactions_total On-demand journal compactions run in response to disk-full append failures.")
	fmt.Fprintln(w, "# TYPE asmserve_emergency_compactions_total counter")
	fmt.Fprintf(w, "asmserve_emergency_compactions_total %d\n", mt.EmergencyCompactions)
	fmt.Fprintln(w, "# HELP asmserve_sessions_poisoned_total Sessions closed by a final journal failure under the fail-stop durability policy.")
	fmt.Fprintln(w, "# TYPE asmserve_sessions_poisoned_total counter")
	fmt.Fprintf(w, "asmserve_sessions_poisoned_total %d\n", mt.Poisoned)
	fmt.Fprintln(w, "# HELP asmserve_sessions_degraded_total Sessions switched to non-durable serving by a final journal failure under the degrade policy.")
	fmt.Fprintln(w, "# TYPE asmserve_sessions_degraded_total counter")
	fmt.Fprintf(w, "asmserve_sessions_degraded_total %d\n", mt.Degraded)
	fmt.Fprintln(w, "# HELP asmserve_sessions_degraded Open sessions currently serving non-durably (their logs are frozen at the last durable transition).")
	fmt.Fprintln(w, "# TYPE asmserve_sessions_degraded gauge")
	fmt.Fprintf(w, "asmserve_sessions_degraded %d\n", mt.DegradedNow)
	breakerOpen := 0
	if !mt.JournalHealthy {
		breakerOpen = 1
	}
	fmt.Fprintln(w, "# HELP asmserve_journal_breaker_open 1 while the journal-health breaker is rejecting new durable sessions with 503.")
	fmt.Fprintln(w, "# TYPE asmserve_journal_breaker_open gauge")
	fmt.Fprintf(w, "asmserve_journal_breaker_open %d\n", breakerOpen)
	fmt.Fprintln(w, "# HELP asmserve_journal_breaker_trips_total Journal-health breaker closed-to-open transitions since boot.")
	fmt.Fprintln(w, "# TYPE asmserve_journal_breaker_trips_total counter")
	fmt.Fprintf(w, "asmserve_journal_breaker_trips_total %d\n", mt.BreakerTrips)
	fmt.Fprintln(w, "# HELP asmserve_fault_injections_total Faults injected by the active fault plan (0 unless -fault-plan armed one).")
	fmt.Fprintln(w, "# TYPE asmserve_fault_injections_total counter")
	fmt.Fprintf(w, "asmserve_fault_injections_total %d\n", fault.Injections())
	fmt.Fprintln(w, "# HELP asmserve_pool_bytes Estimated heap bytes held by live sessions' sampling pools.")
	fmt.Fprintln(w, "# TYPE asmserve_pool_bytes gauge")
	fmt.Fprintf(w, "asmserve_pool_bytes %d\n", mt.PoolBytes)
	fmt.Fprintln(w, "# HELP asmserve_journal_bytes On-disk bytes of the open sessions' write-ahead logs.")
	fmt.Fprintln(w, "# TYPE asmserve_journal_bytes gauge")
	fmt.Fprintf(w, "asmserve_journal_bytes %d\n", mt.JournalBytes)
	fmt.Fprintln(w, "# HELP asmserve_sessions_recovered Sessions rebuilt from the journal when this process booted.")
	fmt.Fprintln(w, "# TYPE asmserve_sessions_recovered gauge")
	fmt.Fprintf(w, "asmserve_sessions_recovered %d\n", sv.recovered)
	fmt.Fprintln(w, "# HELP asmserve_idle_ttl_seconds Configured idle-passivation TTL (0 = passivation off).")
	fmt.Fprintln(w, "# TYPE asmserve_idle_ttl_seconds gauge")
	fmt.Fprintf(w, "asmserve_idle_ttl_seconds %g\n", sv.mgr.IdleTTL().Seconds())

	fmt.Fprintln(w, "# HELP asmserve_step_seconds Latency of session steps (proposal fetch and observation commit), reactivation replay included.")
	fmt.Fprintln(w, "# TYPE asmserve_step_seconds histogram")
	sv.nextLat.writeProm(w, "asmserve_step_seconds", "op", "next")
	sv.observeLat.writeProm(w, "asmserve_step_seconds", "op", "observe")
}
