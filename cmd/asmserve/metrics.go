package main

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"asti/internal/fault"
	"asti/internal/serve"
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

// family is one unlabelled /metrics family: its name, kind and help
// text, and how a scrape reads its one sample.
type family struct {
	name, kind, help string
	value            func(sv *server, mt *serve.Metrics) any
}

// counter reads one of the manager's counters.
func counter(c serve.Counter) func(*server, *serve.Metrics) any {
	return func(_ *server, mt *serve.Metrics) any { return mt.Counters[c] }
}

// families lists the unlabelled families in exposition order, between
// the phase census and the step histograms. A new family is one row.
var families = []family{
	{"asmserve_sessions_created_total", "counter", "Sessions created by clients since boot (recovered sessions excluded).", counter(serve.Creates)},
	{"asmserve_sessions_closed_total", "counter", "Sessions closed by clients since boot.", counter(serve.Closes)},
	{"asmserve_proposals_total", "counter", "Successful seed-batch proposals served since boot (recovery/reactivation replays excluded).", counter(serve.Proposals)},
	{"asmserve_observations_total", "counter", "Successful observation commits since boot (recovery/reactivation replays excluded).", counter(serve.Observations)},
	{"asmserve_passivations_total", "counter", "Idle sessions passivated to the write-ahead journal since boot.", counter(serve.Passivations)},
	{"asmserve_reactivations_total", "counter", "Passivated sessions reactivated from the journal since boot.", counter(serve.Reactivations)},
	{"asmserve_checkpoints_total", "counter", "State checkpoints written into session journals since boot.", counter(serve.Checkpoints)},
	{"asmserve_checkpoint_failures_total", "counter", "Checkpoints skipped because the snapshot failed to encode (the session continues journaling normally).", counter(serve.CheckpointFailures)},
	{"asmserve_compactions_total", "counter", "Session journals compacted down to their newest checkpoint since boot.", counter(serve.Compactions)},
	{"asmserve_compacted_bytes_total", "counter", "Journal bytes reclaimed by compaction since boot.", counter(serve.CompactedBytes)},
	{"asmserve_checkpoint_restores_total", "counter", "Recoveries and reactivations that restored a checkpoint and replayed only the suffix, instead of the full history.", counter(serve.CheckpointRestores)},
	{"asmserve_journal_retries_total", "counter", "Transient journal append/fsync failures absorbed by the writer's bounded retries.",
		func(_ *server, mt *serve.Metrics) any { return mt.Journal.AppendRetries }},
	{"asmserve_journal_append_failures_total", "counter", "Journal appends that failed for good (retry budget spent or non-retryable error class).",
		func(_ *server, mt *serve.Metrics) any { return mt.Journal.AppendFailures }},
	{"asmserve_journal_disk_full_total", "counter", "Journal append failures classified disk-full (each triggers an emergency compaction attempt).",
		func(_ *server, mt *serve.Metrics) any { return mt.Journal.DiskFull }},
	{"asmserve_journal_reopens_total", "counter", "Journal writer re-opens performed inside append retry loops.",
		func(_ *server, mt *serve.Metrics) any { return mt.Journal.Reopens }},
	{"asmserve_emergency_compactions_total", "counter", "On-demand journal compactions run in response to disk-full append failures.", counter(serve.EmergencyCompactions)},
	{"asmserve_sessions_poisoned_total", "counter", "Sessions closed by a final journal failure under the fail-stop durability policy.", counter(serve.Poisoned)},
	{"asmserve_sessions_degraded_total", "counter", "Sessions switched to non-durable serving by a final journal failure under the degrade policy.", counter(serve.Degraded)},
	{"asmserve_sessions_degraded", "gauge", "Open sessions currently serving non-durably (their logs are frozen at the last durable transition).",
		func(_ *server, mt *serve.Metrics) any { return mt.DegradedNow }},
	{"asmserve_journal_breaker_open", "gauge", "1 while the journal-health breaker is rejecting new durable sessions with 503.",
		func(_ *server, mt *serve.Metrics) any {
			if mt.JournalHealthy {
				return 0
			}
			return 1
		}},
	{"asmserve_journal_breaker_trips_total", "counter", "Journal-health breaker closed-to-open transitions since boot.", counter(serve.BreakerTrips)},
	{"asmserve_fault_injections_total", "counter", "Faults injected by the active fault plan (0 unless -fault-plan armed one).",
		func(*server, *serve.Metrics) any { return fault.Injections() }},
	{"asmserve_pool_bytes", "gauge", "Estimated heap bytes held by live sessions' sampling pools.",
		func(_ *server, mt *serve.Metrics) any { return mt.PoolBytes }},
	{"asmserve_journal_bytes", "gauge", "On-disk bytes of the open sessions' write-ahead logs.",
		func(_ *server, mt *serve.Metrics) any { return mt.JournalBytes }},
	{"asmserve_sessions_recovered", "gauge", "Sessions rebuilt from the journal when this process booted.",
		func(sv *server, _ *serve.Metrics) any { return sv.recovered }},
	{"asmserve_idle_ttl_seconds", "gauge", "Configured idle-passivation TTL (0 = passivation off).",
		func(sv *server, _ *serve.Metrics) any { return sv.mgr.IdleTTL().Seconds() }},
}

// handleMetrics serves GET /metrics: a Prometheus-style text exposition
// of the session census (by phase), the families table, and the
// step-latency histograms. Scraping it walks the session table once; it
// never touches idle clocks, so monitoring cannot keep a session alive.
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

	for _, f := range families {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", f.name, f.help, f.name, f.kind, f.name, f.value(sv, &mt))
	}

	fmt.Fprintln(w, "# HELP asmserve_step_seconds Latency of session steps (proposal fetch and observation commit), reactivation replay included.")
	fmt.Fprintln(w, "# TYPE asmserve_step_seconds histogram")
	sv.nextLat.writeProm(w, "asmserve_step_seconds", "op", "next")
	sv.observeLat.writeProm(w, "asmserve_step_seconds", "op", "observe")
}
