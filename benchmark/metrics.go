package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result of one run of one workload, printed and written
// to the -out directory for -compare.
type report struct {
	Workload   string                 `json:"workload"`
	Seed       uint64                 `json:"seed"`
	Trace      bool                   `json:"trace"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Metrics    map[string]metricValue `json:"metrics"`
	Counts     map[string]int         `json:"counts"` // samples behind each metric
	Violations []string               `json:"violations,omitempty"`
	order      []string
}

func newReport(w workload, seed uint64, trace bool) *report {
	return &report{Workload: w.name, Seed: seed, Trace: trace, Correct: true,
		Metrics: map[string]metricValue{}, Counts: map[string]int{}}
}

// set records a metric measured over n samples. A metric without a value
// fails the run: every metric of BENCHMARK.json must be reported.
func (r *report) set(name, unit string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail(fmt.Sprintf("%s has no value (%d samples)", name, n))
		v = 0
	}
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
	r.Counts[name] = n
	r.order = append(r.order, name)
}

// ok reports whether the run passed every check and no operation failed;
// otherwise the benchmark exits non-zero.
func (r *report) ok() bool { return r.Correct && r.Failed == 0 }

func (r *report) fail(msg string) {
	r.Correct = false
	r.Violations = append(r.Violations, msg)
}

// absorb adds a run's operation counts and correctness checks.
func (r *report) absorb(res *runResult) {
	r.Attempted += res.attempted
	r.Failed += res.failed
	for _, v := range res.violations {
		r.fail(v)
	}
}

// print writes one line per metric, "workload metric value unit n=count",
// followed by any failed checks.
func (r *report) print(w io.Writer) {
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%s %s %s %s n=%d\n", r.Workload, name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit, r.Counts[name])
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "%s CHECK FAILED: %s\n", r.Workload, v)
	}
}

// summaryLine is the last line of standard output: the run's result as
// one JSON object.
func (r *report) summaryLine() string {
	b, _ := json.Marshal(struct { // plain numbers and strings cannot fail to encode
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	return string(b)
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

// e2eReport computes the end-to-end metrics of an untraced run.
func e2eReport(w workload, seed uint64, res *runResult, setupS []float64) *report {
	r := newReport(w, seed, false)
	r.absorb(res)
	var next, observe, seeds, rss []float64
	for _, op := range res.ops {
		switch {
		case op.kind == opNext && op.round >= 2:
			next = append(next, op.ms())
		case op.kind == opObserve:
			observe = append(observe, op.ms())
		}
	}
	for _, c := range res.campaigns {
		if c.finished {
			seeds = append(seeds, float64(c.seeds))
		}
	}
	for _, s := range res.scrapes {
		if s.rssMB > 0 {
			rss = append(rss, s.rssMB)
		}
	}
	span := res.makespan.Seconds()
	r.set("setup_s", "s", median(setupS), len(setupS))
	r.set("campaigns_per_s", "1/s", float64(len(seeds))/span, len(seeds))
	r.set("steps_per_s", "1/s", stepsPerS(res), steps(res))
	r.set("next_p50_ms", "ms", median(next), len(next))
	stepMs := append(next, observe...)
	r.set("step_tail_ms", "ms", quantile(stepMs, w.stepTail), len(stepMs))
	r.set("seeds_per_campaign", "seeds", mean(seeds), len(seeds))
	r.set("server_rss_mb", "MB", median(rss), len(rss))
	return r
}

// steps counts a run's completed next and observe requests.
func steps(res *runResult) int {
	n := 0
	for _, op := range res.ops {
		if op.kind == opNext || op.kind == opObserve {
			n++
		}
	}
	return n
}

func stepsPerS(res *runResult) float64 { return float64(steps(res)) / res.makespan.Seconds() }

// layerInputs is everything a traced run measured.
type layerInputs struct {
	base      *runResult // untraced run of the same list
	passA     *runResult
	tr        *tracer
	passB     *passBResult
	rr        rrsetProbe
	appendMs  []float64
	genS      float64
	peakRSSMB float64
}

// layerReport computes the per-layer metrics of a traced run.
func layerReport(w workload, seed uint64, in layerInputs) *report {
	r := newReport(w, seed, true)
	r.absorb(in.base)
	r.absorb(in.passA)
	a := in.passA

	var selects, firstSelects []float64
	var nextSum, selectSum, stepSum, ckptSum, reactSum float64
	passANext, passAObs := map[int]float64{}, map[int]float64{}
	for _, op := range a.ops {
		if op.kind != opNext && op.kind != opObserve {
			continue
		}
		ms := op.ms()
		stepSum += ms
		if op.reactivated {
			reactSum += ms
		}
		if op.kind == opNext {
			nextSum += ms
			selectSum += op.selectSec * 1e3
			selects = append(selects, op.selectSec*1e3)
			if op.round == 1 {
				firstSelects = append(firstSelects, op.selectSec*1e3)
			}
			if op.campaign == 0 {
				passANext[op.round] = ms - op.selectSec*1e3
			}
		} else {
			if op.checkpoint {
				ckptSum += ms
			}
			if op.campaign == 0 {
				passAObs[op.round] = ms
			}
		}
	}
	var nextOver, obsOver []float64
	for i, ms := range in.passB.nextMs {
		if v, ok := passANext[i+1]; ok {
			nextOver = append(nextOver, v-ms)
		}
	}
	for i, ms := range in.passB.observeMs {
		if v, ok := passAObs[i+1]; ok {
			obsOver = append(obsOver, v-ms)
		}
	}
	var sessions []float64
	var poolPeak, journalPeak float64
	for _, s := range a.scrapes {
		if !s.metrics {
			continue
		}
		sessions = append(sessions, s.sample.sessions)
		poolPeak = math.Max(poolPeak, s.sample.get("asmserve_pool_bytes"))
		journalPeak = math.Max(journalPeak, s.sample.get("asmserve_journal_bytes"))
	}
	var lateness, scrape, first, observe []float64
	for _, s := range in.base.scrapes {
		lateness = append(lateness, msOf(s.sent-s.due))
		scrape = append(scrape, s.ms())
	}
	for _, c := range in.base.campaigns {
		if c.firstBatch > 0 {
			first = append(first, msOf(c.firstBatch-c.start))
		}
	}
	for _, op := range in.base.ops {
		if op.kind == opObserve {
			observe = append(observe, op.ms())
		}
	}
	delta := a.serverDelta
	restoreRatio := 0.0
	if reacts := delta["asmserve_reactivations_total"]; reacts > 0 {
		restoreRatio = delta["asmserve_checkpoint_restores_total"] / reacts
	}
	selectTail := tailRule(len(selects))
	appendTail := tailRule(len(in.appendMs))
	scrapeTail := tailRule(len(scrape))

	r.set("gen.graph_build_s", "s", in.genS, 3)
	r.set("rrset.sets_per_s", "sets/s", in.rr.setsPerS, 3)
	r.set("rrset.edges_per_set", "edges", in.rr.edgesPerSet, 1)
	r.set("rrset.rng_draws_per_set", "draws", in.rr.drawsPerSet, 1)
	r.set("rrset.nodes_per_set", "nodes", in.rr.nodesPerSet, 1)
	r.set("rrset.greedy_ms", "ms", in.rr.greedyMs, 3)
	r.set("rrset.pool_bytes_per_set", "B", in.rr.bytesPerSet, 1)
	r.set("trim.select_p50_ms", "ms", median(selects), len(selects))
	r.set("trim.select_tail_ms", "ms", quantile(selects, selectTail), len(selects))
	r.set("trim.first_select_ms", "ms", median(firstSelects), len(firstSelects))
	r.set("trim.select_share", "ratio", selectSum/nextSum, len(selects))
	r.set("serve.create_ms", "ms", in.passB.createMs, 1)
	r.set("serve.propose_self_ms", "ms", median(in.passB.selfMs), len(in.passB.selfMs))
	r.set("serve.observe_ms", "ms", median(in.passB.plainObsMs), len(in.passB.plainObsMs))
	r.set("serve.checkpoint_share", "ratio", ckptSum/stepSum, len(a.ops))
	r.set("serve.reactivation_share", "ratio", reactSum/stepSum, len(a.ops))
	r.set("serve.reactivations", "count", delta["asmserve_reactivations_total"], 1)
	r.set("serve.sessions_walked", "sessions", mean(sessions), len(sessions))
	r.set("serve.pool_bytes_peak", "B", poolPeak, len(sessions))
	r.set("asmserve.peak_rss_mb", "MB", in.peakRSSMB, 1)
	r.set("asmserve.first_proposal_p50_ms", "ms", median(first), len(first))
	r.set("asmserve.observe_p50_ms", "ms", median(observe), len(observe))
	r.set("asmserve.scrape_p50_ms", "ms", median(scrape), len(scrape))
	r.set("asmserve.scrape_tail_ms", "ms", quantile(scrape, scrapeTail), len(scrape))
	r.set("asmserve.next_overhead_ms", "ms", median(nextOver), len(nextOver))
	r.set("asmserve.observe_overhead_ms", "ms", median(obsOver), len(obsOver))
	r.set("journal.append_p50_ms", "ms", median(in.appendMs), len(in.appendMs))
	r.set("journal.append_tail_ms", "ms", quantile(in.appendMs, appendTail), len(in.appendMs))
	r.set("journal.checkpoints", "count", delta["asmserve_checkpoints_total"], 1)
	r.set("journal.compacted_bytes", "B", delta["asmserve_compacted_bytes_total"], 1)
	r.set("journal.bytes_peak", "B", journalPeak, len(sessions))
	r.set("journal.restore_hit_ratio", "ratio", restoreRatio, 1)
	r.set("journal.retries", "count", delta["asmserve_journal_retries_total"], 1)
	r.set("harness.scrape_lateness_p99_ms", "ms", quantile(lateness, 0.99), len(lateness))
	r.set("harness.trace_overhead_pct", "%", 100*(1-stepsPerS(a)/stepsPerS(in.base)), len(a.ops))
	r.set("harness.span_coverage", "ratio", in.tr.coverage(a.makespan), len(in.tr.spans))
	return r
}
