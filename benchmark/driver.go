package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"asti/internal/bitset"
	"asti/internal/graph"
)

// Operation kinds of the campaign driver.
const (
	opCreate  = "create"
	opNext    = "next"
	opObserve = "observe"
	opDelete  = "delete"
)

// opRecord is one timed driver request. Times are offsets from the start
// of the run.
type opRecord struct {
	kind       string
	campaign   int
	round      int
	start, end time.Duration
	span       int // the request's span (traced runs)

	// Set on traced runs only, from the GET /v1/sessions/{id} that follows
	// every next and observe.
	selectSec   float64 // select_seconds added by this next
	checkpoint  bool    // this observe wrote a checkpoint
	reactivated bool    // the session was passivated before this step
}

func (o opRecord) ms() float64 { return float64(o.end-o.start) / 1e6 }

// campaignRecord is one campaign of the list as the driver saw it.
type campaignRecord struct {
	index                  int
	start, firstBatch, end time.Duration
	seeds                  int
	activated              int64
	finished               bool
	proposals              [][]int32
}

// scrapeRecord is one monitor request: due is when the open-loop schedule
// wanted it sent, sent when it was.
type scrapeRecord struct {
	due, sent, end time.Duration
	metrics        bool // GET /metrics (else GET /v1/sessions)
	sample         promSample
	rssMB          float64 // server resident set at the tick (0 when not sampled)
}

func (s scrapeRecord) ms() float64 { return float64(s.end-s.due) / 1e6 }

// runResult is everything one run of a workload observed.
type runResult struct {
	ops        []opRecord
	campaigns  []*campaignRecord
	scrapes    []scrapeRecord
	makespan   time.Duration // driver start to its last response
	attempted  int
	failed     int
	violations []string
	// serverDelta is the change of the /metrics counters over the run.
	serverDelta map[string]float64
}

// violate records a failed correctness check.
func (r *runResult) violate(format string, args ...any) {
	const keep = 20
	if len(r.violations) < keep {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// correct reports whether every check of the run passed.
func (r *runResult) correct() bool { return len(r.violations) == 0 }

// slot is one open campaign of the driver.
type slot struct {
	c       campaign
	rec     *campaignRecord
	span    int // campaign span (traced runs)
	id      string
	eta     int64
	active  *bitset.Set
	count   int64 // active nodes by the client's own count
	round   int
	pending []int32
	last    statusResp // traced runs: status after the previous step
}

// driver runs a workload's campaign list against one server.
type driver struct {
	w    workload
	g    *graph.Graph
	a    *api
	t0   time.Time
	tr   *tracer // nil on untraced runs
	res  *runResult
	oks  map[string]int // successful requests by operation
	list []campaign
}

func (d *driver) since() time.Duration { return time.Since(d.t0) }

// run drives w's campaign list against the server at base for the given
// time, with the monitor beside it; the monitor also samples the resident
// set of process pid when it is not 0. Campaigns started before the
// deadline are finished; none is started after it. tr, when non-nil, turns
// the run into a traced one: every step is followed by a status request
// and spans are recorded.
func run(ctx context.Context, w workload, g *graph.Graph, list []campaign, base string, pid int, length time.Duration, tr *tracer) *runResult {
	res := &runResult{}
	mon, drv := newAPI(base), newAPI(base)
	defer mon.close()
	defer drv.close()
	before, err := mon.metrics()
	if err != nil {
		res.violate("initial scrape: %v", err)
		return res
	}
	d := &driver{w: w, g: g, a: drv, t0: time.Now(), tr: tr, res: res, oks: map[string]int{}, list: list}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var scrapes []scrapeRecord
	var monAttempted, monFailed int
	var monErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		scrapes, monAttempted, monFailed, monErr = monitor(mon, pid, d.t0, stop)
	}()
	d.loop(ctx, d.t0.Add(length))
	res.makespan = d.since()
	close(stop)
	wg.Wait()
	res.scrapes = scrapes
	res.attempted += monAttempted
	res.failed += monFailed
	if monErr != nil {
		res.violate("%d scrapes failed, the first with: %v", monFailed, monErr)
	}

	after, err := mon.metrics()
	if err != nil {
		res.violate("final scrape: %v", err)
		return res
	}
	res.serverDelta = map[string]float64{}
	for name, v := range after.values {
		res.serverDelta[name] = v - before.get(name)
	}
	for _, c := range []struct {
		series, op string
	}{
		{"asmserve_sessions_created_total", opCreate},
		{"asmserve_sessions_closed_total", opDelete},
		{"asmserve_proposals_total", opNext},
		{"asmserve_observations_total", opObserve},
	} {
		if got, want := res.serverDelta[c.series], float64(d.oks[c.op]); got != want {
			res.violate("%s rose by %v, client completed %v %s requests", c.series, got, want, c.op)
		}
	}
	for _, c := range res.campaigns {
		if !c.finished {
			res.violate("campaign %d did not finish", c.index)
		}
	}
	return res
}

// loop is the closed-loop driver: every pass gives each open campaign one
// operation, starts a campaign in each free slot until the deadline, and
// pauses for the workload's think time.
func (d *driver) loop(ctx context.Context, deadline time.Time) {
	slots := make([]*slot, d.w.slots)
	next := 0
	for ctx.Err() == nil {
		progressed := false
		for k, s := range slots {
			if s == nil {
				if time.Now().After(deadline) || next >= len(d.list) {
					continue
				}
				slots[k] = d.start(d.list[next])
				next++
				progressed = true
				continue
			}
			progressed = true
			if !d.step(s) {
				slots[k] = nil
			}
		}
		if !progressed {
			return
		}
		if d.w.pause > 0 {
			t := d.since()
			time.Sleep(d.w.pause)
			d.tr.add("client.pause", t, d.since(), -1, -1)
		}
	}
}

// call sends one timed request on behalf of s.
func (d *driver) call(kind string, s *slot, method, path string, body any, want int, out any) (opRecord, error) {
	start := d.since()
	err := d.a.do(method, path, body, want, out)
	op := opRecord{kind: kind, campaign: s.c.index, round: s.round, start: start, end: d.since()}
	d.res.attempted++
	if err != nil {
		d.res.failed++
		d.res.violate("campaign %d %s: %v", s.c.index, kind, err)
	} else {
		d.oks[kind]++
	}
	op.span = d.tr.add("http."+kind, op.start, op.end, s.span, s.c.index)
	return op, err
}

// checkFailed counts a response that arrived but failed a correctness check.
func (d *driver) checkFailed(s *slot, round int, format string, args ...any) {
	d.res.failed++
	d.res.violate("campaign %d round %d: %s", s.c.index, round, fmt.Sprintf(format, args...))
}

// start creates c's session and fetches its first batch back to back: the
// span from sending create to receiving that batch is the campaign's time
// to first proposal. It returns nil if the campaign failed.
func (d *driver) start(c campaign) *slot {
	rec := &campaignRecord{index: c.index, start: d.since()}
	d.res.campaigns = append(d.res.campaigns, rec)
	s := &slot{c: c, rec: rec, active: bitset.New(int(d.g.N()))}
	s.span = d.tr.add("campaign", rec.start, rec.start, -1, c.index)
	var st statusResp
	if _, err := d.call(opCreate, s, http.MethodPost, "/v1/sessions", d.w.createBody(c.seed), http.StatusCreated, &st); err != nil {
		return nil
	}
	s.id, s.eta, s.last = st.ID, st.Eta, st
	if st.N != int64(d.g.N()) || st.Eta < 1 || st.Phase != "propose" {
		d.checkFailed(s, 0, "create returned n=%d eta=%d phase=%q for a graph of %d nodes", st.N, st.Eta, st.Phase, d.g.N())
		d.abandon(s)
		return nil
	}
	if !d.next(s) {
		return nil
	}
	rec.firstBatch = d.res.ops[len(d.res.ops)-1].end
	return s
}

// step gives s its next operation and reports whether s is still open.
func (d *driver) step(s *slot) bool {
	if s.pending == nil {
		return d.next(s)
	}
	return d.observe(s)
}

func (d *driver) next(s *slot) bool {
	var b batchResp
	op, err := d.call(opNext, s, http.MethodPost, "/v1/sessions/"+s.id+"/next", nil, http.StatusOK, &b)
	if err != nil {
		d.abandon(s)
		return false
	}
	if msg := checkBatch(b, s.round+1, d.w.batch, d.g.N(), s.active); msg != "" {
		d.checkFailed(s, s.round+1, "%s", msg)
		d.abandon(s)
		return false
	}
	s.round, s.pending = b.Round, b.Seeds
	op.round = s.round
	s.rec.seeds += len(b.Seeds)
	s.rec.proposals = append(s.rec.proposals, b.Seeds)
	if d.tr != nil {
		st, ok := d.status(s)
		if !ok {
			return false
		}
		op.selectSec = st.SelectSeconds - s.last.SelectSeconds
		op.reactivated = st.Passivations > s.last.Passivations
		s.last = st
		d.tr.derived(op)
	}
	d.res.ops = append(d.res.ops, op)
	return true
}

// checkBatch validates a proposal: the expected round, 1..b seeds, all in
// range, none repeated and none already active. It returns "" when valid.
func checkBatch(b batchResp, round, maxB int, n int32, active *bitset.Set) string {
	if b.Round != round {
		return fmt.Sprintf("next returned round %d, want %d", b.Round, round)
	}
	if len(b.Seeds) < 1 || len(b.Seeds) > maxB {
		return fmt.Sprintf("batch of %d seeds, want 1..%d", len(b.Seeds), maxB)
	}
	for i, v := range b.Seeds {
		if v < 0 || v >= n {
			return fmt.Sprintf("seed %d outside [0, %d)", v, n)
		}
		if active.Get(v) {
			return fmt.Sprintf("seed %d is already active", v)
		}
		for _, u := range b.Seeds[:i] {
			if u == v {
				return fmt.Sprintf("seed %d repeated in the batch", v)
			}
		}
	}
	return ""
}

func (d *driver) observe(s *slot) bool {
	delta := s.pending
	if s.c.world != nil {
		t := d.since()
		delta = s.c.world.Spread(s.pending, s.active)
		d.tr.add("client.world", t, d.since(), s.span, s.c.index)
	}
	for _, v := range delta {
		s.active.Set(v)
	}
	s.count += int64(len(delta))
	var p progressResp
	op, err := d.call(opObserve, s, http.MethodPost, "/v1/sessions/"+s.id+"/observe", map[string][]int32{"activated": delta}, http.StatusOK, &p)
	if err != nil {
		d.abandon(s)
		return false
	}
	s.pending = nil
	done := s.count >= s.eta
	if p.Round != s.round || p.NewlyActivated != int64(len(delta)) || p.Activated != s.count || p.Done != done {
		d.checkFailed(s, s.round, "observe returned round=%d newly=%d activated=%d done=%v, want %d/%d/%d/%v",
			p.Round, p.NewlyActivated, p.Activated, p.Done, s.round, len(delta), s.count, done)
		d.abandon(s)
		return false
	}
	if d.tr != nil {
		st, ok := d.status(s)
		if !ok {
			return false
		}
		op.checkpoint = st.Checkpoints > s.last.Checkpoints
		op.reactivated = st.Passivations > s.last.Passivations
		s.last = st
		d.tr.derived(op)
	}
	d.res.ops = append(d.res.ops, op)
	if !done {
		return true
	}
	if _, err := d.call(opDelete, s, http.MethodDelete, "/v1/sessions/"+s.id, nil, http.StatusOK, nil); err != nil {
		return false
	}
	s.rec.end, s.rec.finished, s.rec.activated = d.since(), true, s.count
	d.tr.end(s.span, s.rec.end)
	return false
}

// status is the traced run's extra request after every step.
func (d *driver) status(s *slot) (statusResp, bool) {
	var st statusResp
	if _, err := d.call("status", s, http.MethodGet, "/v1/sessions/"+s.id, nil, http.StatusOK, &st); err != nil {
		d.abandon(s)
		return st, false
	}
	return st, true
}

// abandon deletes a campaign that failed; it stays unfinished.
func (d *driver) abandon(s *slot) {
	if s.id != "" {
		_, _ = d.call(opDelete, s, http.MethodDelete, "/v1/sessions/"+s.id, nil, http.StatusOK, nil) // failure already counted
	}
	d.tr.end(s.span, d.since())
}

// monitor is the open-loop scraper: request k is due at k·scrapeInterval
// after t0 and is timed from then, so a stalled request makes the ones
// behind it late and the wait counts against them. After each request it
// reads the resident set of process pid, unless pid is 0. It runs until
// stop is closed.
func monitor(a *api, pid int, t0 time.Time, stop <-chan struct{}) (recs []scrapeRecord, attempted, failed int, firstErr error) {
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for k := 0; ; k++ {
		due := time.Duration(k) * scrapeInterval
		if wait := due - time.Since(t0); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		rec := scrapeRecord{due: due, sent: time.Since(t0), metrics: k%2 == 0}
		var err error
		if rec.metrics {
			rec.sample, err = a.metrics()
		} else {
			err = a.do(http.MethodGet, "/v1/sessions", nil, http.StatusOK, &listResp{})
		}
		rec.end = time.Since(t0)
		attempted++
		if err != nil {
			if failed++; firstErr == nil {
				firstErr = err
			}
			continue
		}
		if pid != 0 {
			rec.rssMB, _ = statusMB(pid, "VmRSS") // a missed sample only thins the median
		}
		recs = append(recs, rec)
	}
}
