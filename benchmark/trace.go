package main

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"asti/internal/bitset"
	"asti/internal/diffusion"
	"asti/internal/gen"
	"asti/internal/graph"
	"asti/internal/journal"
	"asti/internal/rrset"
	"asti/internal/serve"
)

// span is one timed interval of a traced run, at a layer boundary the
// benchmark can see from outside the program: an HTTP request, an
// in-process call into internal/serve, or client work between them.
type span struct {
	Name     string   `json:"name"`
	StartMs  float64  `json:"start_ms"`
	EndMs    float64  `json:"end_ms"`
	Parent   int      `json:"parent"`   // index into the trace's spans, -1 for none
	Campaign int      `json:"campaign"` // campaign index, -1 for none
	Tags     []string `json:"tags,omitempty"`
}

// tracer keeps a traced run's spans in memory. A nil tracer records
// nothing, so untraced runs pay only the nil check.
type tracer struct {
	spans []span
}

// add records a span and returns its index (-1 on a nil tracer).
func (t *tracer) add(name string, start, end time.Duration, parent, campaign int, tags ...string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, StartMs: msOf(start), EndMs: msOf(end), Parent: parent, Campaign: campaign, Tags: tags})
	return len(t.spans) - 1
}

// end closes a span opened with add.
func (t *tracer) end(i int, end time.Duration) {
	if t != nil && i >= 0 {
		t.spans[i].EndMs = msOf(end)
	}
}

// derived adds what the status request after a step revealed: the
// selection time inside a next, as a child span ending with the response,
// and checkpoint or reactivation tags on the step's span.
func (t *tracer) derived(op opRecord) {
	if t == nil || op.span < 0 {
		return
	}
	if op.selectSec > 0 {
		end := op.end
		t.add("trim.select", end-time.Duration(op.selectSec*1e9), end, op.span, op.campaign)
	}
	if op.checkpoint {
		t.spans[op.span].Tags = append(t.spans[op.span].Tags, "checkpoint")
	}
	if op.reactivated {
		t.spans[op.span].Tags = append(t.spans[op.span].Tags, "reactivation")
	}
}

// coverage is the share of the driver's wall time its spans account for:
// requests, world computation and think time. The driver is one
// goroutine, so these spans never overlap.
func (t *tracer) coverage(makespan time.Duration) float64 {
	covered := 0.0
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, "http.") || s.Name == "client.world" || s.Name == "client.pause" {
			covered += s.EndMs - s.StartMs
		}
	}
	return covered / msOf(makespan)
}

// passBResult is the in-process replay of a campaign.
type passBResult struct {
	proposals [][]int32
	createMs  float64
	// nextMs and observeMs are, by round, what asmserve's handlers do for
	// a step besides selection: the manager lookup (which reactivates a
	// passivated session) plus Propose, minus the selection time it added,
	// or plus Observe.
	nextMs, observeMs []float64
	selfMs            []float64 // Propose minus the selection time it added
	plainObsMs        []float64 // Observe on rounds that wrote no checkpoint
}

// passB replays campaign c for up to maxRounds rounds in process, through
// a serve.Manager configured like the workload's server, with the
// workload's think time before every step after the first. It touches
// only the serve API the benchmark allows itself, so refactors behind
// that API cannot break it.
func passB(w workload, c campaign, n int32, maxRounds int, scratch string, tr *tracer, t0 time.Time) (*passBResult, error) {
	reg := serve.NewSyntheticRegistry(w.scale)
	var opts []serve.ManagerOption
	if w.journal {
		dir, err := os.MkdirTemp(scratch, "passb-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		opts = append(opts, serve.WithJournalDir(dir))
	}
	if w.idleTTL > 0 {
		opts = append(opts, serve.WithIdleTTL(w.idleTTL))
	}
	mgr := serve.NewManager(reg, 1024, opts...)
	cfg := serve.Config{Dataset: w.dataset, Policy: w.policy, Model: diffusion.IC, Eta: w.eta, EtaFrac: w.etaFrac,
		Workers: w.workers, Seed: c.seed}

	// The same probe the server's setup makes, so that Create below times
	// a session and not the dataset build.
	probe, err := mgr.Create(cfg)
	if err != nil {
		return nil, fmt.Errorf("pass B probe: %w", err)
	}
	if err := mgr.Close(probe.Status().ID); err != nil {
		return nil, fmt.Errorf("pass B probe: %w", err)
	}

	since := func() time.Duration { return time.Since(t0) }
	res := &passBResult{}
	t := since()
	s, err := mgr.Create(cfg)
	if err != nil {
		return nil, fmt.Errorf("pass B create: %w", err)
	}
	res.createMs = msOf(since() - t)
	tr.add("serve.create", t, since(), -1, c.index)
	id := s.Status().ID
	defer mgr.Close(id) // the replay is done with it either way

	// lookup waits out the think time and re-fetches the session, which
	// reactivates it if the idle sweep passivated it meanwhile, and
	// returns the time the lookup took.
	lookup := func(think bool) (float64, error) {
		if think && w.pause > 0 {
			time.Sleep(w.pause)
		}
		t := since()
		s, err = mgr.Session(id)
		tr.add("serve.session", t, since(), -1, c.index)
		return msOf(since() - t), err
	}
	active := bitset.New(int(n))
	for round := 1; round <= maxRounds; round++ {
		lookMs, err := lookup(round > 1)
		if err != nil {
			return nil, fmt.Errorf("pass B round %d lookup: %w", round, err)
		}
		before := s.Status()
		t := since()
		p, err := s.Propose()
		end := since()
		if err != nil {
			return nil, fmt.Errorf("pass B round %d propose: %w", round, err)
		}
		sel := s.Status().SelectSeconds - before.SelectSeconds
		i := tr.add("serve.propose", t, end, -1, c.index)
		tr.add("trim.select", end-time.Duration(sel*1e9), end, i, c.index)
		res.proposals = append(res.proposals, p.Seeds)
		res.nextMs = append(res.nextMs, lookMs+msOf(end-t)-sel*1e3)
		res.selfMs = append(res.selfMs, msOf(end-t)-sel*1e3)

		delta := p.Seeds
		if c.world != nil {
			delta = c.world.Spread(p.Seeds, active)
		}
		for _, v := range delta {
			active.Set(v)
		}
		if lookMs, err = lookup(true); err != nil {
			return nil, fmt.Errorf("pass B round %d lookup: %w", round, err)
		}
		before = s.Status()
		t = since()
		prog, err := s.Observe(delta)
		end = since()
		if err != nil {
			return nil, fmt.Errorf("pass B round %d observe: %w", round, err)
		}
		var tags []string
		if s.Status().Checkpoints > before.Checkpoints {
			tags = []string{"checkpoint"}
		} else {
			res.plainObsMs = append(res.plainObsMs, msOf(end-t))
		}
		tr.add("serve.observe", t, end, -1, c.index, tags...)
		res.observeMs = append(res.observeMs, lookMs+msOf(end-t))
		if prog.Done {
			break
		}
	}
	return res, nil
}

// rrsetProbe times the sampler on the workload's graph at round-1
// parameters (all nodes inactive, η_1 = η) with one worker, and the
// greedy selection of a b-seed batch over the resulting pool.
type rrsetProbe struct {
	setsPerS, edgesPerSet, drawsPerSet, nodesPerSet, greedyMs, bytesPerSet float64
}

func probeRRSet(g *graph.Graph, eta int64, b, sets, reps int, seed uint64) rrsetProbe {
	eng := rrset.NewEngineVersion(g, diffusion.IC, 1, 0)
	defer eng.Close()
	coll := rrset.NewCollection(g)
	inactive := make([]int32, g.N())
	for i := range inactive {
		inactive[i] = int32(i)
	}
	var genS, greedyMs []float64
	var st rrset.GenStats
	for r := 0; r < reps; r++ {
		coll.Reset()
		t := time.Now()
		st = eng.Generate(coll, rrset.Request{
			Strategy: rrset.MultiRoot(rrset.RoundRandomized),
			Inactive: inactive, EtaI: eta, Count: sets, Seed: seed + uint64(r)*uint64(sets),
		})
		genS = append(genS, time.Since(t).Seconds())
		t = time.Now()
		coll.GreedyMaxCoverage(b, nil)
		greedyMs = append(greedyMs, msOf(time.Since(t)))
	}
	n := float64(st.Sets)
	return rrsetProbe{
		setsPerS:    float64(sets) / median(genS),
		edgesPerSet: float64(st.EdgesExamined) / n,
		drawsPerSet: float64(st.RngDraws) / n,
		nodesPerSet: float64(st.SetNodes) / n,
		greedyMs:    median(greedyMs),
		bytesPerSet: float64(coll.MemoryBytes()) / n,
	}
}

// probeJournal times frames appends (each fsynced) of workload-shaped
// records, alternating a b-seed proposal and an observation of obsSize
// nodes, on a fresh log in the workload's journal filesystem.
func probeJournal(scratch string, frames, b, obsSize int) ([]float64, error) {
	dir, err := os.MkdirTemp(scratch, "jprobe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := journal.Open(dir)
	if err != nil {
		return nil, err
	}
	wr, err := st.Create("probe")
	if err != nil {
		return nil, err
	}
	ids := func(k, off int) []int32 {
		out := make([]int32, k)
		for i := range out {
			out[i] = int32(off + i)
		}
		return out
	}
	var ms []float64
	for i := 0; i < frames; i++ {
		round := i/2 + 1
		var frame []byte
		if i%2 == 0 {
			frame, err = journal.Marshal(journal.TypeProposed, journal.Proposed{Round: round, Seeds: ids(b, round*b)})
		} else {
			frame, err = journal.Marshal(journal.TypeObserved, journal.Observed{Round: round, Activated: ids(obsSize, round*obsSize)})
		}
		if err != nil {
			return nil, err
		}
		t := time.Now()
		if err := wr.AppendFrame(frame); err != nil {
			return nil, err
		}
		ms = append(ms, msOf(time.Since(t)))
	}
	return ms, wr.Close()
}

// probeGen times building the workload's graph, as the server's registry
// does on the first create.
func probeGen(w workload, reps int) (float64, error) {
	spec, err := gen.Dataset(w.dataset)
	if err != nil {
		return 0, err
	}
	var secs []float64
	for r := 0; r < reps; r++ {
		t := time.Now()
		if _, err := spec.Generate(w.scale); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(t).Seconds())
	}
	return median(secs), nil
}

// sameProposals reports whether two proposal streams agree on their
// common prefix, which must cover all of want.
func sameProposals(got, want [][]int32) bool {
	if len(got) < len(want) {
		return false
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			return false
		}
	}
	return true
}
