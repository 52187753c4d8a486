package main

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"time"

	"asti/internal/diffusion"
	"asti/internal/graph"
	"asti/internal/rng"
)

// workload is one traffic mix against one asmserve configuration. Every
// workload runs one closed-loop campaign driver and one open-loop monitor,
// each on its own keep-alive connection: two connections, matching the
// two cores the benchmark was sized for.
type workload struct {
	name    string
	dataset string
	scale   float64 // asmserve -scale
	policy  string
	batch   int     // seeds per proposal (b of ASTI-b)
	etaFrac float64 // used when eta is 0
	eta     int64
	echo    bool // observation = the batch itself, so a campaign takes exactly ⌈η/b⌉ rounds
	journal bool // asmserve -journal-dir
	idleTTL time.Duration
	// workers is the sampling-worker count of each session; 0 keeps the
	// server's default of one per core. Workloads of short steps use 1:
	// with the default, every sampling batch waits for the core the load
	// generator shares, which doubled the spread of identical runs
	// (README.md, "Load shape"). Proposals do not depend on it.
	workers int

	// slots campaigns are kept open at once and stepped round-robin, one
	// operation each per pass, with pause after every pass. slots 1 and
	// pause 0 is a plain closed loop.
	slots int
	pause time.Duration

	// stepTail is the tail quantile of step latency. It leaves at least
	// ten samples beyond it at the lowest step count of the workload's
	// baseline runs, and is fixed, so a run with a few samples more or
	// fewer never switches quantile (README.md, "Tail quantiles").
	stepTail float64
}

// listLen is the length of every campaign list; a run gets through a
// fraction of it.
const listLen = 1000

// scrapeInterval paces the monitor: GET /metrics and GET /v1/sessions in
// turn, ten requests a second.
const scrapeInterval = 100 * time.Millisecond

// workloads are the benchmark's four traffic mixes. README.md gives the
// reason for each.
var workloads = []workload{
	{
		name: "cascade", dataset: "synth-nethept", scale: 0.25, policy: "ASTI", batch: 1,
		etaFrac: 0.05, workers: 1, slots: 1, stepTail: 0.90,
	},
	{
		name: "batch-dense", dataset: "synth-epinions", scale: 0.2, policy: "ASTI-8", batch: 8,
		eta: 120, echo: true, slots: 1, stepTail: 0.98,
	},
	{
		name: "durable-echo", dataset: "synth-nethept", scale: 0.2, policy: "ASTI", batch: 1,
		eta: 40, echo: true, journal: true, workers: 1, slots: 1, stepTail: 0.95,
	},
	{
		name: "churn-scrape", dataset: "synth-nethept", scale: 0.2, policy: "ASTI-4", batch: 4,
		eta: 32, echo: true, journal: true, idleTTL: 100 * time.Millisecond, workers: 1,
		slots: 8, pause: 200 * time.Millisecond, stepTail: 0.95,
	},
}

// smokeSized shrinks w to a few rounds on a tiny graph, keeping its
// shape: the smoke test runs every workload in seconds.
func (w workload) smokeSized() workload {
	w.scale = min(w.scale, 0.05)
	if w.echo {
		w.eta = int64(2 * w.batch)
	}
	return w
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// serverArgs are the asmserve flags of the workload; everything else
// keeps its default.
func (w workload) serverArgs(addr, journalDir string) []string {
	args := []string{"-addr", addr, "-scale", strconv.FormatFloat(w.scale, 'g', -1, 64)}
	if w.journal {
		args = append(args, "-journal-dir", journalDir)
	}
	if w.idleTTL > 0 {
		args = append(args, "-idle-ttl", w.idleTTL.String())
	}
	return args
}

// createBody is the POST /v1/sessions body of a campaign with the given
// session seed.
func (w workload) createBody(seed uint64) map[string]any {
	body := map[string]any{"dataset": w.dataset, "policy": w.policy, "model": "IC", "seed": seed}
	if w.workers > 0 {
		body["workers"] = w.workers
	}
	if w.eta > 0 {
		body["eta"] = w.eta
	} else {
		body["eta_frac"] = w.etaFrac
	}
	return body
}

// campaign is one entry of a workload's campaign list.
type campaign struct {
	index int
	seed  uint64                 // session seed
	world *diffusion.Realization // nil for echo workloads
}

// campaignList builds the workload's campaign list for a run seed:
// campaign i has session seed seed+i. Worlds are a catalogue fixed by the
// workload, like its graph: world i is the same in every run, so runs with
// different seeds differ in the algorithm's randomness, not in how hard
// the worlds they happen to draw are.
func campaignList(w workload, g *graph.Graph, seed uint64, n int) []campaign {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	worldBase := h.Sum64()
	list := make([]campaign, n)
	for i := range list {
		list[i] = campaign{index: i, seed: seed + uint64(i)}
		if !w.echo {
			list[i].world = diffusion.SampleRealization(g, diffusion.IC, rng.New(rng.SplitMix64(worldBase+uint64(i))))
		}
	}
	return list
}
