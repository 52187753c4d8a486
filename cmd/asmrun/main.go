// Command asmrun runs one adaptive-seed-minimization algorithm on one
// dataset and prints the per-round trace — the ad-hoc driver for exploring
// a single configuration.
//
// Usage:
//
//	asmrun -dataset synth-nethept -eta-frac 0.05 -model IC -policy ASTI
//	asmrun -graph my.edges -eta 500 -policy ASTI-8 -seed 7
//	asmrun -dataset synth-epinions -policy ATEUC -realizations 5
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"asti/internal/adaptive"
	"asti/internal/baselines"
	"asti/internal/diffusion"
	"asti/internal/gen"
	"asti/internal/graph"
	"asti/internal/rng"
	"asti/internal/trim"
)

func main() {
	var (
		dataset      = flag.String("dataset", "synth-nethept", "synthetic dataset name (see datagen -list)")
		graphPath    = flag.String("graph", "", "load a graph from an edge-list file instead of generating")
		scale        = flag.Float64("scale", 1.0, "dataset generation scale (0,1]")
		modelName    = flag.String("model", "IC", "diffusion model: IC or LT")
		policyName   = flag.String("policy", "ASTI", "ASTI, ASTI-<b>, AdaptIM, ATEUC, MCGreedy, CELF, Degree, Random, PageRank, DegreeDiscount, KCore, Vaswani, Sketch")
		eta          = flag.Int64("eta", 0, "absolute threshold η (overrides -eta-frac)")
		etaFrac      = flag.Float64("eta-frac", 0.05, "threshold as a fraction of n")
		epsilon      = flag.Float64("epsilon", 0.5, "approximation parameter ε")
		workers      = flag.Int("workers", 0, "sampling-engine workers (0 = all cores, 1 = sequential; ASTI/ATEUC policies)")
		reuse        = flag.Bool("reuse", true, "carry the sampling pool across adaptive rounds (speed only; selections are identical)")
		seed         = flag.Uint64("seed", 1, "random seed")
		realizations = flag.Int("realizations", 1, "number of realizations to average over")
		trace        = flag.Bool("trace", false, "print the per-round trace of the first realization")
		cpuProfile   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile   = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	flag.Parse()

	err := withProfiles(*cpuProfile, *memProfile, func() error {
		return run(*dataset, *graphPath, *scale, *modelName, *policyName, *eta, *etaFrac, *epsilon, *workers, *reuse, *seed, *realizations, *trace)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "asmrun: %v\n", err)
		os.Exit(1)
	}
}

// withProfiles wraps fn with optional pprof instrumentation: a CPU
// profile covering fn, and a heap profile snapped after it returns —
// profiling the adaptive loop without editing code.
func withProfiles(cpuPath, memPath string, fn func() error) error {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if err := fn(); err != nil {
		return err
	}
	if memPath != "" {
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC() // settle allocations so the heap profile reflects live data
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

func run(dataset, graphPath string, scale float64, modelName, policyName string, eta int64, etaFrac, epsilon float64, workers int, reuse bool, seed uint64, realizations int, trace bool) error {
	var g *graph.Graph
	var err error
	if graphPath != "" {
		g, err = graph.LoadFile(graphPath)
	} else {
		var spec gen.DatasetSpec
		spec, err = gen.Dataset(dataset)
		if err == nil {
			g, err = spec.Generate(scale)
		}
	}
	if err != nil {
		return err
	}

	var model diffusion.Model
	switch strings.ToUpper(modelName) {
	case "IC":
		model = diffusion.IC
	case "LT":
		model = diffusion.LT
	default:
		return fmt.Errorf("unknown model %q (IC or LT)", modelName)
	}

	if eta == 0 {
		eta = int64(etaFrac * float64(g.N()))
		if eta < 1 {
			eta = 1
		}
	}
	fmt.Printf("graph %s: n=%d m=%d | model=%s η=%d ε=%g policy=%s\n",
		g.Name(), g.N(), g.M(), model, eta, epsilon, policyName)

	base := rng.New(seed)
	if strings.EqualFold(policyName, "ATEUC") {
		return runATEUC(g, model, eta, epsilon, workers, base, realizations)
	}

	policy, err := makePolicy(policyName, epsilon, workers, reuse)
	if err != nil {
		return err
	}
	var seedsSum, spreadSum, secSum float64
	for i := 0; i < realizations; i++ {
		φ := diffusion.SampleRealization(g, model, base.Split())
		res, err := adaptive.Run(g, model, eta, policy, φ, base.Split())
		if err != nil {
			return err
		}
		seedsSum += float64(len(res.Seeds))
		spreadSum += float64(res.Spread)
		secSum += res.Duration.Seconds()
		if i == 0 && trace {
			for r, tr := range res.Rounds {
				fmt.Printf("  round %3d: batch=%v marginal=%d η_i=%d n_i=%d\n",
					r+1, tr.Seeds, tr.Marginal, tr.EtaIBefore, tr.NiBefore)
			}
		}
	}
	k := float64(realizations)
	fmt.Printf("mean over %d realization(s): seeds=%.1f spread=%.0f selection=%.3fs\n",
		realizations, seedsSum/k, spreadSum/k, secSum/k)
	return nil
}

// makePolicy parses a policy name into an adaptive.Policy.
func makePolicy(name string, epsilon float64, workers int, reuse bool) (adaptive.Policy, error) {
	lower := strings.ToLower(name)
	switch {
	case lower == "asti":
		return trim.New(trim.Config{Epsilon: epsilon, Batch: 1, Truncated: true, Workers: workers, ReusePool: reuse})
	case strings.HasPrefix(lower, "asti-"):
		b, err := strconv.Atoi(lower[len("asti-"):])
		if err != nil || b < 1 {
			return nil, fmt.Errorf("bad batch size in %q", name)
		}
		return trim.New(trim.Config{Epsilon: epsilon, Batch: b, Truncated: true, Workers: workers, ReusePool: reuse})
	case lower == "adaptim":
		return trim.New(trim.Config{Epsilon: epsilon, Batch: 1, Truncated: false, Workers: workers, ReusePool: reuse})
	case lower == "mcgreedy":
		return &baselines.MCGreedy{Samples: 500, Truncated: true}, nil
	case lower == "celf":
		return &baselines.CELFGreedy{Samples: 500, Truncated: true}, nil
	case lower == "degree":
		return baselines.Degree{}, nil
	case lower == "random":
		return baselines.Random{}, nil
	case lower == "pagerank":
		return &baselines.PageRankPolicy{}, nil
	case lower == "degreediscount":
		return &baselines.DegreeDiscountPolicy{}, nil
	case lower == "kcore":
		return &baselines.KCorePolicy{}, nil
	case lower == "vaswani":
		return &baselines.Vaswani{RelErr: 0.2}, nil
	case lower == "sketch":
		return &baselines.SketchPolicy{}, nil
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
}

// runATEUC handles the non-adaptive baseline: one selection, per-world
// scoring.
func runATEUC(g *graph.Graph, model diffusion.Model, eta int64, epsilon float64, workers int, base *rng.Source, realizations int) error {
	a := &baselines.ATEUC{Epsilon: epsilon, Workers: workers}
	t0 := time.Now()
	S, err := a.Select(g, model, eta, base.Split())
	if err != nil {
		return err
	}
	fmt.Printf("ATEUC selected %d seeds in %.3fs (non-adaptive)\n", len(S), time.Since(t0).Seconds())
	misses := 0
	var spreadSum float64
	for i := 0; i < realizations; i++ {
		φ := diffusion.SampleRealization(g, model, base.Split())
		spread, reached := adaptive.EvaluateFixedSet(φ, S, eta)
		spreadSum += float64(spread)
		if !reached {
			misses++
		}
	}
	fmt.Printf("mean spread over %d realization(s): %.0f | missed η on %d\n",
		realizations, spreadSum/float64(realizations), misses)
	return nil
}
