package bench

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"

	"asti/internal/adaptive"
	"asti/internal/baselines"
	"asti/internal/diffusion"
	"asti/internal/estimator"
	"asti/internal/gen"
	"asti/internal/graph"
	"asti/internal/rng"
	"asti/internal/trim"
)

// Experiments lists the regenerable experiment ids, in paper order.
func Experiments() []string {
	return []string{
		"table2", "fig3",
		"fig4", "fig5", "fig6", "fig7",
		"table3", "fig8", "fig9", "fig10",
		"heuristics", "significance",
		"ablation-rounding", "ablation-batch", "ablation-truncated",
		"ablation-scaling", "ablation-adaptivity", "ablation-vaswani",
		"ablation-weighting", "ablation-imsolvers",
		"parallel-speedup", "trim",
		"export-ic", "export-lt", "export-csv-ic", "export-csv-lt",
	}
}

// Runner executes experiments against one profile, caching the two model
// sweeps so `-exp all` computes each at most once.
type Runner struct {
	// Profile is the knob bundle every experiment reads.
	Profile  Profile
	Progress io.Writer // nil silences progress lines
	// BenchDir, when non-empty, receives the "trim" experiment's
	// machine-readable report as BENCH_trim.json.
	BenchDir string

	sweeps map[diffusion.Model]*Sweep
}

// NewRunner returns a Runner for the profile.
func NewRunner(p Profile, progress io.Writer) *Runner {
	return &Runner{Profile: p, Progress: progress, sweeps: map[diffusion.Model]*Sweep{}}
}

// sweep returns (computing on first use) the cached sweep for a model.
func (r *Runner) sweep(model diffusion.Model) (*Sweep, error) {
	if s, ok := r.sweeps[model]; ok {
		return s, nil
	}
	s, err := RunSweep(r.Profile, model, r.Progress)
	if err != nil {
		return nil, err
	}
	r.sweeps[model] = s
	return s, nil
}

// Run executes one experiment by id, writing its report to w.
func (r *Runner) Run(id string, w io.Writer) error {
	switch id {
	case "table2":
		return r.table2(w)
	case "fig3":
		return r.fig3(w)
	case "fig4":
		s, err := r.sweep(diffusion.IC)
		if err != nil {
			return err
		}
		s.ReportSeeds(w)
		return s.Charts(w, MetricSeeds)
	case "fig5":
		s, err := r.sweep(diffusion.IC)
		if err != nil {
			return err
		}
		s.ReportTimes(w)
		return s.Charts(w, MetricSeconds)
	case "fig6":
		s, err := r.sweep(diffusion.LT)
		if err != nil {
			return err
		}
		s.ReportSeeds(w)
		return s.Charts(w, MetricSeeds)
	case "fig7":
		s, err := r.sweep(diffusion.LT)
		if err != nil {
			return err
		}
		s.ReportTimes(w)
		return s.Charts(w, MetricSeconds)
	case "fig9":
		s, err := r.sweep(diffusion.IC)
		if err != nil {
			return err
		}
		s.ReportSpreads(w)
		return s.Charts(w, MetricSpread)
	case "fig10":
		s, err := r.sweep(diffusion.IC)
		if err != nil {
			return err
		}
		s.ReportTrace(w)
	case "table3":
		ic, err := r.sweep(diffusion.IC)
		if err != nil {
			return err
		}
		lt, err := r.sweep(diffusion.LT)
		if err != nil {
			return err
		}
		ReportTable3(w, ic, lt)
	case "fig8":
		return r.fig8(w)
	case "heuristics":
		return r.heuristics(w)
	case "significance":
		return r.significance(w)
	case "ablation-adaptivity":
		return r.ablationAdaptivity(w)
	case "ablation-vaswani":
		return r.ablationVaswani(w)
	case "ablation-weighting":
		return r.ablationWeighting(w)
	case "ablation-imsolvers":
		return r.ablationIMSolvers(w)
	case "ablation-rounding":
		return r.ablationRounding(w)
	case "ablation-batch":
		return r.ablationBatch(w)
	case "ablation-truncated":
		return r.ablationTruncated(w)
	case "ablation-scaling":
		return r.ablationScaling(w)
	case "parallel-speedup":
		return r.parallelSpeedup(w)
	case "trim":
		return r.trimReuse(w)
	case "export-ic", "export-lt":
		model := diffusion.IC
		if id == "export-lt" {
			model = diffusion.LT
		}
		s, err := r.sweep(model)
		if err != nil {
			return err
		}
		return s.WriteJSON(w)
	case "export-csv-ic", "export-csv-lt":
		model := diffusion.IC
		if id == "export-csv-lt" {
			model = diffusion.LT
		}
		s, err := r.sweep(model)
		if err != nil {
			return err
		}
		return s.WriteCSV(w)
	case "all":
		for _, id := range Experiments() {
			if err := r.Run(id, w); err != nil {
				return fmt.Errorf("bench: %s: %w", id, err)
			}
			fmt.Fprintln(w)
		}
	default:
		return fmt.Errorf("bench: unknown experiment %q (known: %v, plus \"all\")", id, Experiments())
	}
	return nil
}

// table2 prints the dataset details table (paper Table 2).
func (r *Runner) table2(w io.Writer) error {
	fmt.Fprintf(w, "# Table 2 — dataset details (synthetic scale models, profile %q)\n", r.Profile.Name)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dataset\tpaper\tn\tm\ttype\tavg deg\tLWCC size\tscale")
	for _, spec := range gen.Datasets() {
		scale := r.Profile.scaleFor(spec.Name)
		g, err := spec.Generate(scale)
		if err != nil {
			return err
		}
		typ := "directed"
		if !g.Directed() {
			typ = "undirected"
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%s\t%.2f\t%d\t%.2f\n",
			g.Name(), spec.Paper, g.N(), g.M(), typ, g.AvgDegree(), g.LargestWCC(), scale)
	}
	return tw.Flush()
}

// fig3 prints log-binned degree distributions (paper Figure 3).
func (r *Runner) fig3(w io.Writer) error {
	fmt.Fprintln(w, "# Figure 3 — degree distribution (log-binned fraction of nodes vs degree)")
	for _, spec := range gen.Datasets() {
		g, err := spec.Generate(r.Profile.scaleFor(spec.Name))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n## %s\n", g.Name())
		hist := g.DegreeHistogram(graph.TotalDegrees)
		// Log-2 bins: [1,2), [2,4), [4,8)…
		bins := map[int]int64{}
		for _, b := range hist {
			if b.Degree == 0 {
				continue
			}
			bin := 0
			for d := b.Degree; d > 1; d >>= 1 {
				bin++
			}
			bins[bin] += b.Count
		}
		var keys []int
		for k := range bins {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "degree bin\tfraction of nodes")
		for _, k := range keys {
			fmt.Fprintf(tw, "[%d,%d)\t%.2e\n", 1<<k, 1<<(k+1), float64(bins[k])/float64(g.N()))
		}
		tw.Flush()
	}
	return nil
}

// fig8 prints the per-realization spread of ASTI vs ATEUC on the
// NetHEPT-like dataset at the paper's η (1% of n ≈ 153), for both models
// (paper Figure 8). Adaptive runs always clear the threshold line;
// non-adaptive runs scatter on both sides of it.
func (r *Runner) fig8(w io.Writer) error {
	const realizations = 20 // the paper's protocol, independent of profile
	spec, err := gen.Dataset("synth-nethept")
	if err != nil {
		return err
	}
	g, err := spec.Generate(r.Profile.scaleFor(spec.Name))
	if err != nil {
		return err
	}
	eta := etaFor(g, 0.01)
	fmt.Fprintf(w, "# Figure 8 — spread per realization on %s, η=%d (solid line in the paper)\n", g.Name(), eta)
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		worlds := sampleWorlds(g, model, realizations, r.Profile.Seed^0xF18)
		a := &baselines.ATEUC{Epsilon: r.Profile.Epsilon, MaxSets: r.Profile.MaxSetsPerRound, Workers: r.Profile.Workers}
		S, err := a.Select(g, model, eta, rng.New(r.Profile.Seed^0x8A))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n## %s model (ATEUC selected %d seeds non-adaptively)\n", model, len(S))
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "realization\tASTI spread\tASTI seeds\tATEUC spread\tATEUC reached")
		var astiOver, ateucOver, ateucMiss int
		for i, φ := range worlds {
			pol := trim.MustNew(trim.Config{Epsilon: r.Profile.Epsilon, Batch: 1, Truncated: true,
				MaxSetsPerRound: r.Profile.MaxSetsPerRound, Workers: r.Profile.Workers, ReusePool: r.Profile.reusePool()})
			res, err := adaptive.Run(g, model, eta, pol, φ, rng.New(r.Profile.Seed+uint64(i)))
			pol.Close()
			if err != nil {
				return err
			}
			spread, reached := adaptive.EvaluateFixedSet(φ, S, eta)
			if float64(res.Spread) > 1.5*float64(eta) {
				astiOver++
			}
			if float64(spread) > 1.5*float64(eta) {
				ateucOver++
			}
			if !reached {
				ateucMiss++
			}
			fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%v\n", i+1, res.Spread, len(res.Seeds), spread, reached)
		}
		tw.Flush()
		// The paper's §6.4 summary: under-qualified and over-qualified
		// (spread > 1.5η) realization counts.
		fmt.Fprintf(w, "summary: ATEUC missed η on %d/%d; over-qualified (>1.5η): ATEUC %d, ASTI %d\n",
			ateucMiss, realizations, ateucOver, astiOver)
	}
	return nil
}

// ablationRounding quantifies the §3.3 Remark: the estimator ratio
// E[Γ̃]/E[Γ] for fixed-floor, fixed-ceil and randomized root rounding,
// computed exactly on the fixture graphs, against the analytical bands
// [1−1/√e, 1], [1−1/e, 2], [1−1/e, 1].
func (r *Runner) ablationRounding(w io.Writer) error {
	fmt.Fprintln(w, "# Ablation — root-size rounding (§3.3 Remark): exact E[Γ̃]/E[Γ] ranges per mode")
	graphs := map[string]*graph.Graph{
		"figure1": gen.Figure1Graph(),
		"figure2": gen.Figure2Graph(),
		"star6":   gen.Star(6, 0.4),
		"line5":   gen.Line(5, 0.7),
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "graph\teta\tfloor k\tceil k\trandomized k")
	names := make([]string, 0, len(graphs))
	for name := range graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := graphs[name]
		n := int64(g.N())
		for eta := int64(2); eta < n; eta += 2 {
			minR := [3]float64{2, 2, 2}
			maxR := [3]float64{0, 0, 0}
			for v := int32(0); v < g.N(); v++ {
				exact, err := estimator.ExactTruncatedIC(g, []int32{v}, eta)
				if err != nil {
					return err
				}
				if exact == 0 {
					continue
				}
				ests, err := exactEstimatorAllModes(g, v, eta)
				if err != nil {
					return err
				}
				for m := 0; m < 3; m++ {
					ratio := ests[m] / exact
					if ratio < minR[m] {
						minR[m] = ratio
					}
					if ratio > maxR[m] {
						maxR[m] = ratio
					}
				}
			}
			fmt.Fprintf(tw, "%s\t%d\t[%.3f,%.3f]\t[%.3f,%.3f]\t[%.3f,%.3f]\n", name, eta,
				minR[0], maxR[0], minR[1], maxR[1], minR[2], maxR[2])
		}
	}
	fmt.Fprintln(tw, "analytical band\t\t[0.393,1+]\t[0.632,2]\t[0.632,1]")
	return tw.Flush()
}

// exactEstimatorAllModes returns E[Γ̃(v)] for floor, ceil and randomized
// root rounding (exact enumeration).
func exactEstimatorAllModes(g *graph.Graph, v int32, eta int64) ([3]float64, error) {
	n := int64(g.N())
	kLow := n / eta
	if kLow < 1 {
		kLow = 1
	}
	kHigh := kLow + 1
	if kHigh > n {
		kHigh = n
	}
	frac := float64(n)/float64(eta) - float64(n/eta)
	var out [3]float64
	for m, weights := range [][2]float64{{1, 0}, {0, 1}, {1 - frac, frac}} {
		w := weights
		val, err := estimator.ExactIC(g, []int32{v}, func(spread int) float64 {
			x := int64(spread)
			pMiss := w[0]*hyperMiss(n, x, kLow) + w[1]*hyperMiss(n, x, kHigh)
			return float64(eta) * (1 - pMiss)
		})
		if err != nil {
			return out, err
		}
		out[m] = val
	}
	return out, nil
}

func hyperMiss(n, x, k int64) float64 {
	if k > n-x {
		return 0
	}
	p := 1.0
	for i := int64(0); i < k; i++ {
		p *= float64(n-x-i) / float64(n-i)
	}
	return p
}

// ablationBatch sweeps the TRIM-B batch size on the NetHEPT-like dataset,
// exposing the seeds-vs-time tradeoff the paper discusses in §6.2/§6.3.
func (r *Runner) ablationBatch(w io.Writer) error {
	spec, err := gen.Dataset("synth-nethept")
	if err != nil {
		return err
	}
	g, err := spec.Generate(r.Profile.scaleFor(spec.Name))
	if err != nil {
		return err
	}
	eta := etaFor(g, 0.1)
	worlds := sampleWorlds(g, diffusion.IC, r.Profile.Realizations, r.Profile.Seed^0xBA7C)
	fmt.Fprintf(w, "# Ablation — batch size sweep on %s, IC, η=%d (mean over %d realizations)\n",
		g.Name(), eta, len(worlds))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "batch\tseeds\tspread\tseconds\tmRR sets\trounds")
	for _, b := range []int{1, 2, 4, 8, 16} {
		var seeds, spread, secs float64
		var sets, rounds int64
		for i, φ := range worlds {
			pol := trim.MustNew(trim.Config{Epsilon: r.Profile.Epsilon, Batch: b, Truncated: true,
				MaxSetsPerRound: r.Profile.MaxSetsPerRound, Workers: r.Profile.Workers, ReusePool: r.Profile.reusePool()})
			res, err := adaptive.Run(g, diffusion.IC, eta, pol, φ, rng.New(r.Profile.Seed+uint64(i)+uint64(b)<<8))
			pol.Close()
			if err != nil {
				return err
			}
			seeds += float64(len(res.Seeds))
			spread += float64(res.Spread)
			secs += res.Duration.Seconds()
			sets += pol.Stats.Sets
			rounds += int64(len(res.Rounds))
		}
		k := float64(len(worlds))
		fmt.Fprintf(tw, "%d\t%.1f\t%.0f\t%.3g\t%d\t%.1f\n",
			b, seeds/k, spread/k, secs/k, sets/int64(len(worlds)), float64(rounds)/k)
	}
	return tw.Flush()
}

// ablationTruncated isolates the paper's mechanism: identical adaptive
// machinery with the truncated mRR objective vs the vanilla RR objective,
// reporting seed counts, sample counts and time (the §6.2 explanation of
// AdaptIM's 10–20× slowdown).
func (r *Runner) ablationTruncated(w io.Writer) error {
	spec, err := gen.Dataset("synth-nethept")
	if err != nil {
		return err
	}
	g, err := spec.Generate(r.Profile.scaleFor(spec.Name))
	if err != nil {
		return err
	}
	eta := etaFor(g, 0.05)
	worlds := sampleWorlds(g, diffusion.IC, r.Profile.Realizations, r.Profile.Seed^0x7A7)
	fmt.Fprintf(w, "# Ablation — truncated (mRR) vs vanilla (RR) objective on %s, IC, η=%d\n", g.Name(), eta)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "objective\tseeds\tsets generated\tseconds")
	for _, truncated := range []bool{true, false} {
		label := "truncated (ASTI)"
		if !truncated {
			label = "vanilla (AdaptIM)"
		}
		var seeds, secs float64
		var sets int64
		for i, φ := range worlds {
			pol := trim.MustNew(trim.Config{Epsilon: r.Profile.Epsilon, Batch: 1, Truncated: truncated,
				MaxSetsPerRound: r.Profile.MaxSetsPerRound, Workers: r.Profile.Workers, ReusePool: r.Profile.reusePool()})
			t0 := time.Now()
			res, err := adaptive.Run(g, diffusion.IC, eta, pol, φ, rng.New(r.Profile.Seed+uint64(i)))
			if err != nil {
				return err
			}
			_ = t0
			seeds += float64(len(res.Seeds))
			secs += res.Duration.Seconds()
			sets += pol.Stats.Sets
			pol.Close()
		}
		k := float64(len(worlds))
		fmt.Fprintf(tw, "%s\t%.1f\t%d\t%.3g\n", label, seeds/k, sets/int64(len(worlds)), secs/k)
	}
	return tw.Flush()
}
