// Command graphtool inspects probabilistic social-network files: summary
// statistics, degree distributions, centrality rankings and quick spread
// estimates — the companion utility for datasets produced by cmd/datagen
// or loaded from edge lists.
//
// Usage:
//
//	graphtool -graph net.edges stats
//	graphtool -dataset synth-nethept -scale 0.5 degrees
//	graphtool -graph net.edges top -by pagerank -k 10
//	graphtool -graph net.edges spread -seeds 3,17,42 -model LT
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"asti/internal/centrality"
	"asti/internal/diffusion"
	"asti/internal/estimator"
	"asti/internal/gen"
	"asti/internal/graph"
	"asti/internal/rng"
	"asti/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "graphtool:", err)
		os.Exit(1)
	}
}

func run(args []string, w *os.File) error {
	fs := flag.NewFlagSet("graphtool", flag.ContinueOnError)
	var (
		graphPath = fs.String("graph", "", "edge-list file to load")
		dataset   = fs.String("dataset", "", "synthetic dataset name (alternative to -graph)")
		scale     = fs.Float64("scale", 1.0, "dataset generation scale (0,1]")
		modelName = fs.String("model", "IC", "diffusion model for spread estimates: IC or LT")
		seeds     = fs.String("seeds", "", "comma-separated seed node ids (spread command)")
		by        = fs.String("by", "pagerank", "ranking for top: pagerank, degree, core")
		k         = fs.Int("k", 10, "how many nodes top prints")
		samples   = fs.Int("samples", 2000, "Monte-Carlo samples for spread")
		seed      = fs.Uint64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("need exactly one command: stats, degrees, top, spread (got %q)", fs.Args())
	}
	cmd := fs.Arg(0)

	g, err := loadGraph(*graphPath, *dataset, *scale)
	if err != nil {
		return err
	}
	model, err := diffusion.ParseModel(*modelName)
	if err != nil {
		return err
	}

	switch cmd {
	case "stats":
		return stats(w, g)
	case "degrees":
		return degrees(w, g)
	case "chart":
		return chart(w, g)
	case "top":
		return top(w, g, *by, *k)
	case "spread":
		S, err := parseSeeds(*seeds, g.N())
		if err != nil {
			return err
		}
		est := estimator.MCSpread(g, model, S, nil, *samples, rng.New(*seed))
		fmt.Fprintf(w, "E[I(S)] ≈ %.1f over %d samples (%s model, |S|=%d, n=%d)\n",
			est, *samples, model, len(S), g.N())
		return nil
	default:
		return fmt.Errorf("unknown command %q (stats, degrees, chart, top, spread)", cmd)
	}
}

// chart renders the log-binned degree distribution as an ASCII log-log
// plot (the shape check of the paper's Figure 3, in a terminal).
func chart(w *os.File, g *graph.Graph) error {
	hist := g.DegreeHistogram(graph.TotalDegrees)
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
	fig := &trace.Figure{
		Title:  fmt.Sprintf("%s — degree distribution (log2-binned)", g.Name()),
		XLabel: "log2(degree bin)",
		YLabel: "fraction of nodes",
	}
	sr := fig.AddSeries("nodes")
	var keys []int
	for k := range bins {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		sr.Add(float64(k), float64(bins[k])/float64(g.N()))
	}
	return fig.Chart(w, trace.ChartOptions{Width: 56, Height: 16, LogY: true})
}

func loadGraph(path, dataset string, scale float64) (*graph.Graph, error) {
	switch {
	case path != "" && dataset != "":
		return nil, fmt.Errorf("-graph and -dataset are mutually exclusive")
	case strings.HasSuffix(path, ".asmg"):
		return graph.LoadBinaryFile(path)
	case path != "":
		return graph.LoadFile(path)
	case dataset != "":
		spec, err := gen.Dataset(dataset)
		if err != nil {
			return nil, err
		}
		return spec.Generate(scale)
	default:
		return nil, fmt.Errorf("need -graph FILE or -dataset NAME")
	}
}

func parseSeeds(s string, n int32) ([]int32, error) {
	if s == "" {
		return nil, fmt.Errorf("spread needs -seeds id,id,…")
	}
	var out []int32
	for _, part := range strings.Split(s, ",") {
		id, err := strconv.ParseInt(strings.TrimSpace(part), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("seed %q: %w", part, err)
		}
		if id < 0 || int32(id) >= n {
			return nil, fmt.Errorf("seed %d outside [0, n=%d)", id, n)
		}
		out = append(out, int32(id))
	}
	return out, nil
}

func stats(w *os.File, g *graph.Graph) error {
	typ := "directed"
	if !g.Directed() {
		typ = "undirected"
	}
	core, err := centrality.KCore(g)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "name:        %s\n", g.Name())
	fmt.Fprintf(w, "nodes:       %d\n", g.N())
	fmt.Fprintf(w, "edges:       %d (%s source)\n", g.M(), typ)
	fmt.Fprintf(w, "avg degree:  %.2f\n", g.AvgDegree())
	fmt.Fprintf(w, "max out-deg: %d\n", g.MaxDegree(graph.OutDegrees))
	fmt.Fprintf(w, "largest WCC: %d (%d components)\n", g.LargestWCC(), g.NumWCC())
	fmt.Fprintf(w, "degeneracy:  %d\n", centrality.Degeneracy(core))
	return nil
}

func degrees(w *os.File, g *graph.Graph) error {
	hist := g.DegreeHistogram(graph.TotalDegrees)
	bins := map[int]int64{}
	for _, b := range hist {
		if b.Degree == 0 {
			bins[-1] += b.Count
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
	fmt.Fprintln(w, "degree bin      nodes     fraction")
	for _, k := range keys {
		label := "0"
		if k >= 0 {
			label = fmt.Sprintf("[%d,%d)", 1<<k, 1<<(k+1))
		}
		fmt.Fprintf(w, "%-14s %8d  %.3e\n", label, bins[k], float64(bins[k])/float64(g.N()))
	}
	return nil
}

func top(w *os.File, g *graph.Graph, by string, k int) error {
	if k < 1 {
		return fmt.Errorf("-k %d < 1", k)
	}
	var scores []float64
	switch by {
	case "pagerank":
		pr, _, err := centrality.PageRank(g, centrality.PageRankOptions{})
		if err != nil {
			return err
		}
		scores = pr
	case "degree":
		scores = make([]float64, g.N())
		for v := int32(0); v < g.N(); v++ {
			scores[v] = float64(g.OutDegree(v))
		}
	case "core":
		core, err := centrality.KCore(g)
		if err != nil {
			return err
		}
		scores = make([]float64, len(core))
		for v, c := range core {
			scores[v] = float64(c)
		}
	default:
		return fmt.Errorf("unknown ranking %q (pagerank, degree, core)", by)
	}
	order := centrality.Rank(scores)
	if k > len(order) {
		k = len(order)
	}
	fmt.Fprintf(w, "top %d by %s\n", k, by)
	for i := 0; i < k; i++ {
		v := order[i]
		fmt.Fprintf(w, "%3d. node %-8d score %.6g  out-deg %d\n", i+1, v, scores[v], g.OutDegree(v))
	}
	return nil
}
