package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// e2eSpec is one end_to_end entry of BENCHMARK.json.
type e2eSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkFile struct {
	EndToEnd []e2eSpec `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchmarkFile(root string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(data, &bf)
}

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) computes them (the
// "exclusive" method), so spreads read the same here and in any script
// that checks them.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// minPairs is the fewest seed-paired runs from which a side may be said
// to win: with fewer, one run decides the share and a side of one run has
// no spread at all.
const minPairs = 10

// verdict compares metric runs a (parent) and b (change), paired by seed,
// under spec's direction and bound:
//   - improved: b wins at least 9 in 10 of at least minPairs pairs and the
//     medians differ by more than a's interquartile range;
//   - regressed: a wins pairs by the rule improved uses for b, so that a
//     consistent slow-down smaller than the bound still shows;
//   - unresolved: either side's spread exceeds the bound, unless every run
//     of b reads better than every run of a;
//   - regressed: b's median is worse than a's by more than the bound;
//   - no worse: otherwise.
func verdict(spec e2eSpec, a, b map[uint64]float64) (row compareRow) {
	av, bv := values(a), values(b)
	row.aQ1, row.aMed, row.aQ3 = quartiles(av)
	row.bQ1, row.bMed, row.bQ3 = quartiles(bv)
	better := func(x, y float64) bool { // x better than y
		if spec.Better == "higher" {
			return x > y
		}
		return x < y
	}
	wins, losses := 0, 0
	for seed, x := range a {
		if y, ok := b[seed]; ok {
			row.pairs++
			switch {
			case better(y, x):
				wins++
			case better(x, y):
				losses++
			}
		}
	}
	if row.pairs > 0 {
		row.won = float64(wins) / float64(row.pairs)
	}
	allBetter := better(minOrMax(bv, spec.Better, true), minOrMax(av, spec.Better, false))
	worse := (row.bMed - row.aMed) / row.aMed
	if spec.Better == "higher" {
		worse = -worse
	}
	beyondSpread := math.Abs(row.bMed-row.aMed) > row.aQ3-row.aQ1
	pairRule := func(won int) bool {
		return row.pairs >= minPairs && float64(won) >= 0.9*float64(row.pairs) && beyondSpread
	}
	spread := max((row.aQ3-row.aQ1)/row.aMed, (row.bQ3-row.bQ1)/row.bMed)
	switch {
	case worse < 0 && pairRule(wins):
		row.verdict = "improved"
	case worse > 0 && pairRule(losses):
		row.verdict = "regressed"
	case spread > spec.Bound && !allBetter:
		row.verdict = "unresolved"
	case worse > spec.Bound:
		row.verdict = "regressed"
	default:
		row.verdict = "no worse"
	}
	return row
}

type compareRow struct {
	aQ1, aMed, aQ3 float64
	bQ1, bMed, bQ3 float64
	pairs          int     // runs with the same seed on both sides
	won            float64 // share of pairs b won
	verdict        string
}

// minOrMax returns the worst value of xs when worst is set, else the
// best, under the metric's direction.
func minOrMax(xs []float64, better string, worst bool) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lowIsBest := better != "higher"
	if lowIsBest != worst {
		return s[0]
	}
	return s[len(s)-1]
}

func values(m map[uint64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// reportSet is the untraced reports of a directory: the values of runs
// that passed, as workload → metric → seed → value, and per workload the
// number of runs that failed a check or an operation.
type reportSet struct {
	values map[string]map[string]map[uint64]float64
	broken map[string]int
}

func loadReports(dir string) (reportSet, error) {
	set := reportSet{values: map[string]map[string]map[uint64]float64{}, broken: map[string]int{}}
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return set, err
	}
	out := set.values
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return set, err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil || r.Workload == "" || r.Trace {
			continue // trace files and traced runs
		}
		if !r.ok() {
			set.broken[r.Workload]++ // a run that broke measures nothing
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string]map[uint64]float64{}
		}
		for name, m := range r.Metrics {
			if out[r.Workload][name] == nil {
				out[r.Workload][name] = map[uint64]float64{}
			}
			out[r.Workload][name][r.Seed] = m.Value
		}
	}
	return set, nil
}

// compareDirs prints one row per workload and end-to-end metric of
// BENCHMARK.json: each side's median and quartiles, the share of
// seed-paired runs the second directory won, and the verdict. A workload
// with a failed run on either side is unresolved: a change that breaks
// runs gains nothing by it.
func compareDirs(w io.Writer, root, dirA, dirB string) error {
	bf, err := readBenchmarkFile(root)
	if err != nil {
		return err
	}
	a, err := loadReports(dirA)
	if err != nil {
		return err
	}
	b, err := loadReports(dirB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-13s %-22s %-6s %-30s %-30s %5s  %s\n", "workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "won", "verdict")
	for _, wl := range bf.Workloads {
		for _, spec := range bf.EndToEnd {
			av, bv := a.values[wl.Name][spec.Name], b.values[wl.Name][spec.Name]
			failed := ""
			if fa, fb := a.broken[wl.Name], b.broken[wl.Name]; fa+fb > 0 {
				failed = fmt.Sprintf("failed runs (A %d, B %d)", fa, fb)
			}
			if len(av) == 0 || len(bv) == 0 {
				fmt.Fprintln(w, strings.TrimSpace(fmt.Sprintf("%-13s %-22s %-6s missing runs (A %d, B %d) %s", wl.Name, spec.Name, spec.Unit, len(av), len(bv), failed)))
				continue
			}
			row := verdict(spec, av, bv)
			if failed != "" {
				row.verdict = "unresolved: " + failed
			}
			won := "-"
			if row.pairs > 0 {
				won = fmt.Sprintf("%.0f%%", 100*row.won)
			}
			fmt.Fprintf(w, "%-13s %-22s %-6s %-30s %-30s %5s  %s\n", wl.Name, spec.Name, spec.Unit,
				fmt.Sprintf("%.4g [%.4g, %.4g]", row.aMed, row.aQ1, row.aQ3),
				fmt.Sprintf("%.4g [%.4g, %.4g]", row.bMed, row.bQ1, row.bQ3),
				won, row.verdict)
		}
	}
	return nil
}
