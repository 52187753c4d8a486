package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// runs builds a seed → value map from values for seeds 1, 2, ….
func runs(values ...float64) map[uint64]float64 {
	m := map[uint64]float64{}
	for i, v := range values {
		m[uint64(i+1)] = v
	}
	return m
}

func TestVerdicts(t *testing.T) {
	lower := e2eSpec{Name: "next_p50_ms", Better: "lower", Bound: 0.1}
	higher := e2eSpec{Name: "steps_per_s", Better: "higher", Bound: 0.1}
	steady := runs(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, tc := range []struct {
		name string
		spec e2eSpec
		a, b map[uint64]float64
		want string
	}{
		{"same numbers", lower, steady, steady, "no worse"},
		// Within the bound, but slower in every pair and beyond the spread.
		{"5% slower in every pair", lower, steady, runs(105, 106, 104, 105, 107, 103, 105, 106, 104, 105), "regressed"},
		// Within the bound and inside the spread: pairs split.
		{"2% slower, mixed pairs", lower, steady, runs(103, 100, 104, 99, 105, 100, 103, 102, 101, 104), "no worse"},
		{"20% slower", lower, steady, runs(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), "regressed"},
		{"20% faster", lower, steady, runs(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), "improved"},
		{"20% more throughput", higher, steady, runs(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), "improved"},
		{"20% less throughput", higher, steady, runs(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), "regressed"},
		// Spread far beyond the bound: a 15% shift cannot be told from noise.
		{"noisy", lower, runs(60, 140, 80, 120, 100, 70, 130, 90, 110, 100), runs(75, 155, 95, 135, 115, 85, 145, 105, 125, 115), "unresolved"},
		// Noisy, but every run of the change beats every run of the parent.
		{"noisy but separated", lower, runs(200, 260, 230, 300, 250, 210, 270, 240, 290, 220), runs(100, 150, 120, 180, 140, 110, 160, 130, 170, 125), "improved"},
		// The same gain from five pairs is too few to claim.
		{"five pairs", lower, runs(200, 260, 230, 300, 250), runs(100, 150, 120, 180, 140), "no worse"},
		{"one pair", higher, runs(100), runs(150), "no worse"},
		// Wins most pairs by a hair: within the quartile spread, not a gain.
		{"tiny win", lower, steady, runs(99.9, 100.9, 98.9, 99.9, 101.9, 97.9, 99.9, 100.9, 98.9, 99.9), "no worse"},
	} {
		if got := verdict(tc.spec, tc.a, tc.b).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// compareDirs reads untraced reports from two directories and prints a
// row per workload and BENCHMARK.json end-to-end metric. A run that failed
// a check makes its workload's rows unresolved, whatever its numbers.
func TestCompareDirs(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	for _, dir := range []string{dirA, dirB} {
		for _, wl := range []string{"cascade", "durable-echo"} {
			for seed := uint64(1); seed <= 3; seed++ {
				r := &report{Workload: wl, Seed: seed, Correct: true, Metrics: map[string]metricValue{}}
				if dir == dirB && wl == "durable-echo" && seed == 2 {
					r.Failed = 1 // its numbers, better than A's, must not count
				}
				for _, m := range bf.EndToEnd {
					v := 10 + 0.01*float64(seed)
					if r.Failed > 0 && m.Better == "lower" {
						v /= 2
					}
					r.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
				}
				if err := writeJSON(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", wl, seed)), r); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	var out strings.Builder
	if err := compareDirs(&out, root, dirA, dirB); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if want := 1 + len(bf.Workloads)*len(bf.EndToEnd); len(lines) != want {
		t.Fatalf("%d lines, want %d:\n%s", len(lines), want, out.String())
	}
	for _, l := range lines[1:] {
		var want string
		switch {
		case strings.HasPrefix(l, "cascade "):
			want = "no worse"
		case strings.HasPrefix(l, "durable-echo "):
			want = "unresolved: failed runs (A 0, B 1)"
		default:
			want = "missing runs (A 0, B 0)"
		}
		if !strings.Contains(l, want) {
			t.Errorf("row %q, want %q", l, want)
		}
	}
}
