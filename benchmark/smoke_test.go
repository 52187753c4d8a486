package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestSmoke builds asmserve and runs every workload at smoke size, untraced
// and traced, checking that each metric BENCHMARK.json names is printed
// with its unit and that every correctness check passes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs asmserve")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	e := env{bin: filepath.Join(t.TempDir(), "asmserve"), scratch: t.TempDir(), out: t.TempDir(), smoke: true}
	ctx := context.Background()
	if err := buildServer(ctx, root, e.bin); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for _, wl := range bf.Workloads {
		w, err := findWorkload(wl.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, trace := range []bool{false, true} {
			r, err := runWorkload(ctx, e, w, 1, time.Second, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			var out strings.Builder
			r.print(&out)
			if !r.ok() {
				t.Errorf("%s trace=%v failed its checks:\n%s", w.name, trace, out.String())
			}
			want := map[string]string{}
			if trace {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v reports %d metrics, BENCHMARK.json lists %d", w.name, trace, len(r.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := r.Metrics[name]
				line := fmt.Sprintf("%s %s %s %s n=", w.name, name, strconv.FormatFloat(m.Value, 'g', -1, 64), unit)
				if !ok || m.Unit != unit || !strings.Contains(out.String(), line) {
					t.Errorf("%s trace=%v: metric %s (%s) not printed as %+v", w.name, trace, name, unit, m)
				}
			}
		}
	}
}
