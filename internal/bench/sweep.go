package bench

import (
	"fmt"
	"io"
	"time"

	"asti/internal/adaptive"
	"asti/internal/baselines"
	"asti/internal/diffusion"
	"asti/internal/gen"
	"asti/internal/graph"
	"asti/internal/rng"
	"asti/internal/trim"
)

// Cell is the measurement of one (dataset, model, threshold, algorithm)
// point, aggregated over the profile's realizations — one marker of a
// paper figure.
type Cell struct {
	// Dataset, Model, Policy, EtaFrac and Eta identify the cell.
	Dataset string
	Model   diffusion.Model
	Policy  string
	EtaFrac float64
	Eta     int64

	// Per-realization series (aligned): selected seeds, realized spread,
	// selection seconds.
	Seeds   []float64
	Spreads []float64
	Seconds []float64
	// Misses counts realizations whose realized spread fell short of η
	// (possible only for the non-adaptive baseline).
	Misses int
	// TraceMarginals is the per-round realized marginal spread of the
	// first realization (Appendix D / Figure 10 series).
	TraceMarginals []int64
	// SetsGenerated totals RR/mRR sets across realizations (mechanism
	// metric behind the paper's Figure 5 discussion).
	SetsGenerated int64
}

// policySpec names one algorithm column of the evaluation.
type policySpec struct {
	name     string
	batch    int  // 0 = non-adaptive ATEUC
	vanilla  bool // AdaptIM
	nonAdapt bool
}

// columns returns the paper's six algorithm columns, honoring the
// profile's AdaptIM dataset gate.
func (p Profile) columns(dataset string) []policySpec {
	cols := []policySpec{{name: "ASTI", batch: 1}}
	for _, b := range p.Batches {
		cols = append(cols, policySpec{name: fmt.Sprintf("ASTI-%d", b), batch: b})
	}
	if p.AdaptIMDatasets[dataset] {
		cols = append(cols, policySpec{name: "AdaptIM", batch: 1, vanilla: true})
	}
	cols = append(cols, policySpec{name: "ATEUC", nonAdapt: true})
	return cols
}

// skipCell reports whether a column is skipped at a threshold (the quick
// profile's AdaptIM threshold cap).
func (p Profile) skipCell(col policySpec, frac float64) bool {
	return col.vanilla && p.AdaptIMMaxFrac > 0 && frac > p.AdaptIMMaxFrac+1e-12
}

// Sweep holds the results of the full threshold sweep for one model — the
// shared computation behind Figures 4/5/9 (IC) and 6/7 (LT) and Table 3.
type Sweep struct {
	// Profile and Model identify the sweep.
	Profile Profile
	Model   diffusion.Model
	// Cells indexed [dataset][etaFrac][policy].
	Cells map[string]map[float64]map[string]*Cell
	// Datasets in paper order.
	Datasets []string
}

// CellFor returns the cell for (dataset, etaFrac, policy), or nil.
func (s *Sweep) CellFor(dataset string, etaFrac float64, policy string) *Cell {
	if m, ok := s.Cells[dataset]; ok {
		if mm, ok := m[etaFrac]; ok {
			return mm[policy]
		}
	}
	return nil
}

// RunSweep executes the full evaluation sweep for one model. progress (may
// be nil) receives one line per completed cell.
func RunSweep(p Profile, model diffusion.Model, progress io.Writer) (*Sweep, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	sw := &Sweep{
		Profile: p,
		Model:   model,
		Cells:   map[string]map[float64]map[string]*Cell{},
	}
	for _, spec := range gen.Datasets() {
		g, err := spec.Generate(p.scaleFor(spec.Name))
		if err != nil {
			return nil, err
		}
		sw.Datasets = append(sw.Datasets, spec.Name)
		sw.Cells[spec.Name] = map[float64]map[string]*Cell{}
		// Pre-sample the shared realizations (paper protocol: every
		// algorithm is measured on the same worlds).
		worlds := sampleWorlds(g, model, p.Realizations, p.Seed)
		for _, frac := range p.thresholdsFor(spec.Name) {
			eta := etaFor(g, frac)
			row := map[string]*Cell{}
			sw.Cells[spec.Name][frac] = row
			for _, col := range p.columns(spec.Name) {
				if p.skipCell(col, frac) {
					continue
				}
				cell, err := runCell(p, g, model, col, frac, eta, worlds)
				if err != nil {
					return nil, fmt.Errorf("bench: %s %s η/n=%v %s: %w",
						spec.Name, model, frac, col.name, err)
				}
				row[col.name] = cell
				if progress != nil {
					fmt.Fprintf(progress, "done %-18s %s η/n=%-5v %-8s seeds=%.1f time=%.2fs misses=%d\n",
						spec.Name, model, frac, col.name, mean(cell.Seeds), mean(cell.Seconds), cell.Misses)
				}
			}
		}
	}
	return sw, nil
}

// etaFor converts an η/n fraction to an absolute threshold, clamped to
// [1, n].
func etaFor(g *graph.Graph, frac float64) int64 {
	eta := int64(frac * float64(g.N()))
	if eta < 1 {
		eta = 1
	}
	if eta > int64(g.N()) {
		eta = int64(g.N())
	}
	return eta
}

// sampleWorlds pre-samples the shared realizations.
func sampleWorlds(g *graph.Graph, model diffusion.Model, n int, seed uint64) []*diffusion.Realization {
	worlds := make([]*diffusion.Realization, n)
	base := rng.New(seed ^ uint64(model))
	for i := range worlds {
		worlds[i] = diffusion.SampleRealization(g, model, base.Split())
	}
	return worlds
}

// runCell measures one algorithm at one threshold across all realizations.
func runCell(p Profile, g *graph.Graph, model diffusion.Model, col policySpec, frac float64, eta int64, worlds []*diffusion.Realization) (*Cell, error) {
	cell := &Cell{
		Dataset: g.Name(), Model: model, Policy: col.name,
		EtaFrac: frac, Eta: eta,
	}
	if col.nonAdapt {
		return runATEUCCell(p, g, model, cell, eta, worlds)
	}
	for i, φ := range worlds {
		pol := trim.MustNew(trim.Config{
			Epsilon:         p.Epsilon,
			Batch:           col.batch,
			Truncated:       !col.vanilla,
			MaxSetsPerRound: p.MaxSetsPerRound,
			Workers:         p.Workers,
			ReusePool:       p.reusePool(),
		})
		res, err := adaptive.Run(g, model, eta, pol, φ, rng.New(p.Seed+uint64(i)*7919+uint64(eta)))
		if err != nil {
			return nil, err
		}
		cell.Seeds = append(cell.Seeds, float64(len(res.Seeds)))
		cell.Spreads = append(cell.Spreads, float64(res.Spread))
		cell.Seconds = append(cell.Seconds, res.Duration.Seconds())
		cell.SetsGenerated += pol.Stats.Sets
		pol.Close()
		if i == 0 {
			for _, tr := range res.Rounds {
				cell.TraceMarginals = append(cell.TraceMarginals, tr.Marginal)
			}
		}
	}
	return cell, nil
}

// runATEUCCell selects the non-adaptive set once (selection does not
// depend on the realization) and scores it on every world.
func runATEUCCell(p Profile, g *graph.Graph, model diffusion.Model, cell *Cell, eta int64, worlds []*diffusion.Realization) (*Cell, error) {
	a := &baselines.ATEUC{Epsilon: p.Epsilon, MaxSets: p.MaxSetsPerRound, Workers: p.Workers}
	t0 := time.Now()
	S, err := a.Select(g, model, eta, rng.New(p.Seed^0xA7E0C))
	if err != nil {
		return nil, err
	}
	sel := time.Since(t0).Seconds()
	cell.SetsGenerated = a.Stats.Sets
	for range worlds {
		cell.Seconds = append(cell.Seconds, sel)
		cell.Seeds = append(cell.Seeds, float64(len(S)))
	}
	for i, φ := range worlds {
		spread, reached := adaptive.EvaluateFixedSet(φ, S, eta)
		cell.Spreads = append(cell.Spreads, float64(spread))
		if !reached {
			cell.Misses++
		}
		if i == 0 {
			cell.TraceMarginals = nil // non-adaptive: no per-round trace
		}
	}
	return cell, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
