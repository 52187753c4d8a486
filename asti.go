// Package asti is a Go implementation of "Efficient Approximation
// Algorithms for Adaptive Seed Minimization" (Tang et al., SIGMOD 2019).
//
// Adaptive seed minimization (ASM) asks: given a probabilistic social
// network and a threshold η, how few seed users must we incentivize —
// choosing them one batch at a time and observing each batch's actual
// influence before choosing the next — so that at least η users end up
// influenced?
//
// The package exposes the paper's ASTI framework with its TRIM
// (one-seed-per-round) and TRIM-B (batched) policies, built on multi-root
// reverse-reachable (mRR) set sampling, plus the evaluation's baselines:
// the non-adaptive seed minimizer ATEUC and the untruncated adaptive
// greedy AdaptIM.
//
// # Quick start
//
//	g, _ := asti.GenerateDataset("synth-nethept", 1.0)
//	policy, _ := asti.NewASTI(0.5)
//	world := asti.SampleRealization(g, asti.IC, 42)
//	res, _ := asti.RunAdaptive(g, asti.IC, 500, policy, world, 43)
//	fmt.Println(len(res.Seeds), "seeds influenced", res.Spread, "users")
//
// # The sampling engine and the Workers knob
//
// All RR/mRR sampling — TRIM's adaptive rounds, the OPIM-C and IMM
// influence maximizers, and the ATEUC baseline alike — runs through one
// shared concurrent engine (internal/rrset.Engine): per-worker scratch, a
// pluggable root strategy (single-root RR; randomized/floor/ceil-rounded
// mRR), and reusable set collections that reset in O(touched) between
// adaptive rounds. Each sampled set
// seeds its own generator from the batch seed, so results are
// byte-identical for every worker count: parallelism is purely a speed
// knob.
//
// The knob is plumbed through the facade as WithWorkers:
//
//	policy, _ := asti.NewASTI(0.5, asti.WithWorkers(8))
//	res, _ := asti.MaximizeInfluence(g, asti.IC, 50, 0.1, 7, asti.WithWorkers(4))
//
// The default (0) uses GOMAXPROCS; WithWorkers(1) forces the sequential
// path. Both select the same seeds.
//
// The subpackages under internal/ hold the implementation: graph (CSR
// substrate), diffusion (IC/LT models and realizations), rrset (the mRR
// sampling engine), trim (the core algorithms), adaptive (the ASTI loop),
// baselines, and bench (the experiment harness behind cmd/experiments).
package asti

import (
	"fmt"
	"io"

	"asti/internal/adaptive"
	"asti/internal/baselines"
	"asti/internal/diffusion"
	"asti/internal/estimator"
	"asti/internal/gen"
	"asti/internal/graph"
	"asti/internal/im"
	"asti/internal/rng"
	"asti/internal/rrset"
	"asti/internal/topics"
	"asti/internal/trim"
)

// Graph is a probabilistic social network in CSR form. Build one with
// NewGraphBuilder, LoadGraph, GeneratePowerLaw, or GenerateDataset.
type Graph = graph.Graph

// GraphBuilder accumulates edges for a Graph.
type GraphBuilder = graph.Builder

// Model selects the diffusion model.
type Model = diffusion.Model

// The two diffusion models of the paper's evaluation.
const (
	// IC is the independent cascade model.
	IC = diffusion.IC
	// LT is the linear threshold model.
	LT = diffusion.LT
)

// Realization is one fully materialized influence-propagation world; the
// adaptive loop observes reachability in it.
type Realization = diffusion.Realization

// Policy selects seed batches against residual-graph states; see NewASTI,
// NewASTIBatch, NewAdaptIM.
type Policy = adaptive.Policy

// Result summarizes one adaptive run: seed sequence, per-round trace,
// final spread and selection time.
type Result = adaptive.Result

// PowerLawConfig parameterizes GeneratePowerLaw.
type PowerLawConfig = gen.PowerLawConfig

// DatasetSpec describes a registered synthetic scale-model dataset.
type DatasetSpec = gen.DatasetSpec

// NewGraphBuilder returns a builder for a graph with n nodes.
func NewGraphBuilder(n int32) *GraphBuilder { return graph.NewBuilder(n) }

// LoadGraph reads a graph from an edge-list file (see cmd/datagen for the
// format).
func LoadGraph(path string) (*Graph, error) { return graph.LoadFile(path) }

// SaveGraph writes a graph to an edge-list file.
func SaveGraph(path string, g *Graph) error { return graph.SaveFile(path, g) }

// ReadGraph parses an edge list from r.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// GeneratePowerLaw synthesizes a power-law social network with
// weighted-cascade edge probabilities.
func GeneratePowerLaw(cfg PowerLawConfig) (*Graph, error) { return gen.PowerLaw(cfg) }

// Datasets lists the registered synthetic scale models of the paper's
// evaluation datasets.
func Datasets() []DatasetSpec { return gen.Datasets() }

// GenerateDataset materializes a registered dataset at the given scale
// ∈ (0,1].
func GenerateDataset(name string, scale float64) (*Graph, error) {
	spec, err := gen.Dataset(name)
	if err != nil {
		return nil, err
	}
	return spec.Generate(scale)
}

// Option configures the sampling machinery behind a policy or solver.
type Option func(*options)

type options struct {
	workers    int
	reuse      bool
	samplerVer rrset.Version
}

// WithWorkers sets the sampling engine's worker count: 0 (the default)
// uses GOMAXPROCS, 1 forces the sequential path, n > 1 uses n workers.
// Selections are byte-identical for every setting.
func WithWorkers(n int) Option {
	return func(o *options) { o.workers = n }
}

// WithPoolReuse toggles cross-round sampling-pool reuse for the adaptive
// policies (default on): instead of regenerating the whole mRR pool each
// round, the policy prunes the sets invalidated by the activation delta,
// regenerates exactly those, and tops the pool up — so a round's sampling
// cost scales with how much the residual graph changed, not with θ_max.
// Reuse on or off only changes speed: the selected seeds are identical.
func WithPoolReuse(on bool) Option {
	return func(o *options) { o.reuse = on }
}

// WithSamplerVersion pins the sampler's stream-consumption contract
// (1 = the original per-edge-coin stream, 2 = geometric edge-coin
// skipping on uniform-probability IC blocks; 0 = the current default).
// Selections are identically distributed under every version — the knob
// exists for byte-exact reproduction of runs recorded under an older
// contract (e.g. replaying a serve-layer journal written by v1).
func WithSamplerVersion(v int) Option {
	return func(o *options) { o.samplerVer = rrset.Version(v) }
}

func applyOptions(opts []Option) options {
	o := options{reuse: true}
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// NewASTI returns the paper's TRIM policy: one seed per round maximizing
// the expected truncated marginal spread, with a (1−1/e)(1−ε)
// per-round guarantee and the (lnη+1)²/((1−1/e)(1−ε)) overall ratio.
func NewASTI(epsilon float64, opts ...Option) (Policy, error) {
	o := applyOptions(opts)
	return trim.New(trim.Config{Epsilon: epsilon, Batch: 1, Truncated: true, Workers: o.workers,
		ReusePool: o.reuse, SamplerVersion: o.samplerVer})
}

// NewASTIBatch returns the TRIM-B policy selecting b seeds per round
// (guarantee scaled by ρ_b = 1−(1−1/b)^b).
func NewASTIBatch(epsilon float64, b int, opts ...Option) (Policy, error) {
	o := applyOptions(opts)
	return trim.New(trim.Config{Epsilon: epsilon, Batch: b, Truncated: true, Workers: o.workers,
		ReusePool: o.reuse, SamplerVersion: o.samplerVer})
}

// NewAdaptIM returns the adaptive influence-maximization baseline: greedy
// on the untruncated marginal spread (no ASM approximation guarantee; the
// paper's §6 comparison).
func NewAdaptIM(epsilon float64, opts ...Option) (Policy, error) {
	o := applyOptions(opts)
	return trim.New(trim.Config{Epsilon: epsilon, Batch: 1, Truncated: false, Workers: o.workers,
		ReusePool: o.reuse, SamplerVersion: o.samplerVer})
}

// SampleRealization draws one influence world for g under the model.
func SampleRealization(g *Graph, model Model, seed uint64) *Realization {
	return diffusion.SampleRealization(g, model, rng.New(seed))
}

// RunAdaptive executes an adaptive policy against one realization until
// at least eta nodes are influenced. The returned Result always satisfies
// Spread ≥ eta — the structural guarantee of adaptivity.
func RunAdaptive(g *Graph, model Model, eta int64, policy Policy, world *Realization, seed uint64) (*Result, error) {
	return adaptive.Run(g, model, eta, policy, world, rng.New(seed))
}

// SelectNonAdaptive runs the ATEUC baseline: it chooses a single seed set
// S with E[I(S)] ≥ eta without observing any propagation. Unlike adaptive
// runs, S may miss eta on individual realizations; score it with
// EvaluateSeedSet.
func SelectNonAdaptive(g *Graph, model Model, eta int64, epsilon float64, seed uint64, opts ...Option) ([]int32, error) {
	o := applyOptions(opts)
	a := &baselines.ATEUC{Epsilon: epsilon, Workers: o.workers}
	return a.Select(g, model, eta, rng.New(seed))
}

// EvaluateSeedSet measures a fixed seed set on one realization: its
// realized spread and whether it reaches eta.
func EvaluateSeedSet(world *Realization, seeds []int32, eta int64) (spread int64, reached bool) {
	return adaptive.EvaluateFixedSet(world, seeds, eta)
}

// ExpectedSpread Monte-Carlo-estimates E[I(S)] with the given number of
// simulations.
func ExpectedSpread(g *Graph, model Model, seeds []int32, samples int, seed uint64) float64 {
	return estimator.MCSpread(g, model, seeds, nil, samples, rng.New(seed))
}

// ExpectedTruncatedSpread Monte-Carlo-estimates E[min{I(S), eta}] — the
// objective ASM actually optimizes.
func ExpectedTruncatedSpread(g *Graph, model Model, seeds []int32, eta int64, samples int, seed uint64) float64 {
	return estimator.MCTruncated(g, model, seeds, nil, eta, samples, rng.New(seed))
}

// ValidateLT checks the linear-threshold weight constraint (incoming
// probabilities per node sum to at most 1) and returns a descriptive
// error on violation.
func ValidateLT(g *Graph) error { return diffusion.ValidateLT(g) }

// Summary aggregates a policy's performance across sampled worlds
// (paper §6 protocol: mean over realizations).
type Summary = adaptive.Summary

// PolicyFactory builds a fresh policy per evaluated world.
type PolicyFactory = adaptive.PolicyFactory

// EvaluatePolicy runs a fresh policy from factory on `worlds` sampled
// realizations and aggregates seeds, spread and selection time. Equal
// seeds see equal worlds, enabling paired policy comparisons.
func EvaluatePolicy(g *Graph, model Model, eta int64, factory PolicyFactory, worlds int, seed uint64) (*Summary, error) {
	return adaptive.Evaluate(g, model, eta, factory, worlds, seed)
}

// EvaluateFixedSeedSet scores a non-adaptively chosen seed set across
// sampled worlds, returning the summary and how many worlds missed eta.
func EvaluateFixedSeedSet(g *Graph, model Model, eta int64, seeds []int32, worlds int, seed uint64) (*Summary, int) {
	return adaptive.EvaluateFixed(g, model, eta, seeds, 0, worlds, seed)
}

// TopicModel carries per-topic edge probabilities for topic-aware
// campaigns (the paper's §2 extension): Blend produces the effective
// influence graph for an item's topic mixture, which every algorithm in
// this package consumes unchanged.
type TopicModel = topics.Model

// NewTopicModel synthesizes a k-topic model around g's probabilities;
// the uniform mixture reproduces g exactly.
func NewTopicModel(g *Graph, k int, seed uint64) (*TopicModel, error) {
	return topics.NewRandom(g, k, seed)
}

// UniformMixture is the uniform topic mixture of size k.
func UniformMixture(k int) []float64 { return topics.Uniform(k) }

// SingleTopicMixture concentrates the mixture on topic z.
func SingleTopicMixture(k, z int) []float64 { return topics.Single(k, z) }

// IMResult is a classical influence-maximization result (seed set with
// certified quality); see MaximizeInfluence.
type IMResult = im.Result

// MaximizeInfluence solves the dual problem — classical non-adaptive
// influence maximization — with the OPIM-C algorithm TRIM descends from:
// it selects k seeds whose expected spread is within (1−1/e)(1−ε) of the
// optimal k-set's, with a certified spread lower bound.
func MaximizeInfluence(g *Graph, model Model, k int, epsilon float64, seed uint64, opts ...Option) (*IMResult, error) {
	o := applyOptions(opts)
	return im.Select(g, model, k, im.Options{Epsilon: epsilon, Workers: o.workers}, rng.New(seed))
}

// PolicyName formats the conventional name for a batch size (helper for
// report code).
func PolicyName(batch int) string {
	if batch <= 1 {
		return "ASTI"
	}
	return fmt.Sprintf("ASTI-%d", batch)
}
