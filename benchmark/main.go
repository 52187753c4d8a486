// Command benchmark is the repository's benchmark of record: it builds
// cmd/asmserve, runs each workload of BENCHMARK.json against its own
// server over HTTP, checks every response, and prints one line per
// metric followed by a JSON summary line.
//
//	bash benchmark/run.sh --workload cascade --seed 1 --seconds 25 --trace 0
//	(cd benchmark && go run . -workload all -seed 1)
//	(cd benchmark && go run . -compare DIR_A DIR_B)
//
// README.md describes the workloads, the metrics and how to read them.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"asti/internal/gen"
	"asti/internal/graph"
)

// setupStarts is how many times a run spawns its server to measure
// setup_s, reporting the median.
const setupStarts = 15

// The warm-up campaign: its session seed, far from any run's list, and
// how many rounds it runs.
const (
	warmUpSeed   = 1 << 62
	warmUpRounds = 3
)

// passBRounds caps the in-process replay of a traced run.
const passBRounds = 20

// env is where a run builds, spawns and writes.
type env struct {
	bin     string // asmserve binary
	scratch string // journals and probes, removed at exit
	out     string // per-run reports and traces
	smoke   bool   // tiny graphs and campaigns, set by the smoke test
}

// zeroOne is a flag that takes 0 or 1 as its value (so "--trace 0" is
// the flag and its value, not a bool flag followed by an argument).
type zeroOne bool

func (z *zeroOne) String() string { return strconv.FormatBool(bool(*z)) }
func (z *zeroOne) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*z = zeroOne(v)
	return err
}

func main() { os.Exit(benchmarkMain()) }

// benchmarkMain runs the command and returns its exit code: 0 when every
// check passed and no operation failed, 1 when one did, 2 when the
// benchmark itself could not run.
func benchmarkMain() int {
	runtime.GOMAXPROCS(2)
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Uint64("seed", 1, "run seed: campaign i of the list gets session seed seed+i")
		seconds = flag.Int("seconds", 25, "length of each measured run")
		out     = flag.String("out", "", "directory for per-run reports and trace files (default .bench_build/out in the repository)")
		compare = flag.Bool("compare", false, "compare the reports in two directories: -compare DIR_A DIR_B")
		trace   zeroOne
	)
	flag.Var(&trace, "trace", "1 for a traced run that reports the per-layer metrics")
	flag.Parse()

	root, err := repoRoot()
	if err != nil {
		return fail(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			return fail(errors.New("-compare takes two directories"))
		}
		if err := compareDirs(os.Stdout, root, flag.Arg(0), flag.Arg(1)); err != nil {
			return fail(err)
		}
		return 0
	}
	if flag.NArg() != 0 {
		return fail(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	todo := workloads
	if *name != "all" {
		w, err := findWorkload(*name)
		if err != nil {
			return fail(err)
		}
		todo = []workload{w}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	build := filepath.Join(root, ".bench_build")
	e := env{bin: filepath.Join(build, "asmserve"), out: *out}
	if e.out == "" {
		e.out = filepath.Join(build, "out")
	}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return fail(err)
	}
	if e.scratch, err = os.MkdirTemp(build, "scratch-"); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(e.scratch)
	if err := buildServer(ctx, root, e.bin); err != nil {
		return fail(err)
	}
	code := 0
	for _, w := range todo {
		r, err := runWorkload(ctx, e, w, *seed, time.Duration(*seconds)*time.Second, bool(trace))
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.name, err))
		}
		r.print(os.Stdout)
		fmt.Println(r.summaryLine())
		if !r.ok() {
			code = 1
		}
	}
	return code
}

// repoRoot finds the repository: the working directory when run from the
// root of a checkout, its parent when run from benchmark/.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "asmserve", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("cmd/asmserve not found: run from the root of the repository or from benchmark/")
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	return 2
}

// runWorkload makes one run of w: untraced, it reports the end-to-end
// metrics; traced, the per-layer ones. Errors are failures of the
// benchmark itself; failures of the server are counted in the report.
func runWorkload(ctx context.Context, e env, w workload, seed uint64, length time.Duration, trace bool) (*report, error) {
	if e.smoke {
		w = w.smokeSized()
	}
	spec, err := gen.Dataset(w.dataset)
	if err != nil {
		return nil, err
	}
	g, err := spec.Generate(w.scale)
	if err != nil {
		return nil, err
	}
	list := campaignList(w, g, seed, listLen)
	var r *report
	if trace {
		r, err = tracedRun(ctx, e, w, g, list, seed, length)
	} else {
		r, err = untracedRun(ctx, e, w, g, list, seed, length)
	}
	if err != nil {
		return nil, err
	}
	suffix := ""
	if trace {
		suffix = "-trace"
	}
	return r, writeJSON(filepath.Join(e.out, fmt.Sprintf("%s-seed%d%s.json", w.name, seed, suffix)), r)
}

// setupServer starts a server and makes the setup probe: one create and
// delete on the workload's dataset, which builds the graph.
func setupServer(ctx context.Context, e env, w workload) (*server, error) {
	s, err := startServer(ctx, e.bin, e.scratch, w)
	if err != nil {
		return nil, err
	}
	a := newAPI(s.base)
	defer a.close()
	var st statusResp
	if err := a.do("POST", "/v1/sessions", w.createBody(0), 201, &st); err != nil {
		s.stop()
		return nil, fmt.Errorf("setup probe: %w", err)
	}
	if err := a.do("DELETE", "/v1/sessions/"+st.ID, nil, 200, nil); err != nil {
		s.stop()
		return nil, fmt.Errorf("setup probe: %w", err)
	}
	return s, nil
}

// warmUp runs a few rounds of one campaign outside the measurement, so
// that the first measured campaigns do not pay for the server's cold code
// paths and heap: users of a long-running server never do.
func warmUp(s *server, w workload) error {
	a := newAPI(s.base)
	defer a.close()
	var st statusResp
	if err := a.do("POST", "/v1/sessions", w.createBody(warmUpSeed), 201, &st); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	for round := 0; round < warmUpRounds; round++ {
		var b batchResp
		var p progressResp
		if err := a.do("POST", "/v1/sessions/"+st.ID+"/next", nil, 200, &b); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if err := a.do("POST", "/v1/sessions/"+st.ID+"/observe", map[string][]int32{"activated": b.Seeds}, 200, &p); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if p.Done {
			break
		}
	}
	if err := a.do("DELETE", "/v1/sessions/"+st.ID, nil, 200, nil); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// warmServer is a set-up server that has also run the warm-up.
func warmServer(ctx context.Context, e env, w workload) (*server, error) {
	s, err := setupServer(ctx, e, w)
	if err != nil {
		return nil, err
	}
	if err := warmUp(s, w); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func untracedRun(ctx context.Context, e env, w workload, g *graph.Graph, list []campaign, seed uint64, length time.Duration) (*report, error) {
	var setupS []float64
	var srv *server
	for i := 0; i < setupStarts; i++ {
		t := time.Now()
		s, err := setupServer(ctx, e, w)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t).Seconds())
		if i < setupStarts-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()
	if err := warmUp(srv, w); err != nil {
		return nil, err
	}
	return e2eReport(w, seed, run(ctx, w, g, list, srv.base, srv.pid(), length, nil), setupS), nil
}

func tracedRun(ctx context.Context, e env, w workload, g *graph.Graph, list []campaign, seed uint64, length time.Duration) (*report, error) {
	half := length / 2
	srv, err := warmServer(ctx, e, w)
	if err != nil {
		return nil, err
	}
	base := run(ctx, w, g, list, srv.base, srv.pid(), half, nil)
	srv.stop()

	if srv, err = warmServer(ctx, e, w); err != nil {
		return nil, err
	}
	tr := &tracer{}
	a := run(ctx, w, g, list, srv.base, srv.pid(), half, tr)
	peakRSS, err := statusMB(srv.pid(), "VmHWM")
	srv.stop()
	if err != nil {
		return nil, err
	}

	in := layerInputs{base: base, passA: a, tr: tr, peakRSSMB: peakRSS}
	bt := &tracer{}
	var want [][]int32
	if len(a.campaigns) > 0 {
		want = a.campaigns[0].proposals
	}
	rounds := min(passBRounds, len(want))
	if in.passB, err = passB(w, list[0], g.N(), rounds, e.scratch, bt, time.Now()); err != nil {
		return nil, err
	}
	sets, frames := 20000, 500
	if e.smoke {
		sets, frames = 2000, 20
	}
	eta := w.eta
	if eta == 0 {
		eta = int64(w.etaFrac * float64(g.N()))
	}
	in.rr = probeRRSet(g, eta, w.batch, sets, 3, seed)
	obsSize := w.batch
	if !w.echo {
		obsSize = meanDelta(a)
	}
	if in.appendMs, err = probeJournal(e.scratch, frames, w.batch, obsSize); err != nil {
		return nil, err
	}
	if in.genS, err = probeGen(w, 3); err != nil {
		return nil, err
	}
	r := layerReport(w, seed, in)
	checkReplay(r, in.passB.proposals, base, a)
	trace := struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		PassA    []span `json:"pass_a"`
		PassB    []span `json:"pass_b"`
	}{w.name, seed, tr.spans, bt.spans}
	return r, writeJSON(filepath.Join(e.out, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed)), trace)
}

// checkReplay fails r unless campaign 0 of every run received over HTTP
// exactly the proposals the in-process replay made.
func checkReplay(r *report, replay [][]int32, runs ...*runResult) {
	for _, res := range runs {
		if len(res.campaigns) == 0 || !sameProposals(res.campaigns[0].proposals, replay) {
			r.Failed++
			r.fail("campaign 0: proposals over HTTP differ from the in-process replay's")
			return
		}
	}
}

// meanDelta is the mean number of nodes an observation activated in a
// run, at least 1.
func meanDelta(res *runResult) int {
	var nodes, obs int
	for _, c := range res.campaigns {
		if c.finished {
			nodes += int(c.activated)
			obs += len(c.proposals)
		}
	}
	if obs == 0 || nodes < obs {
		return 1
	}
	return nodes / obs
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
