package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"asti/internal/gen"
	"asti/internal/graph"
)

// testWorkload is a small echo workload on a tiny graph: two seeds a
// round, three rounds a campaign.
func testWorkload(slots int) workload {
	return workload{name: "test", dataset: "synth-nethept", scale: 0.05, policy: "ASTI-2", batch: 2,
		eta: 6, echo: true, slots: slots, pause: time.Millisecond, stepTail: 0.9}
}

func testGraph(t *testing.T, w workload) *graph.Graph {
	t.Helper()
	spec, err := gen.Dataset(w.dataset)
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Generate(w.scale)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// A stalled scrape must make the scrapes due behind it late, and each is
// timed from when it was due, so the stall counts against them.
func TestMonitorTimesFromDueTime(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(300 * time.Millisecond)
		}
		if r.URL.Path == "/metrics" {
			w.Write([]byte("asmserve_pool_bytes 1\n"))
			return
		}
		w.Write([]byte(`{"sessions": []}`))
	}))
	defer srv.Close()
	a := newAPI(srv.URL)
	defer a.close()
	stop := make(chan struct{})
	time.AfterFunc(700*time.Millisecond, func() { close(stop) })
	recs, attempted, failed, _ := monitor(a, 0, time.Now(), stop)
	if failed != 0 || attempted != len(recs) || len(recs) < 5 {
		t.Fatalf("monitor made %d scrapes, %d attempted, %d failed", len(recs), attempted, failed)
	}
	late := 0
	for _, r := range recs[1:3] {
		lateness := r.sent - r.due
		if lateness > 50*time.Millisecond {
			late++
		}
		if r.ms() < msOf(lateness) {
			t.Errorf("scrape due at %v: latency %vms is below its lateness %v", r.due, r.ms(), lateness)
		}
	}
	if late != 2 {
		t.Errorf("%d of the two scrapes due during the 300ms stall were late; recs %+v", late, recs[:3])
	}
	if l := recs[1].ms(); l < 150 {
		t.Errorf("scrape due at 100ms, sent after the stall ended near 300ms, timed %vms", l)
	}
}

func TestCampaignListReproduces(t *testing.T) {
	w, _ := findWorkload("cascade")
	g := testGraph(t, w)
	a, b, other := campaignList(w, g, 7, 4), campaignList(w, g, 7, 4), campaignList(w, g, 8, 4)
	for i := range a {
		if a[i].seed != 7+uint64(i) || b[i].seed != a[i].seed || other[i].seed != 8+uint64(i) {
			t.Fatalf("campaign %d session seeds %d, %d, %d", i, a[i].seed, b[i].seed, other[i].seed)
		}
		// Worlds are fixed by the workload: the same spread in every list.
		for _, l := range [][]campaign{b, other} {
			if !slices.Equal(a[i].world.Spread([]int32{0, 1, 2}, nil), l[i].world.Spread([]int32{0, 1, 2}, nil)) {
				t.Fatalf("campaign %d world differs between lists", i)
			}
		}
	}
}

// The driver's order of operations, and so which campaign each slot
// runs, depends only on the list: two runs issue the same sequence.
func TestDriverOrderReproduces(t *testing.T) {
	w := testWorkload(3)
	g := testGraph(t, w)
	var seqs [][]string
	for i := 0; i < 2; i++ {
		srv := newFake(t, int64(g.N()), "")
		res := run(context.Background(), w, g, campaignList(w, g, 3, 5), srv.URL, 0, 10*time.Second, nil)
		if !res.correct() || res.failed != 0 {
			t.Fatalf("run %d: %v", i, res.violations)
		}
		var seq []string
		for _, op := range res.ops {
			seq = append(seq, fmt.Sprintf("%s %d %d", op.kind, op.campaign, op.round))
		}
		seqs = append(seqs, seq)
		if len(res.campaigns) != 5 {
			t.Fatalf("run %d finished %d campaigns, want the whole list of 5", i, len(res.campaigns))
		}
	}
	if !slices.Equal(seqs[0], seqs[1]) {
		t.Fatalf("operation order differs:\n%v\n%v", seqs[0], seqs[1])
	}
	// Three open campaigns interleave: campaign 1 starts before campaign 0
	// gets its first observe.
	if !slices.Contains(seqs[0][:4], "next 1 1") {
		t.Errorf("slots did not interleave: %v", seqs[0][:6])
	}
}

// Every wrong answer the fake can give must be counted as a failed
// operation and fail the run.
func TestWrongAnswersFailTheRun(t *testing.T) {
	w := testWorkload(1)
	g := testGraph(t, w)
	for _, fault := range []string{"", "active", "oversize", "activated"} {
		srv := newFake(t, int64(g.N()), fault)
		res := run(context.Background(), w, g, campaignList(w, g, 1, 5), srv.URL, 0, 10*time.Second, nil)
		if fault == "" {
			if !res.correct() || res.failed != 0 {
				t.Fatalf("fault-free run failed: %v", res.violations)
			}
			continue
		}
		r := e2eReport(w, 1, res, []float64{1})
		if r.ok() || r.Failed == 0 {
			t.Errorf("fault %q: run passed with %d failed operations", fault, r.Failed)
		}
		if len(r.Violations) == 0 || !strings.Contains(r.Violations[0], "campaign 0 round 2") {
			t.Errorf("fault %q: violations %v", fault, r.Violations)
		}
	}
}

// Proposals over HTTP that differ from the in-process replay of the same
// campaign fail the traced run.
func TestReplayMismatchFailsTheRun(t *testing.T) {
	w := testWorkload(1)
	g := testGraph(t, w)
	list := campaignList(w, g, 1, 5)
	srv := newFake(t, int64(g.N()), "other-seed")
	res := run(context.Background(), w, g, list, srv.URL, 0, 10*time.Second, nil)
	if !res.correct() {
		t.Fatalf("the fake's proposals should pass the response checks: %v", res.violations)
	}
	b, err := passB(w, list[0], g.N(), 3, t.TempDir(), nil, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	r := newReport(w, 1, true)
	checkReplay(r, b.proposals, res)
	if r.ok() || r.Failed != 1 {
		t.Fatalf("replay mismatch not counted: ok=%v failed=%d", r.ok(), r.Failed)
	}
	r = newReport(w, 1, true)
	checkReplay(r, res.campaigns[0].proposals, res)
	if !r.ok() {
		t.Fatalf("identical proposals counted as a mismatch: %v", r.Violations)
	}
}
