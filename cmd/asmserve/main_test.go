package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"asti/internal/fault"
	"asti/internal/gen"
	"asti/internal/graph"
	"asti/internal/serve"
)

// testServer starts an httptest server over a small synthetic dataset.
func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	reg := serve.NewRegistry()
	err := reg.RegisterLoader("tiny", func() (*graph.Graph, error) {
		spec, err := gen.Dataset("synth-nethept")
		if err != nil {
			return nil, err
		}
		return spec.Generate(0.05)
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr := serve.NewManager(reg, 16)
	ts := httptest.NewServer(newHandler(mgr, 0))
	t.Cleanup(func() {
		ts.Close()
		mgr.CloseAll()
	})
	return ts
}

// call makes one JSON request and decodes the response into out.
func call(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// TestRoundTrip drives one session through the full HTTP lifecycle.
func TestRoundTrip(t *testing.T) {
	ts := testServer(t)

	var health healthResponse
	if code := call(t, "GET", ts.URL+"/healthz", nil, &health); code != 200 || !health.OK {
		t.Fatalf("healthz: code %d body %+v", code, health)
	}
	if health.Journal || health.RecoveredSessions != 0 || health.Sessions != 0 {
		t.Fatalf("in-memory healthz %+v", health)
	}
	var datasets map[string][]string
	if code := call(t, "GET", ts.URL+"/v1/datasets", nil, &datasets); code != 200 {
		t.Fatalf("datasets: code %d", code)
	}
	if got := datasets["datasets"]; len(got) != 1 || got[0] != "tiny" {
		t.Fatalf("datasets = %v", got)
	}

	var st statusResponse
	code := call(t, "POST", ts.URL+"/v1/sessions",
		createRequest{Dataset: "tiny", EtaFrac: 0.05, Seed: 7}, &st)
	if code != http.StatusCreated {
		t.Fatalf("create: code %d", code)
	}
	if st.ID == "" || st.Phase != "propose" || st.Eta < 1 {
		t.Fatalf("create status %+v", st)
	}
	base := ts.URL + "/v1/sessions/" + st.ID

	// Observe before next → 409.
	var errBody errorResponse
	if code := call(t, "POST", base+"/observe", observeRequest{}, &errBody); code != http.StatusConflict {
		t.Errorf("observe-before-next: code %d (%s), want 409", code, errBody.Error)
	}

	// Drive to completion; observations report only the seeds themselves
	// (a world where nobody relays the message), so the loop needs η seeds.
	var rounds int
	for {
		var batch batchResponse
		if code := call(t, "POST", base+"/next", nil, &batch); code != 200 {
			t.Fatalf("next (round %d): code %d", rounds+1, code)
		}
		if len(batch.Seeds) == 0 {
			t.Fatal("empty batch")
		}
		var prog progressResponse
		if code := call(t, "POST", base+"/observe", observeRequest{Activated: batch.Seeds}, &prog); code != 200 {
			t.Fatalf("observe: code %d", code)
		}
		rounds++
		if prog.Done {
			break
		}
		if rounds > int(st.Eta)+1 {
			t.Fatalf("no convergence after %d rounds", rounds)
		}
	}

	// Next after done → 409; status shows done; list has the session.
	if code := call(t, "POST", base+"/next", nil, &errBody); code != http.StatusConflict {
		t.Errorf("next-after-done: code %d, want 409", code)
	}
	if code := call(t, "GET", base, nil, &st); code != 200 || !st.Done || st.Phase != "done" {
		t.Errorf("status after done: code %d %+v", code, st)
	}
	var list map[string][]statusResponse
	if code := call(t, "GET", ts.URL+"/v1/sessions", nil, &list); code != 200 || len(list["sessions"]) != 1 {
		t.Errorf("list: code %d %v", code, list)
	}

	// Close; step after close → 410; status → 404.
	if code := call(t, "DELETE", base, nil, nil); code != 200 {
		t.Errorf("close: code %d", code)
	}
	if code := call(t, "GET", base, nil, &errBody); code != http.StatusNotFound {
		t.Errorf("status after close: code %d, want 404", code)
	}
	if code := call(t, "DELETE", base, nil, &errBody); code != http.StatusNotFound {
		t.Errorf("double close: code %d, want 404", code)
	}
}

// TestParallelSessionsDeterministic is the acceptance criterion: two
// sessions created over HTTP with the same dataset and seed, stepped
// concurrently, propose identical seed batches.
func TestParallelSessionsDeterministic(t *testing.T) {
	ts := testServer(t)

	const sessions = 2
	const steps = 3
	seqs := make([][][]int32, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var st statusResponse
			if code := call(t, "POST", ts.URL+"/v1/sessions",
				createRequest{Dataset: "tiny", EtaFrac: 0.3, Seed: 42}, &st); code != http.StatusCreated {
				t.Errorf("create: code %d", code)
				return
			}
			base := ts.URL + "/v1/sessions/" + st.ID
			for s := 0; s < steps; s++ {
				var batch batchResponse
				if code := call(t, "POST", base+"/next", nil, &batch); code != 200 {
					t.Errorf("next: code %d", code)
					return
				}
				seqs[i] = append(seqs[i], batch.Seeds)
				var prog progressResponse
				// Identical observations: only the seeds activate.
				if code := call(t, "POST", base+"/observe", observeRequest{Activated: batch.Seeds}, &prog); code != 200 {
					t.Errorf("observe: code %d", code)
					return
				}
				if prog.Done {
					break
				}
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < sessions; i++ {
		if fmt.Sprint(seqs[i]) != fmt.Sprint(seqs[0]) {
			t.Errorf("session %d proposed %v, session 0 proposed %v", i, seqs[i], seqs[0])
		}
	}
}

func TestCreateErrors(t *testing.T) {
	ts := testServer(t)
	var errBody errorResponse
	if code := call(t, "POST", ts.URL+"/v1/sessions",
		createRequest{Dataset: "nope"}, &errBody); code != http.StatusNotFound {
		t.Errorf("unknown dataset: code %d, want 404", code)
	}
	if code := call(t, "POST", ts.URL+"/v1/sessions",
		createRequest{Dataset: "tiny", Model: "XYZ"}, &errBody); code != http.StatusBadRequest {
		t.Errorf("bad model: code %d, want 400", code)
	}
	if code := call(t, "POST", ts.URL+"/v1/sessions",
		createRequest{Dataset: "tiny", Policy: "nope"}, &errBody); code != http.StatusBadRequest {
		t.Errorf("bad policy: code %d, want 400", code)
	}
	if code := call(t, "POST", ts.URL+"/v1/sessions/s99/next", nil, &errBody); code != http.StatusNotFound {
		t.Errorf("unknown session: code %d, want 404", code)
	}
}

// TestRestartRecovery is the HTTP-level kill-and-restart test: a
// journaled session driven over one server instance, whose process
// "dies" (the manager is abandoned un-closed, as SIGKILL leaves it),
// resumes on a second instance over the same journal directory with
// identical status and keeps proposing.
func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	newInstance := func(recover bool) (*httptest.Server, *serve.Manager, int) {
		reg := serve.NewRegistry()
		err := reg.RegisterLoader("tiny", func() (*graph.Graph, error) {
			spec, err := gen.Dataset("synth-nethept")
			if err != nil {
				return nil, err
			}
			return spec.Generate(0.05)
		})
		if err != nil {
			t.Fatal(err)
		}
		mgr := serve.NewManager(reg, 16, serve.WithJournalDir(dir))
		recovered := 0
		if recover {
			rep, err := mgr.Recover("")
			if err != nil {
				t.Fatal(err)
			}
			recovered = rep.Recovered
		}
		ts := httptest.NewServer(newHandler(mgr, recovered))
		t.Cleanup(ts.Close)
		return ts, mgr, recovered
	}

	// First life: create a session and run two rounds.
	ts1, _, _ := newInstance(false)
	var st statusResponse
	if code := call(t, "POST", ts1.URL+"/v1/sessions",
		createRequest{Dataset: "tiny", EtaFrac: 0.3, Seed: 11, Workers: 1}, &st); code != http.StatusCreated {
		t.Fatalf("create: code %d", code)
	}
	if !st.Durable {
		t.Fatalf("journaled session not durable: %+v", st)
	}
	base1 := ts1.URL + "/v1/sessions/" + st.ID
	for r := 0; r < 2; r++ {
		var batch batchResponse
		if code := call(t, "POST", base1+"/next", nil, &batch); code != 200 {
			t.Fatalf("next: code %d", code)
		}
		var prog progressResponse
		if code := call(t, "POST", base1+"/observe", observeRequest{Activated: batch.Seeds}, &prog); code != 200 {
			t.Fatalf("observe: code %d", code)
		}
		if prog.Done {
			t.Skip("campaign finished before the crash point")
		}
	}
	var before statusResponse
	if code := call(t, "GET", base1, nil, &before); code != 200 {
		t.Fatalf("status: code %d", code)
	}
	ts1.Close() // the "crash": no DELETE, no CloseAll

	// Second life: recover and compare.
	ts2, _, recovered := newInstance(true)
	if recovered != 1 {
		t.Fatalf("recovered %d sessions, want 1", recovered)
	}
	var health healthResponse
	if code := call(t, "GET", ts2.URL+"/healthz", nil, &health); code != 200 {
		t.Fatalf("healthz: code %d", code)
	}
	if !health.Journal || health.RecoveredSessions != 1 || health.Sessions != 1 {
		t.Fatalf("healthz after recovery %+v", health)
	}
	var after statusResponse
	if code := call(t, "GET", ts2.URL+"/v1/sessions/"+before.ID, nil, &after); code != 200 {
		t.Fatalf("status after restart: code %d", code)
	}
	// Identical status up to SelectSeconds and IdleSeconds (replay
	// re-runs selection and resets the idle clock, so the timings differ;
	// everything else the client observes must not — pool_bytes included,
	// since the replayed pool is byte-identical to the original).
	before.SelectSeconds, after.SelectSeconds = 0, 0
	before.IdleSeconds, after.IdleSeconds = 0, 0
	if fmt.Sprintf("%+v", before) != fmt.Sprintf("%+v", after) {
		t.Errorf("status diverged across restart:\n before %+v\n after  %+v", before, after)
	}
	// The session keeps working.
	var batch batchResponse
	if code := call(t, "POST", ts2.URL+"/v1/sessions/"+before.ID+"/next", nil, &batch); code != 200 {
		t.Fatalf("next after restart: code %d", code)
	}
	if len(batch.Seeds) == 0 || batch.Round != before.Round+1 {
		t.Errorf("post-restart batch %+v", batch)
	}
}

// TestDatasetLoadFailure maps loader errors (a server-side problem) to
// 500, not to the 400 class reserved for caller mistakes.
func TestDatasetLoadFailure(t *testing.T) {
	reg := serve.NewRegistry()
	if err := reg.RegisterLoader("bad", func() (*graph.Graph, error) {
		return nil, errors.New("disk gone")
	}); err != nil {
		t.Fatal(err)
	}
	mgr := serve.NewManager(reg, 4)
	ts := httptest.NewServer(newHandler(mgr, 0))
	defer ts.Close()
	var errBody errorResponse
	if code := call(t, "POST", ts.URL+"/v1/sessions",
		createRequest{Dataset: "bad"}, &errBody); code != http.StatusInternalServerError {
		t.Errorf("failing loader: code %d (%s), want 500", code, errBody.Error)
	}
}

// rawPost posts raw bytes (no JSON encoding) and returns the status code
// plus decoded error body, for the strict-parsing tests.
func rawPost(t *testing.T, url string, body []byte) (int, errorResponse) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var errBody errorResponse
	_ = json.NewDecoder(resp.Body).Decode(&errBody)
	return resp.StatusCode, errBody
}

// TestStrictRequestParsing pins the hardened request decoding: unknown
// fields (typo'd "worker"), trailing garbage after the JSON value, and
// syntactically broken bodies are 400; oversized bodies are 413.
func TestStrictRequestParsing(t *testing.T) {
	ts := testServer(t)

	if code, e := rawPost(t, ts.URL+"/v1/sessions",
		[]byte(`{"dataset":"tiny","worker":4}`)); code != http.StatusBadRequest {
		t.Errorf("unknown field: code %d (%s), want 400", code, e.Error)
	}
	if code, e := rawPost(t, ts.URL+"/v1/sessions",
		[]byte(`{"dataset":"tiny","seed":7} trailing-garbage`)); code != http.StatusBadRequest {
		t.Errorf("trailing garbage: code %d (%s), want 400", code, e.Error)
	}
	if code, e := rawPost(t, ts.URL+"/v1/sessions",
		[]byte(`{"dataset":`)); code != http.StatusBadRequest {
		t.Errorf("broken body: code %d (%s), want 400", code, e.Error)
	}

	// A session to aim the observe-body tests at.
	var st statusResponse
	if code := call(t, "POST", ts.URL+"/v1/sessions",
		createRequest{Dataset: "tiny", EtaFrac: 0.05, Seed: 1}, &st); code != http.StatusCreated {
		t.Fatalf("create: code %d", code)
	}
	base := ts.URL + "/v1/sessions/" + st.ID
	if code, e := rawPost(t, base+"/observe",
		[]byte(`{"activated":[],"activate":[]}`)); code != http.StatusBadRequest {
		t.Errorf("unknown observe field: code %d (%s), want 400", code, e.Error)
	}
	// An observe body past the 8 MiB cap: ~1.1M node ids. The decoder
	// must cut it off with 413 without reading it all.
	big := bytes.Repeat([]byte("1234567,"), (8<<20)/8+1)
	body := append([]byte(`{"activated":[`), big...)
	body = append(body, []byte(`1]}`)...)
	if code, e := rawPost(t, base+"/observe", body); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: code %d (%s), want 413", code, e.Error)
	}
	// The session survives all of the above rejected bodies.
	var batch batchResponse
	if code := call(t, "POST", base+"/next", nil, &batch); code != 200 {
		t.Errorf("next after rejected bodies: code %d", code)
	}
}

// TestMetricsEndpoint smoke-tests the Prometheus exposition: after one
// step, /metrics reports the session census, the step histograms, and
// the memory gauges.
func TestMetricsEndpoint(t *testing.T) {
	ts := testServer(t)
	var st statusResponse
	if code := call(t, "POST", ts.URL+"/v1/sessions",
		createRequest{Dataset: "tiny", EtaFrac: 0.3, Seed: 9}, &st); code != http.StatusCreated {
		t.Fatalf("create: code %d", code)
	}
	base := ts.URL + "/v1/sessions/" + st.ID
	var batch batchResponse
	if code := call(t, "POST", base+"/next", nil, &batch); code != 200 {
		t.Fatalf("next: code %d", code)
	}
	var prog progressResponse
	if code := call(t, "POST", base+"/observe", observeRequest{Activated: batch.Seeds}, &prog); code != 200 {
		t.Fatalf("observe: code %d", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics: code %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`asmserve_sessions{phase="propose"} 1`,
		`asmserve_sessions{phase="passivated"} 0`,
		`asmserve_passivations_total 0`,
		`asmserve_reactivations_total 0`,
		`asmserve_step_seconds_count{op="next"} 1`,
		`asmserve_step_seconds_count{op="observe"} 1`,
		`asmserve_step_seconds_bucket{op="next",le="+Inf"} 1`,
		`asmserve_sessions_recovered 0`,
		`asmserve_idle_ttl_seconds 0`,
		"asmserve_pool_bytes ",
		"asmserve_journal_bytes 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

// TestTransparentReactivationHTTP passivates a session behind the HTTP
// layer's back and verifies clients never notice: status and next both
// reactivate through the manager and answer as if nothing happened.
func TestTransparentReactivationHTTP(t *testing.T) {
	reg := serve.NewRegistry()
	if err := reg.RegisterLoader("tiny", func() (*graph.Graph, error) {
		spec, err := gen.Dataset("synth-nethept")
		if err != nil {
			return nil, err
		}
		return spec.Generate(0.05)
	}); err != nil {
		t.Fatal(err)
	}
	mgr := serve.NewManager(reg, 16, serve.WithJournalDir(t.TempDir()))
	ts := httptest.NewServer(newHandler(mgr, 0))
	t.Cleanup(func() {
		ts.Close()
		mgr.CloseAll()
	})

	var st statusResponse
	if code := call(t, "POST", ts.URL+"/v1/sessions",
		createRequest{Dataset: "tiny", EtaFrac: 0.3, Seed: 5, Workers: 1}, &st); code != http.StatusCreated {
		t.Fatalf("create: code %d", code)
	}
	base := ts.URL + "/v1/sessions/" + st.ID
	var batch batchResponse
	if code := call(t, "POST", base+"/next", nil, &batch); code != 200 {
		t.Fatalf("next: code %d", code)
	}
	var prog progressResponse
	if code := call(t, "POST", base+"/observe", observeRequest{Activated: batch.Seeds}, &prog); code != 200 {
		t.Fatalf("observe: code %d", code)
	}

	if ok, err := mgr.Passivate(st.ID); err != nil || !ok {
		t.Fatalf("Passivate: ok=%v err=%v", ok, err)
	}
	var after statusResponse
	if code := call(t, "GET", base, nil, &after); code != 200 {
		t.Fatalf("status on passivated session: code %d", code)
	}
	if after.Phase != "propose" || after.Passivations != 1 || after.Round != 1 {
		t.Errorf("status after reactivation %+v", after)
	}

	if ok, err := mgr.Passivate(st.ID); err != nil || !ok {
		t.Fatalf("second Passivate: ok=%v err=%v", ok, err)
	}
	if code := call(t, "POST", base+"/next", nil, &batch); code != 200 || batch.Round != 2 {
		t.Errorf("next on passivated session: code %d batch %+v", code, batch)
	}

	var health healthResponse
	if code := call(t, "GET", ts.URL+"/healthz", nil, &health); code != 200 {
		t.Fatalf("healthz: code %d", code)
	}
	if health.Passivations != 2 || health.Reactivations != 2 || health.Passivated != 0 {
		t.Errorf("healthz counters %+v", health)
	}
	// The memory gauges live on /metrics (healthz stays O(1)).
	body, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer body.Body.Close()
	text, err := io.ReadAll(body.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(text), "asmserve_journal_bytes ") ||
		strings.Contains(string(text), "asmserve_journal_bytes 0\n") {
		t.Errorf("metrics journal bytes not positive:\n%s", text)
	}
}

// TestReactivationFailureIs500 pins the error mapping when a passivated
// session cannot be revived: the session exists, so the client must see
// a server-side 500 (operator's problem), never a 404 that reads as
// "your campaign was deleted".
func TestReactivationFailureIs500(t *testing.T) {
	dir := t.TempDir()
	reg := serve.NewRegistry()
	if err := reg.RegisterLoader("tiny", func() (*graph.Graph, error) {
		spec, err := gen.Dataset("synth-nethept")
		if err != nil {
			return nil, err
		}
		return spec.Generate(0.05)
	}); err != nil {
		t.Fatal(err)
	}
	mgr := serve.NewManager(reg, 16, serve.WithJournalDir(dir))
	ts := httptest.NewServer(newHandler(mgr, 0))
	t.Cleanup(func() {
		ts.Close()
		mgr.CloseAll()
	})

	var st statusResponse
	if code := call(t, "POST", ts.URL+"/v1/sessions",
		createRequest{Dataset: "tiny", EtaFrac: 0.3, Seed: 21, Workers: 1}, &st); code != http.StatusCreated {
		t.Fatalf("create: code %d", code)
	}
	if ok, err := mgr.Passivate(st.ID); err != nil || !ok {
		t.Fatalf("Passivate: ok=%v err=%v", ok, err)
	}
	// Rot the log: the reactivation replay must refuse.
	wal := filepath.Join(dir, st.ID+".wal")
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var errBody errorResponse
	if code := call(t, "GET", ts.URL+"/v1/sessions/"+st.ID, nil, &errBody); code != http.StatusInternalServerError {
		t.Errorf("status on damaged passivated session: code %d (%s), want 500", code, errBody.Error)
	}
	for _, step := range []string{"next", "observe"} {
		if code := call(t, "POST", ts.URL+"/v1/sessions/"+st.ID+"/"+step, observeRequest{}, &errBody); code != http.StatusInternalServerError {
			t.Errorf("%s on damaged passivated session: code %d (%s), want 500", step, code, errBody.Error)
		}
	}
	// Unknown ids are still the caller's 404.
	if code := call(t, "GET", ts.URL+"/v1/sessions/s99", nil, &errBody); code != http.StatusNotFound {
		t.Errorf("unknown id: code %d, want 404", code)
	}
}

// doRaw issues one request and returns the raw response (body unread),
// for tests that inspect headers or the exact JSON wire form.
func doRaw(t *testing.T, method, url string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestRetryAfterOnSessionLimit pins the 429 contract: a create rejected
// by the session limit carries a Retry-After hint.
func TestRetryAfterOnSessionLimit(t *testing.T) {
	reg := serve.NewRegistry()
	if err := reg.RegisterLoader("tiny", func() (*graph.Graph, error) {
		spec, err := gen.Dataset("synth-nethept")
		if err != nil {
			return nil, err
		}
		return spec.Generate(0.05)
	}); err != nil {
		t.Fatal(err)
	}
	mgr := serve.NewManager(reg, 1)
	ts := httptest.NewServer(newHandler(mgr, 0))
	t.Cleanup(func() {
		ts.Close()
		mgr.CloseAll()
	})

	var st statusResponse
	if code := call(t, "POST", ts.URL+"/v1/sessions",
		createRequest{Dataset: "tiny", EtaFrac: 0.05, Seed: 1}, &st); code != http.StatusCreated {
		t.Fatalf("create: code %d", code)
	}
	resp := doRaw(t, "POST", ts.URL+"/v1/sessions", []byte(`{"dataset":"tiny","eta_frac":0.05,"seed":2}`))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit create: code %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got == "" {
		t.Error("429 without Retry-After header")
	} else if secs, err := strconv.Atoi(got); err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want a positive integer of seconds", got)
	}
}

// TestBreakerRejectsCreatesWith503 drives the journal-health breaker
// through the HTTP layer: an injected journal-create failure trips it,
// the next create is rejected 503 with a Retry-After bounded by the
// breaker cooldown, and /healthz + /metrics both report the open
// breaker.
func TestBreakerRejectsCreatesWith503(t *testing.T) {
	dir := t.TempDir()
	reg := serve.NewRegistry()
	if err := reg.RegisterLoader("tiny", func() (*graph.Graph, error) {
		spec, err := gen.Dataset("synth-nethept")
		if err != nil {
			return nil, err
		}
		return spec.Generate(0.05)
	}); err != nil {
		t.Fatal(err)
	}
	const cooldown = 30 * time.Second
	mgr := serve.NewManager(reg, 16,
		serve.WithJournalDir(dir), serve.WithBreakerCooldown(cooldown))
	ts := httptest.NewServer(newHandler(mgr, 0))
	t.Cleanup(func() {
		ts.Close()
		mgr.CloseAll()
	})

	// One fault at the journal-create site (scoped to this test's dir;
	// fault plans are process-global, so this test must not run in
	// parallel with anything).
	plan, err := fault.Parse("journal/create-open:times=1:err=io:path=" + dir)
	if err != nil {
		t.Fatal(err)
	}
	fault.Activate(plan)
	t.Cleanup(fault.Deactivate)

	var errBody errorResponse
	if code := call(t, "POST", ts.URL+"/v1/sessions",
		createRequest{Dataset: "tiny", EtaFrac: 0.05, Seed: 3}, &errBody); code/100 == 2 {
		t.Fatalf("create with injected journal failure: code %d, want an error", code)
	}

	resp := doRaw(t, "POST", ts.URL+"/v1/sessions", []byte(`{"dataset":"tiny","eta_frac":0.05,"seed":4}`))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create behind open breaker: code %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got == "" {
		t.Error("503 without Retry-After header")
	} else if secs, err := strconv.Atoi(got); err != nil || secs < 1 || secs > int(cooldown.Seconds()) {
		t.Errorf("Retry-After = %q, want 1..%d seconds", got, int(cooldown.Seconds()))
	}

	var health healthResponse
	if code := call(t, "GET", ts.URL+"/healthz", nil, &health); code != 200 {
		t.Fatalf("healthz: code %d", code)
	}
	if health.JournalHealthy {
		t.Error("healthz reports journal_healthy=true with the breaker open")
	}
	metResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metResp.Body.Close()
	text, err := io.ReadAll(metResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"asmserve_journal_breaker_open 1",
		"asmserve_journal_breaker_trips_total 1",
		"asmserve_fault_injections_total 1",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestDegradedSessionOverHTTP pins the degrade policy's wire form: a
// session whose journal dies keeps serving with durable=false and the
// degraded fields set, while fault-free sessions serialize without the
// degraded keys at all (the omitempty contract the CI restart diff
// relies on).
func TestDegradedSessionOverHTTP(t *testing.T) {
	dir := t.TempDir()
	reg := serve.NewRegistry()
	if err := reg.RegisterLoader("tiny", func() (*graph.Graph, error) {
		spec, err := gen.Dataset("synth-nethept")
		if err != nil {
			return nil, err
		}
		return spec.Generate(0.05)
	}); err != nil {
		t.Fatal(err)
	}
	mgr := serve.NewManager(reg, 16,
		serve.WithJournalDir(dir), serve.WithDurabilityPolicy(serve.DegradeToNonDurable))
	ts := httptest.NewServer(newHandler(mgr, 0))
	t.Cleanup(func() {
		ts.Close()
		mgr.CloseAll()
	})

	var st statusResponse
	if code := call(t, "POST", ts.URL+"/v1/sessions",
		createRequest{Dataset: "tiny", EtaFrac: 0.3, Seed: 8, Workers: 1}, &st); code != http.StatusCreated {
		t.Fatalf("create: code %d", code)
	}
	base := ts.URL + "/v1/sessions/" + st.ID

	// Fault-free wire form: no degraded keys at all.
	resp := doRaw(t, "GET", base, nil)
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "degraded") || strings.Contains(string(raw), "last_failure") {
		t.Errorf("healthy status leaks degraded keys: %s", raw)
	}

	// Kill the journal under the session: every append fails for good.
	plan, err := fault.Parse("journal/append-write:times=0:err=io:path=" + dir)
	if err != nil {
		t.Fatal(err)
	}
	fault.Activate(plan)
	t.Cleanup(fault.Deactivate)

	var batch batchResponse
	if code := call(t, "POST", base+"/next", nil, &batch); code != 200 {
		t.Fatalf("next with dead journal (degrade policy): code %d, want 200", code)
	}
	fault.Deactivate()

	var after statusResponse
	if code := call(t, "GET", base, nil, &after); code != 200 {
		t.Fatalf("status: code %d", code)
	}
	if after.Durable || !after.Degraded || after.DegradeReason == "" || after.LastFailure == "" {
		t.Errorf("degraded session status %+v, want durable=false degraded=true with reasons", after)
	}
	// The campaign keeps working non-durably.
	var prog progressResponse
	if code := call(t, "POST", base+"/observe", observeRequest{Activated: batch.Seeds}, &prog); code != 200 {
		t.Fatalf("observe on degraded session: code %d", code)
	}

	var health healthResponse
	if code := call(t, "GET", ts.URL+"/healthz", nil, &health); code != 200 {
		t.Fatalf("healthz: code %d", code)
	}
	if health.DegradedTotal != 1 {
		t.Errorf("healthz degraded_total = %d, want 1", health.DegradedTotal)
	}
	metResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metResp.Body.Close()
	text, err := io.ReadAll(metResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"asmserve_sessions_degraded 1",
		"asmserve_sessions_degraded_total 1",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}
