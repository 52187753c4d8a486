package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// fakeServer is a minimal in-memory stand-in for asmserve's HTTP API. It
// proposes the lowest-numbered inactive nodes, which is always a valid
// batch, and can be told to break one answer of campaign 0's second
// round.
type fakeServer struct {
	n     int64
	fault string // "", "active", "oversize", "activated", "other-seed"

	mu       sync.Mutex
	nextID   int
	sessions map[string]*fakeSession
	counters map[string]float64
}

type fakeSession struct {
	id      string
	seq     int // creation order: 0 is campaign 0
	eta     int64
	b       int
	round   int
	active  map[int32]bool
	pending []int32
}

func (f *fakeSession) status() statusResp {
	phase := "propose"
	if f.pending != nil {
		phase = "observe"
	}
	return statusResp{ID: f.id, N: 0, Eta: f.eta, Phase: phase, Round: f.round, Activated: int64(len(f.active))}
}

func newFake(t *testing.T, n int64, fault string) *httptest.Server {
	f := &fakeServer{n: n, fault: fault, sessions: map[string]*fakeSession{}, counters: map[string]float64{}}
	mux := http.NewServeMux()
	reply := func(w http.ResponseWriter, code int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(v)
	}
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Policy  string  `json:"policy"`
			Eta     int64   `json:"eta"`
			EtaFrac float64 `json:"eta_frac"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			reply(w, 400, map[string]string{"error": err.Error()})
			return
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		s := &fakeSession{id: fmt.Sprintf("s%d", f.nextID+1), seq: f.nextID, eta: body.Eta, b: 1, active: map[int32]bool{}}
		f.nextID++
		if s.eta == 0 {
			s.eta = int64(body.EtaFrac * float64(f.n))
		}
		fmt.Sscanf(body.Policy, "ASTI-%d", &s.b)
		f.sessions[s.id] = s
		f.counters["asmserve_sessions_created_total"]++
		st := s.status()
		st.N = f.n
		reply(w, 201, st)
	})
	mux.HandleFunc("POST /v1/sessions/{id}/next", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		s := f.sessions[r.PathValue("id")]
		s.round++
		var seeds []int32
		for v := int32(0); int64(v) < f.n && len(seeds) < s.b; v++ {
			if !s.active[v] {
				seeds = append(seeds, v)
			}
		}
		if s.seq == 0 && s.round == 2 {
			switch f.fault {
			case "active":
				seeds[0] = 0 // node 0 was proposed, hence activated, in round 1
			case "oversize":
				seeds = append(seeds, int32(f.n-1))
			}
		}
		if s.seq == 0 && f.fault == "other-seed" {
			seeds[0] = int32(f.n - 1 - int64(s.round))
		}
		s.pending = seeds
		f.counters["asmserve_proposals_total"]++
		reply(w, 200, batchResp{ID: s.id, Round: s.round, Seeds: seeds})
	})
	mux.HandleFunc("POST /v1/sessions/{id}/observe", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Activated []int32 `json:"activated"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			reply(w, 400, map[string]string{"error": err.Error()})
			return
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		s := f.sessions[r.PathValue("id")]
		before := len(s.active)
		for _, v := range append(s.pending, body.Activated...) {
			s.active[v] = true
		}
		s.pending = nil
		p := progressResp{ID: s.id, Round: s.round, NewlyActivated: int64(len(s.active) - before), Activated: int64(len(s.active))}
		p.Done = p.Activated >= s.eta
		if s.seq == 0 && s.round == 2 && f.fault == "activated" {
			p.Activated++
		}
		f.counters["asmserve_observations_total"]++
		reply(w, 200, p)
	})
	mux.HandleFunc("GET /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		reply(w, 200, f.sessions[r.PathValue("id")].status())
	})
	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		delete(f.sessions, r.PathValue("id"))
		f.counters["asmserve_sessions_closed_total"]++
		reply(w, 200, map[string]bool{"closed": true})
	})
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		reply(w, 200, listResp{})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		fmt.Fprintf(w, "# TYPE asmserve_sessions gauge\nasmserve_sessions{phase=\"propose\"} %d\n", len(f.sessions))
		for name, v := range f.counters {
			fmt.Fprintf(w, "%s %v\n", name, v)
		}
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}
