package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"asti/internal/diffusion"
	"asti/internal/serve"
)

// maxRequestBody caps JSON request bodies. Anything larger is rejected
// with 413 before it can balloon the decoder: an observe body of 8 MiB
// already holds roughly a million activated node ids, far beyond any
// per-wave delta the residual graph can absorb (and far beyond what the
// journal would accept as one record).
const maxRequestBody = 8 << 20

// createRequest is the body of POST /v1/sessions.
type createRequest struct {
	Dataset string  `json:"dataset"`
	Policy  string  `json:"policy,omitempty"`
	Model   string  `json:"model,omitempty"`
	Eta     int64   `json:"eta,omitempty"`
	EtaFrac float64 `json:"eta_frac,omitempty"`
	Epsilon float64 `json:"epsilon,omitempty"`
	Workers int     `json:"workers,omitempty"`
	// DisablePoolReuse opts the session out of cross-round sampling-pool
	// reuse (on by default; proposals are identical either way).
	DisablePoolReuse bool `json:"disable_pool_reuse,omitempty"`
	// SamplerVersion pins the sampler stream contract (0 = server
	// default, currently v2). Set 1 to reproduce pre-versioning
	// proposal streams byte-for-byte.
	SamplerVersion int    `json:"sampler_version,omitempty"`
	Seed           uint64 `json:"seed"`
}

// statusResponse mirrors serve.Status on the wire.
type statusResponse struct {
	ID             string  `json:"id"`
	Dataset        string  `json:"dataset"`
	SamplerVersion int     `json:"sampler_version"`
	Policy         string  `json:"policy"`
	Model          string  `json:"model"`
	N              int64   `json:"n"`
	Eta            int64   `json:"eta"`
	Phase          string  `json:"phase"`
	Round          int     `json:"round"`
	Pending        []int32 `json:"pending,omitempty"`
	Seeds          int     `json:"seeds"`
	Activated      int64   `json:"activated"`
	EtaI           int64   `json:"eta_i"`
	Done           bool    `json:"done"`
	Durable        bool    `json:"durable"`
	Passivations   int     `json:"passivations"`
	PoolBytes      int64   `json:"pool_bytes"`
	IdleSeconds    float64 `json:"idle_seconds"`
	SelectSeconds  float64 `json:"select_seconds"`
	// Checkpoints counts the checkpoints this session has written;
	// LastCheckpointRound is the last committed round the newest one
	// covers (one taken with a batch pending covers the rounds before
	// it). Both are restored from the checkpoint itself on recovery, so
	// they are stable across restarts.
	Checkpoints         int `json:"checkpoints"`
	LastCheckpointRound int `json:"last_checkpoint_round"`
	// Degraded marks a session serving non-durably after a final journal
	// failure under the degrade policy, with the cause in DegradeReason;
	// LastFailure records the newest journal failure either policy saw.
	// All three are omitted while empty/false, so fault-free sessions
	// serialize exactly as before (and identically across restarts).
	Degraded      bool   `json:"degraded,omitempty"`
	DegradeReason string `json:"degrade_reason,omitempty"`
	LastFailure   string `json:"last_failure,omitempty"`
}

// healthResponse is the body of GET /healthz.
type healthResponse struct {
	OK bool `json:"ok"`
	// Sessions is the number of currently open sessions, passivated
	// included.
	Sessions int `json:"sessions"`
	// Passivated is the number of sessions currently parked in the
	// journal by the idle sweep.
	Passivated int `json:"passivated"`
	// Passivations / Reactivations count idle-lifecycle events since
	// this process booted. (The memory gauges — pool and journal bytes —
	// need a session-table walk and live on /metrics; healthz stays O(1)
	// so probes never contend with request handlers.)
	Passivations  uint64 `json:"passivations"`
	Reactivations uint64 `json:"reactivations"`
	// Journal reports whether sessions are write-ahead journaled
	// (-journal-dir was set).
	Journal bool `json:"journal"`
	// RecoveredSessions counts sessions rebuilt from the journal when
	// this process booted.
	RecoveredSessions int `json:"recovered_sessions"`
	// IdleTTLSeconds is the configured passivation TTL (0 = off).
	IdleTTLSeconds float64 `json:"idle_ttl_seconds"`
	// Checkpoints / Compactions / CheckpointRestores count
	// checkpoints written, journal compactions past them, and
	// recoveries/reactivations that restored a checkpoint instead of
	// replaying the full history, since this process booted.
	Checkpoints        uint64 `json:"checkpoints"`
	Compactions        uint64 `json:"compactions"`
	CheckpointRestores uint64 `json:"checkpoint_restores"`
	// CheckpointEvery is the configured checkpoint interval in rounds
	// (0 = checkpoints off).
	CheckpointEvery int `json:"checkpoint_every"`
	// JournalHealthy is false while the journal-health breaker is open:
	// session creation is answering 503 until a probe create succeeds.
	// Always true on an unjournaled server.
	JournalHealthy bool `json:"journal_healthy"`
	// PoisonedTotal / DegradedTotal count sessions closed by a journal
	// failure (fail-stop policy) and sessions switched to non-durable
	// serving (degrade policy) since boot.
	PoisonedTotal uint64 `json:"poisoned_total"`
	DegradedTotal uint64 `json:"degraded_total"`
	// JournalRetries counts transient journal append/fsync failures that
	// were retried (and usually absorbed) inside the journal writer.
	JournalRetries uint64 `json:"journal_retries"`
	// DurabilityPolicy names the configured response to a final journal
	// failure: "fail-stop" or "degrade".
	DurabilityPolicy string `json:"durability_policy"`
}

// batchResponse is the body of POST /v1/sessions/{id}/next.
type batchResponse struct {
	ID    string  `json:"id"`
	Round int     `json:"round"`
	Seeds []int32 `json:"seeds"`
}

// observeRequest is the body of POST /v1/sessions/{id}/observe.
type observeRequest struct {
	Activated []int32 `json:"activated"`
}

// progressResponse is the body of a successful observe.
type progressResponse struct {
	ID             string `json:"id"`
	Round          int    `json:"round"`
	NewlyActivated int64  `json:"newly_activated"`
	Activated      int64  `json:"activated"`
	EtaI           int64  `json:"eta_i"`
	Done           bool   `json:"done"`
}

// errorResponse is every non-2xx body.
type errorResponse struct {
	Error string `json:"error"`
}

// server holds the handler state shared across requests: the session
// manager, the boot-time recovery count, and the step-latency
// histograms /metrics exposes.
type server struct {
	mgr        *serve.Manager
	recovered  int
	nextLat    *histogram
	observeLat *histogram
}

// newHandler builds the asmserve route table over one session manager.
// recovered is the boot-time recovery count reported by /healthz.
func newHandler(mgr *serve.Manager, recovered int) http.Handler {
	sv := &server{mgr: mgr, recovered: recovered, nextLat: newHistogram(), observeLat: newHistogram()}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", sv.handleHealthz)
	mux.HandleFunc("GET /metrics", sv.handleMetrics)
	mux.HandleFunc("GET /v1/datasets", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string][]string{"datasets": sv.mgr.Registry().Names()})
	})
	mux.HandleFunc("POST /v1/sessions", sv.handleCreate)
	mux.HandleFunc("GET /v1/sessions", sv.handleList)
	mux.HandleFunc("GET /v1/sessions/{id}", sv.handleStatus)
	mux.HandleFunc("POST /v1/sessions/{id}/next", sv.handleNext)
	mux.HandleFunc("POST /v1/sessions/{id}/observe", sv.handleObserve)
	mux.HandleFunc("DELETE /v1/sessions/{id}", sv.handleClose)
	return mux
}

func (sv *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := sv.mgr.Snapshot() // O(1): probes must not walk the session table
	writeJSON(w, http.StatusOK, healthResponse{
		OK:                 true,
		Sessions:           st.Sessions,
		Passivated:         int(st.Counters[serve.Passivated]),
		Passivations:       st.Counters[serve.Passivations],
		Reactivations:      st.Counters[serve.Reactivations],
		Journal:            sv.mgr.Journaled(),
		RecoveredSessions:  sv.recovered,
		IdleTTLSeconds:     sv.mgr.IdleTTL().Seconds(),
		Checkpoints:        st.Counters[serve.Checkpoints],
		Compactions:        st.Counters[serve.Compactions],
		CheckpointRestores: st.Counters[serve.CheckpointRestores],
		CheckpointEvery:    sv.mgr.CheckpointEvery(),
		JournalHealthy:     st.JournalHealthy,
		PoisonedTotal:      st.Counters[serve.Poisoned],
		DegradedTotal:      st.Counters[serve.Degraded],
		JournalRetries:     st.Journal.AppendRetries,
		DurabilityPolicy:   sv.mgr.DurabilityPolicy().String(),
	})
}

func (sv *server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, bodyStatus(err), fmt.Errorf("bad request body: %w", err))
		return
	}
	model, err := parseModel(req.Model)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s, err := sv.mgr.Create(serve.Config{
		Dataset:          req.Dataset,
		Policy:           req.Policy,
		Model:            model,
		Eta:              req.Eta,
		EtaFrac:          req.EtaFrac,
		Epsilon:          req.Epsilon,
		Workers:          req.Workers,
		DisablePoolReuse: req.DisablePoolReuse,
		SamplerVersion:   req.SamplerVersion,
		Seed:             req.Seed,
	})
	if err != nil {
		status := createStatus(err)
		sv.setRetryAfter(w, status, err)
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusCreated, toStatusResponse(s.Status()))
}

func (sv *server) handleList(w http.ResponseWriter, r *http.Request) {
	list := sv.mgr.List()
	out := make([]statusResponse, len(list))
	for i, st := range list {
		out[i] = toStatusResponse(st)
	}
	writeJSON(w, http.StatusOK, map[string][]statusResponse{"sessions": out})
}

func (sv *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	// The manager lookup reactivates a passivated session, so a status
	// probe always reports the live phase, never "passivated".
	s, err := sv.mgr.Session(r.PathValue("id"))
	if err != nil {
		writeError(w, lookupStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, toStatusResponse(s.Status()))
}

func (sv *server) handleNext(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t0 := time.Now()
	// Retry once through the manager if an idle sweep passivates the
	// session between our lookup and the call: the re-fetch reactivates
	// it from the journal and hands back a live session, making
	// passivation invisible to clients.
	for attempt := 0; ; attempt++ {
		s, err := sv.mgr.Session(id)
		if err != nil {
			writeError(w, lookupStatus(err), err)
			return
		}
		prop, err := s.Propose()
		if errors.Is(err, serve.ErrPassivated) && attempt == 0 {
			continue
		}
		if err != nil {
			status := stepStatus(err)
			sv.setRetryAfter(w, status, err)
			writeError(w, status, err)
			return
		}
		sv.nextLat.observe(time.Since(t0))
		writeJSON(w, http.StatusOK, batchResponse{ID: s.ID(), Round: prop.Round, Seeds: prop.Seeds})
		return
	}
}

func (sv *server) handleObserve(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req observeRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, bodyStatus(err), fmt.Errorf("bad request body: %w", err))
		return
	}
	t0 := time.Now()
	for attempt := 0; ; attempt++ {
		s, err := sv.mgr.Session(id)
		if err != nil {
			writeError(w, lookupStatus(err), err)
			return
		}
		prog, err := s.Observe(req.Activated)
		if errors.Is(err, serve.ErrPassivated) && attempt == 0 {
			continue
		}
		if err != nil {
			status := stepStatus(err)
			sv.setRetryAfter(w, status, err)
			writeError(w, status, err)
			return
		}
		sv.observeLat.observe(time.Since(t0))
		writeJSON(w, http.StatusOK, progressResponse{
			ID:             s.ID(),
			Round:          prog.Round,
			NewlyActivated: prog.NewlyActivated,
			Activated:      prog.Activated,
			EtaI:           prog.EtaI,
			Done:           prog.Done,
		})
		return
	}
}

func (sv *server) handleClose(w http.ResponseWriter, r *http.Request) {
	if err := sv.mgr.Close(r.PathValue("id")); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"closed": true})
}

// decodeJSON decodes one JSON value from the request body into v,
// strictly: bodies over maxRequestBody fail (mapped to 413 by
// bodyStatus), unknown fields fail (a typo'd "worker" must not silently
// run with the default worker count), and trailing data after the value
// fails (a concatenated second body is a client bug, not padding).
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	var extra any
	if err := dec.Decode(&extra); !errors.Is(err, io.EOF) {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// bodyStatus maps a decodeJSON failure to its HTTP status: an oversized
// body is 413, everything else (syntax, unknown field, trailing data)
// is the caller's 400.
func bodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// parseModel maps the wire model name to a diffusion.Model ("" = IC).
func parseModel(name string) (diffusion.Model, error) {
	switch strings.ToUpper(name) {
	case "", "IC":
		return diffusion.IC, nil
	case "LT":
		return diffusion.LT, nil
	default:
		return 0, fmt.Errorf("unknown model %q (IC or LT)", name)
	}
}

// lookupStatus maps Manager.Session errors to HTTP statuses: an id not
// in the table is the caller's 404; anything else means the session
// exists but its reactivation failed (journal damaged on disk,
// environment drift) — a server-side 500 the operator must see, never a
// 404 that tells the client its campaign is gone.
func lookupStatus(err error) int {
	if errors.Is(err, serve.ErrUnknownSession) {
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

// createStatus maps session-creation errors to HTTP statuses: unknown
// dataset names are the caller's mistake (404), loader failures are
// server-side (500), an open journal-health breaker is a transient 503
// (the journal is failing; the breaker re-probes after its cooldown),
// everything else is a bad request.
func createStatus(err error) int {
	switch {
	case errors.Is(err, serve.ErrTooManySessions):
		return http.StatusTooManyRequests
	case errors.Is(err, serve.ErrJournalUnhealthy):
		return http.StatusServiceUnavailable
	case errors.Is(err, serve.ErrUnknownDataset):
		return http.StatusNotFound
	case errors.Is(err, serve.ErrDatasetLoad):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// setRetryAfter stamps a Retry-After hint (in seconds) on retryable
// rejections, so well-behaved clients back off instead of hammering:
//   - breaker-open 503s advertise the time until the breaker re-probes
//     (rounded up, floor 1s);
//   - 429 (session limit) advertises a flat 5s — capacity frees when
//     some client closes a session, which we cannot predict;
//   - any other 503 (a passivation race lost twice) advertises 1s — the
//     next attempt's reactivation almost always wins.
func (sv *server) setRetryAfter(w http.ResponseWriter, status int, err error) {
	switch {
	case errors.Is(err, serve.ErrJournalUnhealthy):
		secs := int(sv.mgr.BreakerRetryAfter().Seconds() + 0.999)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	case status == http.StatusTooManyRequests:
		w.Header().Set("Retry-After", "5")
	case status == http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", "1")
	}
}

// stepStatus maps NextBatch/Observe errors to HTTP statuses: lifecycle
// ordering violations are conflicts, closed sessions are gone, a
// passivation lost twice in a row is a transient 503 (the handler
// already retried through the manager once), anything else (bad node
// ids, policy failure) is a bad request.
func stepStatus(err error) int {
	switch {
	case errors.Is(err, serve.ErrBatchPending),
		errors.Is(err, serve.ErrNoBatchPending),
		errors.Is(err, serve.ErrDone):
		return http.StatusConflict
	case errors.Is(err, serve.ErrClosed):
		return http.StatusGone
	case errors.Is(err, serve.ErrPassivated):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func toStatusResponse(st serve.Status) statusResponse {
	return statusResponse{
		ID:                  st.ID,
		Dataset:             st.Dataset,
		SamplerVersion:      st.SamplerVersion,
		Policy:              st.Policy,
		Model:               st.Model,
		N:                   st.N,
		Eta:                 st.Eta,
		Phase:               st.Phase,
		Round:               st.Round,
		Pending:             st.Pending,
		Seeds:               st.Seeds,
		Activated:           st.Activated,
		EtaI:                st.EtaI,
		Done:                st.Done,
		Durable:             st.Durable,
		Passivations:        st.Passivations,
		PoolBytes:           st.PoolBytes,
		IdleSeconds:         st.IdleSeconds,
		SelectSeconds:       st.SelectSeconds,
		Checkpoints:         st.Checkpoints,
		LastCheckpointRound: st.LastCheckpointRound,
		Degraded:            st.Degraded,
		DegradeReason:       st.DegradeReason,
		LastFailure:         st.LastFailure,
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
