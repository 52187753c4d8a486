package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// api is one keep-alive connection to asmserve. The transport opens at
// most one connection, so a workload's driver and monitor together hold
// exactly two.
type api struct {
	hc   *http.Client
	base string
}

func newAPI(base string) *api {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &api{hc: &http.Client{Transport: tr, Timeout: 5 * time.Minute}, base: base}
}

func (a *api) close() { a.hc.CloseIdleConnections() }

// do sends one request and decodes the JSON response into out (when
// non-nil). Any status but want is an error carrying the server's message.
func (a *api) do(method, path string, body any, want int, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, a.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return nil
}

// The response bodies the benchmark reads, as docs/API.md fixes them.

type statusResp struct {
	ID            string  `json:"id"`
	N             int64   `json:"n"`
	Eta           int64   `json:"eta"`
	Phase         string  `json:"phase"`
	Round         int     `json:"round"`
	Activated     int64   `json:"activated"`
	Passivations  int     `json:"passivations"`
	SelectSeconds float64 `json:"select_seconds"`
	Checkpoints   int     `json:"checkpoints"`
}

type batchResp struct {
	ID    string  `json:"id"`
	Round int     `json:"round"`
	Seeds []int32 `json:"seeds"`
}

type progressResp struct {
	ID             string `json:"id"`
	Round          int    `json:"round"`
	NewlyActivated int64  `json:"newly_activated"`
	Activated      int64  `json:"activated"`
	Done           bool   `json:"done"`
}

type listResp struct {
	Sessions []statusResp `json:"sessions"`
}

// promSample is the part of a /metrics exposition the benchmark reads:
// unlabelled series by name, plus asmserve_sessions summed over phases.
type promSample struct {
	values   map[string]float64
	sessions float64
}

func (p promSample) get(name string) float64 { return p.values[name] }

// metrics fetches and parses GET /metrics.
func (a *api) metrics() (promSample, error) {
	resp, err := a.hc.Get(a.base + "/metrics")
	if err != nil {
		return promSample{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return promSample{}, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}

func parseProm(r io.Reader) (promSample, error) {
	p := promSample{values: map[string]float64{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			return p, fmt.Errorf("malformed /metrics line %q", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return p, fmt.Errorf("malformed /metrics value in %q", line)
		}
		switch {
		case strings.HasPrefix(name, "asmserve_sessions{"):
			p.sessions += v
		case !strings.Contains(name, "{"):
			p.values[name] = v
		}
	}
	return p, sc.Err()
}
