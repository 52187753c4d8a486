package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"asti/internal/serve"
)

// promlint_test.go validates GET /metrics against the Prometheus text
// exposition format (version 0.0.4) without importing a Prometheus
// client: every line must parse, every family must carry HELP and TYPE
// exactly once ahead of its samples, series must be unique and grouped
// by family, and histograms must be cumulative with le="+Inf" equal to
// their _count. A scrape that violates any of these is silently dropped
// or misread by real Prometheus servers — drift here is an outage of
// the monitoring contract, not a cosmetic bug.

var (
	promNameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	// sampleRe splits `name{labels} value` / `name value` (no timestamps:
	// the server never emits them).
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (\S+)$`)
	labelRe  = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"`)
)

// promSample is one parsed series sample.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
	line   int
}

// promFamily aggregates one metric family's declarations and samples.
type promFamily struct {
	help, typ string
	samples   []promSample
}

// familyOf maps a sample name to its family name: histogram samples
// drop the _bucket/_sum/_count suffix when the base is a declared
// histogram family.
func familyOf(name string, families map[string]*promFamily) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if f := families[base]; f != nil && f.typ == "histogram" {
				return base
			}
		}
	}
	return name
}

// parseExposition parses and structurally validates one exposition body,
// reporting violations through t.Errorf. It returns the families for
// content-level checks.
func parseExposition(t *testing.T, body string) map[string]*promFamily {
	t.Helper()
	families := map[string]*promFamily{}
	order := []string{} // family grouping order
	lastFamily := ""    // current sample group
	closed := map[string]bool{}
	seriesSeen := map[string]bool{}
	labelKeys := map[string]string{} // family -> label keys of its first sample

	for i, line := range strings.Split(body, "\n") {
		lineNo := i + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 || (parts[1] != "HELP" && parts[1] != "TYPE") {
				t.Errorf("line %d: malformed comment %q (only # HELP / # TYPE allowed)", lineNo, line)
				continue
			}
			name := parts[2]
			if !promNameRe.MatchString(name) {
				t.Errorf("line %d: invalid metric name %q", lineNo, name)
				continue
			}
			f := families[name]
			if f == nil {
				f = &promFamily{}
				families[name] = f
				order = append(order, name)
			}
			switch parts[1] {
			case "HELP":
				if f.help != "" {
					t.Errorf("line %d: duplicate HELP for %s", lineNo, name)
				}
				if strings.TrimSpace(parts[3]) == "" {
					t.Errorf("line %d: empty HELP text for %s", lineNo, name)
				}
				f.help = parts[3]
			case "TYPE":
				if f.typ != "" {
					t.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
				}
				if len(f.samples) > 0 {
					t.Errorf("line %d: TYPE for %s after its samples", lineNo, name)
				}
				switch parts[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
					f.typ = parts[3]
				default:
					t.Errorf("line %d: unknown TYPE %q for %s", lineNo, parts[3], name)
				}
			}
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line %d: unparseable sample line %q", lineNo, line)
			continue
		}
		name, labelBlob, valueStr := m[1], m[3], m[4]
		value, err := strconv.ParseFloat(valueStr, 64)
		if err != nil {
			t.Errorf("line %d: bad sample value %q: %v", lineNo, valueStr, err)
			continue
		}
		labels := map[string]string{}
		for _, lm := range labelRe.FindAllStringSubmatch(labelBlob, -1) {
			if !promLabelRe.MatchString(lm[1]) {
				t.Errorf("line %d: invalid label name %q", lineNo, lm[1])
			}
			if _, dup := labels[lm[1]]; dup {
				t.Errorf("line %d: duplicate label %q", lineNo, lm[1])
			}
			labels[lm[1]] = lm[2]
		}
		fam := familyOf(name, families)
		f := families[fam]
		if f == nil || f.typ == "" {
			t.Errorf("line %d: sample %s has no TYPE declaration", lineNo, name)
			if f == nil {
				f = &promFamily{}
				families[fam] = f
				order = append(order, fam)
			}
		}
		if f.help == "" {
			t.Errorf("line %d: sample %s has no HELP declaration", lineNo, name)
		}
		// Grouping: once a family's sample block ends, it must not resume.
		if fam != lastFamily {
			if closed[fam] {
				t.Errorf("line %d: family %s has non-contiguous samples", lineNo, fam)
			}
			if lastFamily != "" {
				closed[lastFamily] = true
			}
			lastFamily = fam
		}
		// Every sample of a family carries the same label keys (le aside,
		// which only histogram buckets add).
		var keys []string
		for k := range labels {
			if k != "le" || !strings.HasSuffix(name, "_bucket") {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		set := strings.Join(keys, ",")
		if first, ok := labelKeys[fam]; !ok {
			labelKeys[fam] = set
		} else if first != set {
			t.Errorf("line %d: %s has label keys {%s}, its family's first sample {%s}", lineNo, name, set, first)
		}
		// Series uniqueness: name plus the sorted label set.
		keyParts := make([]string, 0, len(labels))
		for k, v := range labels {
			keyParts = append(keyParts, k+"="+v)
		}
		sort.Strings(keyParts)
		series := name + "{" + strings.Join(keyParts, ",") + "}"
		if seriesSeen[series] {
			t.Errorf("line %d: duplicate series %s", lineNo, series)
		}
		seriesSeen[series] = true
		f.samples = append(f.samples, promSample{name: name, labels: labels, value: value, line: lineNo})
	}

	for _, name := range order {
		f := families[name]
		if f.typ == "" {
			t.Errorf("family %s: missing TYPE", name)
		}
		if f.help == "" {
			t.Errorf("family %s: missing HELP", name)
		}
		if len(f.samples) == 0 {
			t.Errorf("family %s: declared but has no samples", name)
		}
		if f.typ == "counter" && !strings.HasSuffix(name, "_total") {
			t.Errorf("family %s: counter without the _total suffix", name)
		}
		if f.typ != "counter" && strings.HasSuffix(name, "_total") {
			t.Errorf("family %s: %s named like a counter (_total suffix)", name, f.typ)
		}
		for _, s := range f.samples {
			if f.typ == "counter" && s.value < 0 {
				t.Errorf("line %d: counter %s is negative (%g)", s.line, s.name, s.value)
			}
		}
		if f.typ == "histogram" {
			validateHistogram(t, name, f)
		}
	}
	return families
}

// validateHistogram checks one histogram family per label partition
// (all labels except le): buckets must be cumulative and non-decreasing,
// the +Inf bucket must exist and equal _count, and _sum/_count must each
// appear exactly once.
func validateHistogram(t *testing.T, name string, f *promFamily) {
	t.Helper()
	type part struct {
		buckets  []promSample
		inf      *promSample
		sum, cnt *promSample
	}
	parts := map[string]*part{}
	key := func(labels map[string]string) string {
		kv := make([]string, 0, len(labels))
		for k, v := range labels {
			if k != "le" {
				kv = append(kv, k+"="+v)
			}
		}
		sort.Strings(kv)
		return strings.Join(kv, ",")
	}
	for i := range f.samples {
		s := f.samples[i]
		k := key(s.labels)
		p := parts[k]
		if p == nil {
			p = &part{}
			parts[k] = p
		}
		switch {
		case s.name == name+"_bucket":
			if s.labels["le"] == "+Inf" {
				p.inf = &f.samples[i]
			} else {
				p.buckets = append(p.buckets, s)
			}
		case s.name == name+"_sum":
			if p.sum != nil {
				t.Errorf("line %d: duplicate %s_sum{%s}", s.line, name, k)
			}
			p.sum = &f.samples[i]
		case s.name == name+"_count":
			if p.cnt != nil {
				t.Errorf("line %d: duplicate %s_count{%s}", s.line, name, k)
			}
			p.cnt = &f.samples[i]
		}
	}
	for k, p := range parts {
		if p.inf == nil {
			t.Errorf("histogram %s{%s}: no le=\"+Inf\" bucket", name, k)
			continue
		}
		if p.cnt == nil || p.sum == nil {
			t.Errorf("histogram %s{%s}: missing _sum or _count", name, k)
			continue
		}
		prevLe := -1.0
		prev := -1.0
		for _, b := range p.buckets {
			le, err := strconv.ParseFloat(b.labels["le"], 64)
			if err != nil {
				t.Errorf("line %d: bad le %q", b.line, b.labels["le"])
				continue
			}
			if le <= prevLe {
				t.Errorf("line %d: histogram %s{%s} buckets out of order (le %g after %g)", b.line, name, k, le, prevLe)
			}
			prevLe = le
			if b.value < prev {
				t.Errorf("line %d: histogram %s{%s} not cumulative (%g after %g)", b.line, name, k, b.value, prev)
			}
			prev = b.value
		}
		if p.inf.value < prev {
			t.Errorf("histogram %s{%s}: +Inf bucket %g below last bucket %g", name, k, p.inf.value, prev)
		}
		if p.inf.value != p.cnt.value {
			t.Errorf("histogram %s{%s}: +Inf bucket %g != _count %g", name, k, p.inf.value, p.cnt.value)
		}
	}
}

// scrape fetches /metrics and returns the body.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics: code %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("metrics Content-Type %q, want text/plain version=0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// exposedFamilies names every /metrics family: the families table plus
// the two hand-written ones, the phase census and the step histograms.
func exposedFamilies() []string {
	names := []string{"asmserve_sessions", "asmserve_step_seconds"}
	for _, f := range families {
		names = append(names, f.name)
	}
	return names
}

// TestMetricsDocumented requires every /metrics family to be named in
// both docs/API.md and docs/OPERATIONS.md, so a family added without
// documentation fails here.
func TestMetricsDocumented(t *testing.T) {
	for _, doc := range []string{"../../docs/API.md", "../../docs/OPERATIONS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range exposedFamilies() {
			if !regexp.MustCompile(`\b` + name + `\b`).Match(text) {
				t.Errorf("%s does not mention family %s", doc, name)
			}
		}
	}
}

// TestMetricsExpositionValid validates the scrape of a fresh server
// (all-zero state) and of a busy journaled one (sessions in several
// phases, passivation churn, step histograms populated) against the
// exposition grammar.
func TestMetricsExpositionValid(t *testing.T) {
	t.Run("fresh", func(t *testing.T) {
		e := newConfEnv(t, 16)
		fams := parseExposition(t, scrape(t, e.ts.URL))
		if len(fams) < 10 {
			t.Errorf("only %d families on a fresh server — exposition truncated?", len(fams))
		}
	})

	t.Run("busy", func(t *testing.T) {
		e := newConfEnv(t, 16, serve.WithJournalDir(t.TempDir()))
		// One session mid-campaign with a pending batch, one done, one
		// passivated, one deleted: every phase the census can report.
		e.pending()
		e.done()
		parked := e.create()
		id := parked[strings.LastIndex(parked, "/")+1:]
		if ok, err := e.mgr.Passivate(id); err != nil || !ok {
			t.Fatalf("Passivate: ok=%v err=%v", ok, err)
		}
		e.deleted()

		fams := parseExposition(t, scrape(t, e.ts.URL))
		// Every family the server emits is in the exposition, and only
		// those.
		names := exposedFamilies()
		for _, want := range names {
			if fams[want] == nil {
				t.Errorf("family %s missing from the exposition", want)
			}
		}
		if len(fams) != len(names) {
			t.Errorf("exposition has %d families, the server declares %d", len(fams), len(names))
		}
		// Spot-check values the fixture pinned down.
		expect := map[string]float64{
			`asmserve_sessions{phase="passivated"}`: 1,
			`asmserve_sessions_created_total`:       4,
			`asmserve_sessions_closed_total`:        1,
		}
		for _, f := range fams {
			for _, s := range f.samples {
				key := s.name
				if len(s.labels) > 0 {
					kv := make([]string, 0, len(s.labels))
					for k, v := range s.labels {
						kv = append(kv, fmt.Sprintf("%s=%q", k, v))
					}
					sort.Strings(kv)
					key += "{" + strings.Join(kv, ",") + "}"
				}
				if want, ok := expect[key]; ok && s.value != want {
					t.Errorf("%s = %g, want %g", key, s.value, want)
				}
				delete(expect, key)
			}
		}
		for key := range expect {
			t.Errorf("series %s not found in the exposition", key)
		}
		// The step histograms saw the fixtures' traffic.
		var nextCount float64 = -1
		for _, s := range fams["asmserve_step_seconds"].samples {
			if s.name == "asmserve_step_seconds_count" && s.labels["op"] == "next" {
				nextCount = s.value
			}
		}
		if nextCount < 2 {
			t.Errorf("asmserve_step_seconds_count{op=next} = %g, want >= 2", nextCount)
		}
	})
}
