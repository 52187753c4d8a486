package bench

import (
	"math"
	"testing"
)

// roundsOf builds a run's rounds from their selection latencies.
func roundsOf(secs ...float64) []RoundPerf {
	rounds := make([]RoundPerf, len(secs))
	for i, s := range secs {
		rounds[i] = RoundPerf{Round: i + 1, Seconds: s}
	}
	return rounds
}

// TestPercentileInterpolates is the regression test for the harness's
// old nearest-rank quantiles: over the tens of rounds a trim run
// reports, the p99 round latency must interpolate between the top order
// statistics instead of degenerating to the maximum outlier.
func TestPercentileInterpolates(t *testing.T) {
	// 50 evenly spaced rounds plus one slow outlier: nearest-rank p99
	// reported the outlier itself; interpolation must stay between the
	// 50th and 51st order statistics.
	var secs []float64
	for i := 1; i <= 50; i++ {
		secs = append(secs, float64(i)*1e-3)
	}
	secs = append(secs, 10)
	var pr PerfRun
	pr.setRounds(roundsOf(secs...))
	if pr.Rounds != 51 {
		t.Errorf("rounds = %d, want 51", pr.Rounds)
	}
	if pr.P99RoundSeconds >= 10 {
		t.Fatalf("p99 = %g: still degenerates to the max outlier", pr.P99RoundSeconds)
	}
	if pr.P99RoundSeconds < 50e-3 {
		t.Fatalf("p99 = %g: below the second-largest round", pr.P99RoundSeconds)
	}
	if math.Abs(pr.P50RoundSeconds-26e-3) > 1e-12 {
		t.Errorf("p50 = %g, want 0.026", pr.P50RoundSeconds)
	}
}

// TestPercentileFSmallSamples pins the round percentiles on the
// degenerate run sizes a tiny profile produces (a handful of rounds),
// and checks the rounds stay in the round order the report lists them in.
func TestPercentileFSmallSamples(t *testing.T) {
	var pr PerfRun
	pr.setRounds(nil)
	if pr.Rounds != 0 || pr.P50RoundSeconds != 0 || pr.P99RoundSeconds != 0 {
		t.Errorf("no rounds: %+v, want zero percentiles", pr)
	}
	pr.setRounds(roundsOf(3))
	if pr.P50RoundSeconds != 3 || pr.P99RoundSeconds != 3 {
		t.Errorf("one round: p50 %g p99 %g, want 3", pr.P50RoundSeconds, pr.P99RoundSeconds)
	}
	// Two rounds: the p99 must be a blend, not simply the slower one.
	pr.setRounds(roundsOf(1, 2))
	if want := 1.99; math.Abs(pr.P99RoundSeconds-want) > 1e-9 {
		t.Errorf("two rounds p99 = %g, want %g", pr.P99RoundSeconds, want)
	}
	// Unsorted latencies are sorted on a copy.
	rounds := roundsOf(5, 1, 3)
	pr.setRounds(rounds)
	if pr.P50RoundSeconds != 3 {
		t.Errorf("median = %g, want 3", pr.P50RoundSeconds)
	}
	for i, rp := range rounds {
		if rp.Round != i+1 || rp.Seconds != []float64{5, 1, 3}[i] {
			t.Fatalf("rounds reordered: %+v", rounds)
		}
	}
}
