package hdr

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"asti/internal/stats"
)

// TestBucketRoundTrip pins the bucket geometry: every bucket's bounds
// contain exactly the values that index into it, across the whole
// range, clamping included.
func TestBucketRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, 31, 32, 63, 64, 65, 127, 128, 1000, 1 << 20, 1<<32 - 1} {
		idx := bucketIndex(v)
		lo, width := bucketBounds(idx)
		if v < lo || v >= lo+width {
			t.Errorf("value %d: bucket %d bounds [%d,%d) do not contain it", v, idx, lo, lo+width)
		}
		if float64(width)/float64(lo+1) > 1.0/float64(int(1)<<subBits)+1e-9 && lo >= 1<<(subBits+1) {
			t.Errorf("bucket %d: width %d exceeds the relative-error bound at lo=%d", idx, width, lo)
		}
	}
	// The clamp: anything at or beyond 2^maxMagnitude µs lands in the
	// last bucket instead of indexing out of range.
	if idx := bucketIndex(math.MaxInt64); idx != numBuckets-1 {
		t.Errorf("MaxInt64 indexes bucket %d, want %d", idx, numBuckets-1)
	}
}

// TestHistogramQuantileAccuracy records a known distribution and checks
// the reported quantiles land within the histogram's relative error of
// the exact sample quantiles (stats.Quantile).
func TestHistogramQuantileAccuracy(t *testing.T) {
	h := New()
	rng := rand.New(rand.NewSource(7))
	var samples []float64
	for i := 0; i < 50000; i++ {
		// Log-uniform over ~3 decades: 100µs to 100ms.
		v := 100e-6 * math.Pow(1000, rng.Float64())
		d := time.Duration(v * float64(time.Second))
		samples = append(samples, d.Seconds())
		h.Record(d)
	}
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		got := h.Quantile(p).Seconds()
		want := stats.Quantile(samples, p)
		if rel := math.Abs(got-want) / want; rel > 0.05 {
			t.Errorf("p%g: histogram %.6f vs exact %.6f (rel err %.3f)", p*100, got, want, rel)
		}
	}
	if h.Count() != 50000 {
		t.Errorf("count = %d, want 50000", h.Count())
	}
	if h.Max() < h.Quantile(0.999) {
		t.Errorf("max %v below p999 %v", h.Max(), h.Quantile(0.999))
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines
// (run with -race) and checks nothing is lost.
func TestHistogramConcurrent(t *testing.T) {
	h := New()
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(time.Duration(w*per+i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	if h.Max() != (workers*per-1)*time.Microsecond {
		t.Fatalf("max = %v, want %v", h.Max(), (workers*per-1)*time.Microsecond)
	}
}

// TestHistogramMerge checks merging equals recording into one.
func TestHistogramMerge(t *testing.T) {
	a, b, all := New(), New(), New()
	for i := 1; i <= 100; i++ {
		d := time.Duration(i) * time.Millisecond
		if i%2 == 0 {
			a.Record(d)
		} else {
			b.Record(d)
		}
		all.Record(d)
	}
	a.Merge(b)
	if a.Count() != all.Count() || a.Max() != all.Max() {
		t.Fatalf("merge: count/max %d/%v, want %d/%v", a.Count(), a.Max(), all.Count(), all.Max())
	}
	for _, p := range []float64{0.5, 0.99} {
		if a.Quantile(p) != all.Quantile(p) {
			t.Errorf("merge: p%g %v, want %v", p*100, a.Quantile(p), all.Quantile(p))
		}
	}
}

// TestQuantileSmallSamples is the regression test for the nearest-rank
// degeneration: on tiny samples the histogram targets the type-7 rank
// p·(n−1), so a high quantile lands in the bucket of the order statistic
// below that rank instead of collapsing onto the max.
func TestQuantileSmallSamples(t *testing.T) {
	h := New()
	var xs []time.Duration
	for i := 1; i <= 10; i++ {
		d := time.Duration(i) * time.Millisecond
		xs = append(xs, d)
		h.Record(d)
	}
	// One sample per bucket: the estimate lies within 1.5 bucket widths
	// of that order statistic, and a width is at most 1/2^subBits of it.
	for _, p := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
		below := xs[int(p*float64(len(xs)-1))].Seconds()
		got := h.Quantile(p).Seconds()
		if rel := math.Abs(got-below) / below; rel > 1.5/(1<<subBits) {
			t.Errorf("p%g = %.6fs, order statistic %.6fs (rel err %.3f)", p*100, got, below, rel)
		}
	}
	if p99 := h.Quantile(0.99); p99 >= h.Max() {
		t.Errorf("p99 = %v: collapses onto the max %v", p99, h.Max())
	}
	if h.Quantile(1) != h.Max() {
		t.Errorf("p100 = %v, want the max %v", h.Quantile(1), h.Max())
	}
	// Degenerate sizes.
	if got := New().Quantile(0.5); got != 0 {
		t.Errorf("empty: %v, want 0", got)
	}
	one := New()
	one.Record(42 * time.Millisecond)
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if got := one.Quantile(p); got != 42*time.Millisecond {
			t.Errorf("singleton p%g: %v, want 42ms", p*100, got)
		}
	}
	pair := New()
	pair.Record(time.Millisecond)
	pair.Record(3 * time.Millisecond)
	for p := 0.0; p <= 1.0; p += 0.25 {
		if got := pair.Quantile(p); got < time.Millisecond || got > 3*time.Millisecond {
			t.Errorf("pair p%g: %v, outside [1ms, 3ms]", p*100, got)
		}
	}
	// Monotone in p.
	var prev time.Duration
	for p := 0.0; p <= 1.0; p += 0.01 {
		q := h.Quantile(p)
		if q < prev {
			t.Fatalf("not monotone at p=%g: %v < %v", p, q, prev)
		}
		prev = q
	}
}

// TestQuantileDurations pins how recorded durations reach the quantiles
// at the edges of the recordable range: negative and sub-microsecond
// durations record as zero, a duration beyond the top magnitude clamps
// into the top bucket while the max stays exact, and p outside [0, 1]
// clamps.
func TestQuantileDurations(t *testing.T) {
	if got := New().Quantile(0.5); got != 0 {
		t.Errorf("empty: %v, want 0", got)
	}
	one := New()
	one.Record(time.Millisecond)
	if got := one.Quantile(0.999); got != time.Millisecond {
		t.Errorf("singleton p99.9: %v, want 1ms", got)
	}

	h := New()
	h.Record(-time.Second)
	h.Record(500 * time.Nanosecond)
	if h.Count() != 2 || h.Max() != 0 || h.Quantile(1) != 0 {
		t.Errorf("sub-unit durations: count %d, max %v, p100 %v; want 2, 0, 0", h.Count(), h.Max(), h.Quantile(1))
	}
	const huge = 2 * time.Hour
	h.Record(huge)
	if h.Max() != huge {
		t.Errorf("max = %v, want %v", h.Max(), huge)
	}
	lo, width := bucketBounds(numBuckets - 1)
	if got := h.Quantile(1); got < time.Duration(lo)*unit || got >= time.Duration(lo+width)*unit {
		t.Errorf("p100 = %v, outside the top bucket [%v, %v)", got, time.Duration(lo)*unit, time.Duration(lo+width)*unit)
	}
	if h.Quantile(-1) != h.Quantile(0) || h.Quantile(2) != h.Quantile(1) {
		t.Errorf("p outside [0,1] not clamped: p-100 %v vs p0 %v, p200 %v vs p100 %v",
			h.Quantile(-1), h.Quantile(0), h.Quantile(2), h.Quantile(1))
	}
}

// TestQuantileOf checks a histogram's quantiles are a function of the
// recorded samples alone: recording order does not move them, and
// reading them leaves the histogram unchanged.
func TestQuantileOf(t *testing.T) {
	ps := []float64{0, 0.5, 0.99, 1}
	var want []time.Duration
	for _, order := range [][]int{{5, 1, 3}, {1, 3, 5}, {3, 5, 1}} {
		h := New()
		for _, ms := range order {
			h.Record(time.Duration(ms) * time.Millisecond)
		}
		var got []time.Duration
		for _, p := range ps {
			got = append(got, h.Quantile(p))
		}
		if med := got[1].Seconds(); math.Abs(med-3e-3)/3e-3 > 1.5/(1<<subBits) {
			t.Errorf("order %v: median = %v, want ~3ms", order, got[1])
		}
		if want == nil {
			want = got
		}
		for i, p := range ps {
			if got[i] != want[i] {
				t.Errorf("order %v: p%g = %v, want %v", order, p*100, got[i], want[i])
			}
			if again := h.Quantile(p); again != got[i] {
				t.Errorf("order %v: p%g read %v then %v", order, p*100, got[i], again)
			}
		}
		if h.Count() != 3 || h.Max() != 5*time.Millisecond {
			t.Errorf("order %v: count %d, max %v after reads; want 3, 5ms", order, h.Count(), h.Max())
		}
	}
}
