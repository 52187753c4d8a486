package pq

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"asti/internal/rng"
)

func TestQueueBasic(t *testing.T) {
	q := New(10)
	if q.Len() != 0 {
		t.Fatalf("new queue len = %d, want 0", q.Len())
	}
	if _, _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue reported ok")
	}
	if _, _, ok := q.Peek(); ok {
		t.Fatal("Peek on empty queue reported ok")
	}
	for v, p := range map[int32]float64{3: 1.5, 7: 9.0, 1: 4.0, 0: -2.0} {
		if err := q.Push(v, p); err != nil {
			t.Fatalf("Push(%d, %v): %v", v, p, err)
		}
	}
	if v, p, _ := q.Peek(); v != 7 || p != 9.0 {
		t.Fatalf("Peek = (%d, %v), want (7, 9)", v, p)
	}
	want := []int32{7, 1, 3, 0}
	for i, wv := range want {
		v, _, ok := q.Pop()
		if !ok || v != wv {
			t.Fatalf("Pop #%d = (%d, %v), want %d", i, v, ok, wv)
		}
	}
}

func TestQueuePushOutOfRange(t *testing.T) {
	q := New(4)
	if err := q.Push(-1, 0); err == nil {
		t.Error("Push(-1) did not error")
	}
	if err := q.Push(4, 0); err == nil {
		t.Error("Push(4) on size-4 id space did not error")
	}
}

func TestQueueUpdatePriority(t *testing.T) {
	q := New(5)
	for v := int32(0); v < 5; v++ {
		q.Push(v, float64(v))
	}
	// Raise node 0 to the top.
	q.Push(0, 100)
	if v, p, _ := q.Peek(); v != 0 || p != 100 {
		t.Fatalf("after raise Peek = (%d, %v), want (0, 100)", v, p)
	}
	// Lower node 0 to the bottom.
	q.Push(0, -1)
	if v, _, _ := q.Peek(); v != 4 {
		t.Fatalf("after lower Peek node = %d, want 4", v)
	}
	if p, ok := q.Priority(0); !ok || p != -1 {
		t.Fatalf("Priority(0) = (%v, %v), want (-1, true)", p, ok)
	}
}

func TestQueueRemove(t *testing.T) {
	q := New(8)
	for v := int32(0); v < 8; v++ {
		q.Push(v, float64(v*v%7))
	}
	if !q.Remove(3) {
		t.Fatal("Remove(3) reported absent")
	}
	if q.Remove(3) {
		t.Fatal("second Remove(3) reported present")
	}
	if q.Contains(3) {
		t.Fatal("Contains(3) after Remove")
	}
	var got []int32
	for {
		v, _, ok := q.Pop()
		if !ok {
			break
		}
		got = append(got, v)
	}
	if len(got) != 7 {
		t.Fatalf("popped %d nodes, want 7", len(got))
	}
	for _, v := range got {
		if v == 3 {
			t.Fatal("popped removed node 3")
		}
	}
}

// Property: popping everything yields priorities in non-increasing order,
// whatever the interleaving of pushes, updates and removals.
func TestQueueHeapOrderProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		const n = 64
		q := New(n)
		live := map[int32]float64{}
		for op := 0; op < 300; op++ {
			v := int32(r.Intn(n))
			switch r.Intn(3) {
			case 0, 1:
				p := r.Float64()*20 - 10
				if err := q.Push(v, p); err != nil {
					return false
				}
				live[v] = p
			case 2:
				had := q.Remove(v)
				if _, want := live[v]; want != had {
					return false
				}
				delete(live, v)
			}
		}
		if q.Len() != len(live) {
			return false
		}
		prev := math.Inf(1)
		seen := map[int32]bool{}
		for {
			v, p, ok := q.Pop()
			if !ok {
				break
			}
			if p > prev || seen[v] {
				return false
			}
			if want, in := live[v]; !in || want != p {
				return false
			}
			seen[v] = true
			prev = p
		}
		return len(seen) == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: pos index stays consistent (Contains ↔ Priority ok).
func TestQueueIndexConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		const n = 32
		q := New(n)
		for op := 0; op < 200; op++ {
			v := int32(r.Intn(n))
			if r.Bernoulli(0.6) {
				q.Push(v, r.Float64())
			} else {
				q.Remove(v)
			}
			for u := int32(0); u < n; u++ {
				_, ok := q.Priority(u)
				if ok != q.Contains(u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// submodularGain builds a deterministic monotone submodular coverage
// function over random subsets, returning the marginal-gain closure given
// the chosen set.
type coverageInstance struct {
	sets [][]int32 // node -> covered elements
}

func newCoverageInstance(n, universe int, r *rng.Source) *coverageInstance {
	inst := &coverageInstance{sets: make([][]int32, n)}
	for v := range inst.sets {
		k := 1 + r.Intn(universe/2)
		elems := make([]int32, universe)
		for i := range elems {
			elems[i] = int32(i)
		}
		r.Shuffle(elems)
		inst.sets[v] = elems[:k]
	}
	return inst
}

func (c *coverageInstance) gain(covered []bool) func(v int32) float64 {
	return func(v int32) float64 {
		var g float64
		for _, e := range c.sets[v] {
			if !covered[e] {
				g++
			}
		}
		return g
	}
}

func (c *coverageInstance) commit(covered []bool, v int32) {
	for _, e := range c.sets[v] {
		covered[e] = true
	}
}

// TestLazyMatchesEagerGreedy checks that every CELF lazy-forward pick
// has exactly the gain exhaustive greedy finds over the remaining
// candidates on a submodular coverage function, with fewer (or equal)
// gain evaluations. Both score the lazy run's state: two independent runs
// may break a tie differently and then legitimately diverge.
func TestLazyMatchesEagerGreedy(t *testing.T) {
	r := rng.New(7)
	const n, universe, k = 40, 60, 8
	inst := newCoverageInstance(n, universe, r)

	candidates := make([]int32, n)
	for i := range candidates {
		candidates[i] = int32(i)
	}

	covered := make([]bool, universe)
	lz, err := NewLazy(n, candidates, inst.gain(covered))
	if err != nil {
		t.Fatal(err)
	}
	remaining := slices.Clone(candidates)
	for round := 0; round < k; round++ {
		g := inst.gain(covered)
		eagerGain := -1.0
		for _, v := range remaining {
			eagerGain = max(eagerGain, g(v))
		}
		v, lazyGain, ok := lz.Next(g)
		if !ok {
			t.Fatalf("lazy exhausted at round %d", round)
		}
		if math.Abs(eagerGain-lazyGain) > 1e-9 || math.Abs(g(v)-lazyGain) > 1e-9 {
			t.Fatalf("round %d: lazy picked %d reporting gain %v (true gain %v) != eager gain %v", round, v, lazyGain, g(v), eagerGain)
		}
		remaining = slices.DeleteFunc(remaining, func(u int32) bool { return u == v })
		inst.commit(covered, v)
	}
	eagerEvals := int64(n * k)
	if lz.Evaluations > eagerEvals {
		t.Fatalf("lazy used %d evaluations, eager would use %d", lz.Evaluations, eagerEvals)
	}
}

func TestLazyNilGain(t *testing.T) {
	if _, err := NewLazy(4, []int32{0}, nil); err == nil {
		t.Fatal("NewLazy(nil gain) did not error")
	}
}

func TestLazyRemoveAndExhaust(t *testing.T) {
	gain := func(v int32) float64 { return float64(v) }
	lz, err := NewLazy(4, []int32{0, 1, 2, 3}, gain)
	if err != nil {
		t.Fatal(err)
	}
	lz.Remove(3)
	var got []int32
	for {
		v, _, ok := lz.Next(gain)
		if !ok {
			break
		}
		got = append(got, v)
	}
	want := []int32{2, 1, 0}
	if len(got) != len(want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] > got[j] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drained %v, want %v", got, want)
		}
	}
}
