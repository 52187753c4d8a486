package rrset

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"asti/internal/bitset"
	"asti/internal/diffusion"
	"asti/internal/graph"
	"asti/internal/rng"
)

// Probability modes of a fuzzed graph: every edge its own p, one p per
// in-block (the uniform blocks V2 jumps over), or one p for the graph.
const (
	fuzzPerEdge = iota
	fuzzPerBlock
	fuzzGlobal
)

// fuzzProb maps 32 raw bits onto a float32 probability in (0,1] by bit
// pattern, so subnormal, tiny and ordinary values are all reachable.
func fuzzProb(x uint32) float32 {
	return math.Float32frombits(x%math.Float32bits(1) + 1)
}

// fuzzEdge encodes one edge record of the FuzzSampler input format.
func fuzzEdge(u, v byte, p float32) []byte {
	return binary.LittleEndian.AppendUint32([]byte{u, v}, math.Float32bits(p)-1)
}

// decodeFuzzGraph reads a small graph and active mask from raw bytes:
// byte 0 sizes the graph (1–64 nodes), byte 1 picks the probability
// mode, bytes 2–9 are the active mask (bit v activates node v), and
// every further 6 bytes are one edge: source, target, probability bits.
// It reports false when no node is left inactive.
func decodeFuzzGraph(data []byte) (*graph.Graph, *bitset.Set, []int32, bool) {
	var head [10]byte
	copy(head[:], data)
	n := int32(1 + head[0]%64)
	mode := head[1] % 3
	mask := binary.LittleEndian.Uint64(head[2:])
	blockP := map[int32]float32{}
	b := graph.NewBuilder(n)
	for rest := data[min(len(data), 10):]; len(rest) >= 6; rest = rest[6:] {
		u, v := int32(rest[0])%n, int32(rest[1])%n
		p := fuzzProb(binary.LittleEndian.Uint32(rest[2:]))
		if u == v {
			continue
		}
		switch mode {
		case fuzzPerBlock:
			if q, ok := blockP[v]; ok {
				p = q
			}
			blockP[v] = p
		case fuzzGlobal:
			if q, ok := blockP[0]; ok {
				p = q
			}
			blockP[0] = p
		}
		b.AddEdge(u, v, float64(p))
	}
	g, err := b.Build("fuzz", true)
	if err != nil {
		panic(err) // the decoder only adds valid edges
	}
	active := bitset.New(int(n))
	var inactive []int32
	for v := int32(0); v < n; v++ {
		if mask>>v&1 != 0 {
			active.Set(v)
		} else {
			inactive = append(inactive, v)
		}
	}
	return g, active, inactive, len(inactive) > 0
}

// FuzzSampler draws IC sets under both stream contracts over arbitrary
// small graphs and probabilities, with an active mask passed directly
// and primed (the engine's path). Every set must hold its roots, drawn
// as Int31n rejection over [0, n) against the mask, and otherwise only
// distinct, in-range, inactive nodes; a set rooted at every inactive
// node must be the inactive list itself. Run with `go test -fuzz
// FuzzSampler ./internal/rrset` for continuous fuzzing; the seed corpus
// below runs as a normal test.
func FuzzSampler(f *testing.F) {
	// The tiny-p hub: 63 in-edges at p = 1e-20, whose geometric jumps
	// run past 2⁶³ edges. All but nodes 0–3 are active, so the hub roots
	// a quarter of the sets.
	hub := []byte{63, fuzzPerBlock, 0xF0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	for u := byte(1); u < 64; u++ {
		hub = append(hub, fuzzEdge(u, 0, 1e-20)...)
	}
	f.Add(hub)
	// A subnormal global p on a star, half the nodes active.
	sub := []byte{31, fuzzGlobal, 0xAA, 0xAA, 0xAA, 0xAA, 0, 0, 0, 0}
	for u := byte(1); u < 32; u++ {
		sub = append(sub, fuzzEdge(u, 0, math.SmallestNonzeroFloat32)...)
	}
	f.Add(sub)
	// Mixed blocks with certain and ordinary edges.
	mixed := []byte{7, fuzzPerEdge, 0x01, 0, 0, 0, 0, 0, 0, 0}
	mixed = append(mixed, fuzzEdge(1, 2, 1)...)
	mixed = append(mixed, fuzzEdge(3, 2, 0.5)...)
	mixed = append(mixed, fuzzEdge(2, 4, 0.02)...)
	mixed = append(mixed, fuzzEdge(0, 4, 0.9)...)
	f.Add(mixed)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, active, inactive, ok := decodeFuzzGraph(data)
		if !ok {
			return
		}
		n := g.N()
		// roots replays the root draw of a set seeded with seed.
		roots := func(k int, seed uint64) []int32 {
			if k == len(inactive) {
				return inactive
			}
			r := rng.New(seed)
			var out []int32
			for taken := map[int32]bool{}; len(out) < k; {
				if c := r.Int31n(n); !active.Get(c) && !taken[c] {
					taken[c] = true
					out = append(out, c)
				}
			}
			return out
		}
		check := func(label string, set, want []int32) {
			if len(want) == len(inactive) && !slices.Equal(set, inactive) {
				t.Fatalf("%s: all %d inactive nodes as roots gave %v, want the inactive list", label, len(want), set)
			}
			seen := map[int32]bool{}
			for _, v := range set {
				if v < 0 || v >= n || seen[v] || active.Get(v) {
					t.Fatalf("%s: member %d out of range, repeated or active in %v", label, v, set)
				}
				seen[v] = true
			}
			for _, v := range want {
				if !seen[v] {
					t.Fatalf("%s: root %d missing from %v", label, v, set)
				}
			}
		}
		for _, ver := range []Version{V1, V2} {
			s := NewSamplerVersion(g, diffusion.IC, ver)
			for i := 0; i < 8; i++ {
				seed := rng.SplitMix64(uint64(i))
				k := 1 + i%len(inactive)
				check("RR", s.RRStable(active, rng.New(seed), nil), roots(1, seed))
				check("mRR", s.MRRStable(k, inactive, active, rng.New(seed), nil), roots(k, seed))
				s.PrimeActive(active)
				check("primed RR", s.RRStable(nil, rng.New(seed), nil), roots(1, seed))
				check("primed mRR", s.MRRStable(k, inactive, nil, rng.New(seed), nil), roots(k, seed))
				s.PrimeActive(nil)
			}
		}
	})
}
