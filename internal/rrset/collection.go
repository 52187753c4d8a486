package rrset

import "asti/internal/graph"

// Collection accumulates mRR (or RR) sets and maintains the coverage
// counts Λ_R(v) — the number of stored sets containing v — plus, on
// demand, an inverted index (node → set ids). It backs both TRIM
// (argmax over Λ) and TRIM-B / ATEUC (greedy coverage).
//
// Storage is slotted over an arena: stored set id's data lives at
// data.at(setPos[id], setLen[id]), so Add copies the set instead of
// taking ownership, and Replace can regenerate one set in place (reusing
// its hole when the new set fits, allocating a fresh slot otherwise;
// dead entries are reclaimed by an amortized compaction into recycled
// slabs). The inverted index is a CSR pair built lazily, by the first
// query that needs it after a mutation rather than appended to per set;
// the greedy builds it only when that is cheaper than scanning the
// uncovered sets, which on TRIM-B's dense mRR pools it is not. Every
// per-node counter touched since the last Reset is remembered in a
// touched list, making Reset O(touched) instead of O(n). One Collection
// therefore serves every round of an adaptive run without reallocating,
// and — through Prune/Replace/Truncate — can carry its pool ACROSS
// rounds, which is the cross-round reuse optimization behind
// trim.Config.ReusePool.
type Collection struct {
	n     int32
	count int   // sets accounted for (stored or counts-only)
	nodes int64 // Σ|R| over all accounted sets

	cov       []int64 // Λ_R(v)
	touched   []int32 // nodes v whose counter was ever incremented, for O(touched) reset
	inTouched []bool  // touched-list membership, so Replace never duplicates entries

	// Stored sets, slotted (set id -> data.at(setPos[id], setLen[id])).
	setPos []setRef
	setLen []int32
	rootK  []int32 // per-set root count (0 = unknown, never reusable)
	data   arena
	dead   int64 // arena entries no slot references (holes from Replace/Truncate)

	// Lazy CSR inverted index over the stored sets: node v's set ids are
	// idxSets[idxOff[v]:idxOff[v+1]]. Valid while idxBuilt == stored count;
	// -1 marks it never built (or invalidated by Reset/Replace/Truncate).
	idxOff   []int64
	idxSets  []int32
	idxBuilt int

	// Epoch-stamped per-set marks: marks[id] == markEpoch means "id seen in
	// the current walk". Bumping the epoch clears all marks in O(1).
	marks     []int64
	markEpoch int64

	// Epoch-stamped per-node marks for Prune's delta-membership scan
	// (lazily sized to n).
	nmark      []int64
	nmarkEpoch int64

	// Greedy scratch: gain[v] is v's marginal gain during a
	// GreedyMaxCoverage call, and uncov lists the stored sets its scan
	// path has not yet covered.
	gain  []int64
	uncov []int32
}

// NewCollection returns an empty Collection over graphs with n nodes.
// The coverage and index scratch are pre-sized from the graph (n and
// the n+1 index offsets), so the first rounds never regrow them.
func NewCollection(g *graph.Graph) *Collection {
	return &Collection{
		n:         g.N(),
		cov:       make([]int64, g.N()),
		inTouched: make([]bool, g.N()),
		idxOff:    make([]int64, g.N()+1),
		nmark:     make([]int64, g.N()),
		idxBuilt:  -1,
	}
}

// stored returns the number of stored (not counts-only) sets.
func (c *Collection) stored() int { return len(c.setPos) }

// Stored returns the number of stored (not counts-only) sets.
func (c *Collection) Stored() int { return c.stored() }

// covAdd increments Λ_R(v) for every member of set.
func (c *Collection) covAdd(set []int32) {
	for _, v := range set {
		if !c.inTouched[v] {
			c.inTouched[v] = true
			c.touched = append(c.touched, v)
		}
		c.cov[v]++
	}
}

// covSub decrements Λ_R(v) for every member of set.
func (c *Collection) covSub(set []int32) {
	for _, v := range set {
		c.cov[v]--
	}
}

// Add stores a copy of one set and updates coverage. The caller keeps
// ownership of the slice and may reuse it. Mixing Add and AddCountsOnly in
// one Collection is not supported: greedy coverage would silently ignore
// the counts-only sets.
func (c *Collection) Add(set []int32) { c.AddRooted(set, 0) }

// AddRooted is Add recording the set's root count (its first rootK
// members are the roots, in draw order). The root count is what
// Prune's root-size replay compares against; sets added with rootK 0
// are treated as never reusable under a multi-root strategy.
func (c *Collection) AddRooted(set []int32, rootK int32) {
	ref, buf := c.data.alloc(len(set))
	copy(buf, set)
	c.setPos = append(c.setPos, ref)
	c.setLen = append(c.setLen, int32(len(set)))
	c.rootK = append(c.rootK, rootK)
	c.count++
	c.nodes += int64(len(set))
	c.covAdd(set)
}

// AddCountsOnly updates the coverage counts Λ_R(v) without retaining the
// set. TRIM with batch size 1 only ever needs argmax over Λ, so skipping
// storage and the inverted index removes the dominant memory traffic of a
// round (the caller may reuse the slice).
func (c *Collection) AddCountsOnly(set []int32) {
	c.count++
	c.nodes += int64(len(set))
	c.covAdd(set)
}

// Replace regenerates stored set id in place: coverage counters are
// updated for the old and new members only (O(|old|+|new|)), the new data
// reuses the old slot when it fits, and the inverted index is invalidated.
// The caller keeps ownership of the slice.
func (c *Collection) Replace(id int32, set []int32, rootK int32) {
	if c.count != c.stored() {
		panic("rrset: Replace on a counts-only collection")
	}
	old := c.Set(id)
	c.covSub(old)
	c.nodes += int64(len(set)) - int64(len(old))
	if len(set) <= len(old) {
		copy(old, set)
		c.dead += int64(len(old) - len(set))
	} else {
		c.dead += int64(len(old))
		ref, buf := c.data.alloc(len(set))
		copy(buf, set)
		c.setPos[id] = ref
	}
	c.setLen[id] = int32(len(set))
	c.rootK[id] = rootK
	c.covAdd(set)
	c.idxBuilt = -1
	c.maybeCompact()
}

// Truncate drops every stored set with id ≥ m, updating coverage counters
// in O(nodes dropped). It exists so a reused pool can shrink back to a
// round's starting target θ_0 before selection (a fresh pool would not
// have the extra sets, and the determinism contract requires reuse to be
// invisible in the output).
func (c *Collection) Truncate(m int) {
	if m < 0 || m > c.stored() {
		panic("rrset: Truncate out of range")
	}
	if c.count != c.stored() {
		panic("rrset: Truncate on a counts-only collection")
	}
	for id := int32(m); id < int32(c.stored()); id++ {
		set := c.Set(id)
		c.covSub(set)
		c.nodes -= int64(len(set))
		c.dead += int64(len(set))
	}
	c.setPos = c.setPos[:m]
	c.setLen = c.setLen[:m]
	c.rootK = c.rootK[:m]
	c.count = m
	c.idxBuilt = -1
	c.maybeCompact()
}

// maybeCompact rewrites the arena without holes once more than half of
// it (and at least a page worth) is dead, keeping Replace/Truncate
// amortized O(touched). Live sets are copied in id order into a fresh
// arena view that inherits the free list, and the vacated slabs are
// recycled onto it — compaction after warm-up therefore shuffles
// existing slabs instead of allocating (the old path built a scratch
// buffer the size of the live data every time).
func (c *Collection) maybeCompact() {
	if c.dead <= c.data.used/2 || c.dead < 4096 {
		return
	}
	old := c.data
	c.data = arena{slabInts: old.slabInts, free: old.free}
	old.free = nil
	for id := range c.setPos {
		n := c.setLen[id]
		ref, buf := c.data.alloc(int(n))
		copy(buf, old.at(c.setPos[id], n))
		c.setPos[id] = ref
	}
	// The vacated slabs feed the next growth or compaction cycle.
	for i := len(old.slabs) - 1; i >= 0; i-- {
		c.data.free = append(c.data.free, old.slabs[i][:0])
	}
	c.dead = 0
}

// Size returns the number of sets accounted for.
func (c *Collection) Size() int { return c.count }

// TotalNodes returns the sum of set sizes (memory/cost proxy).
func (c *Collection) TotalNodes() int64 { return c.nodes }

// MemoryBytes estimates the collection's heap footprint: the capacity of
// every backing slice times its element size. It is an accounting
// estimate (map/struct headers and allocator slack are not counted), but
// it tracks the dominant cost — the set-payload arena plus the per-node
// arrays — and
// is what the serve layer rolls up into its pool-memory gauge.
func (c *Collection) MemoryBytes() int64 {
	const (
		i64 = 8
		i32 = 4
		b   = 1
	)
	return int64(cap(c.cov))*i64 +
		int64(cap(c.touched))*i32 +
		int64(cap(c.inTouched))*b +
		int64(cap(c.setPos))*i64 + // setRef is two int32s
		int64(cap(c.setLen))*i32 +
		int64(cap(c.rootK))*i32 +
		c.data.capInts()*i32 +
		int64(cap(c.idxOff))*i64 +
		int64(cap(c.idxSets))*i32 +
		int64(cap(c.marks))*i64 +
		int64(cap(c.nmark))*i64 +
		int64(cap(c.gain))*i64 +
		int64(cap(c.uncov))*i32
}

// Coverage returns Λ_R(v).
func (c *Collection) Coverage(v int32) int64 { return c.cov[v] }

// Set returns the id-th stored set (read-only). The slice aliases arena
// storage; it stays valid across growth (slabs never move) but not
// across compaction or Reset.
func (c *Collection) Set(id int32) []int32 {
	return c.data.at(c.setPos[id], c.setLen[id])
}

// RootK returns the recorded root count of the id-th stored set (0 if it
// was added without one).
func (c *Collection) RootK(id int32) int32 { return c.rootK[id] }

// IndexOf returns the ids of the stored sets containing v (read-only; the
// slice is invalidated by the next mutation).
func (c *Collection) IndexOf(v int32) []int32 {
	c.buildIndex()
	return c.idxSets[c.idxOff[v]:c.idxOff[v+1]]
}

// buildIndex (re)builds the CSR inverted index over the stored sets. It
// runs at most once per batch of mutations — consumers query only after
// one — so the flat build replaces per-set slice appends on every node.
// Node v's entry count is Λ_R(v), the number of stored sets containing
// it, so one fill pass over the arena suffices. Like Prune, it panics on
// a collection holding counts-only sets, which Λ_R counts but the arena
// does not hold.
func (c *Collection) buildIndex() {
	if c.count != c.stored() {
		panic("rrset: index on a counts-only collection")
	}
	if c.idxBuilt == c.stored() {
		return
	}
	if cap(c.idxOff) < int(c.n)+1 {
		c.idxOff = make([]int64, c.n+1)
	}
	c.idxOff = c.idxOff[:c.n+1]
	// Counts shifted by one so the fill pass can bump the offsets in place.
	c.idxOff[0] = 0
	copy(c.idxOff[1:], c.cov)
	for v := int32(0); v < c.n; v++ {
		c.idxOff[v+1] += c.idxOff[v]
	}
	live := c.idxOff[c.n]
	if int64(cap(c.idxSets)) < live {
		c.idxSets = make([]int32, live)
	}
	c.idxSets = c.idxSets[:live]
	for id := 0; id < c.stored(); id++ {
		for _, v := range c.Set(int32(id)) {
			c.idxSets[c.idxOff[v]] = int32(id)
			c.idxOff[v]++
		}
	}
	// Shift the bumped offsets back down.
	for v := c.n; v > 0; v-- {
		c.idxOff[v] = c.idxOff[v-1]
	}
	c.idxOff[0] = 0
	c.idxBuilt = c.stored()
}

// nextEpoch returns a fresh mark epoch, growing the per-set mark array to
// the current stored count.
func (c *Collection) nextEpoch() int64 {
	if len(c.marks) < c.stored() {
		c.marks = append(c.marks, make([]int64, c.stored()-len(c.marks))...)
	}
	c.markEpoch++
	return c.markEpoch
}

// Prune identifies the stored sets invalidated by an activation delta:
// every set containing a newly activated node (as root or member — the
// masked node was reached, so regeneration under the grown mask diverges),
// plus every set the alsoStale callback flags (trim uses it to replay the
// root-size draw under the new n_i/η_i and catch root-count shifts). The
// returned ids are ascending; the caller regenerates exactly those sets —
// typically through Engine.Refresh — and may keep every other set as-is:
// by residual stability (see the package comment) the kept sets are
// byte-identical to what full regeneration would produce.
//
// Prune itself mutates nothing. It deliberately avoids the inverted index
// (which TRIM's argmax path never builds): the delta is marked in a
// per-node epoch array and the stored data is scanned flat, one
// sequential O(TotalNodes) pass with early exit per set.
func (c *Collection) Prune(newlyActive []int32, alsoStale func(id, rootK int32) bool) []int32 {
	if c.count != c.stored() {
		panic("rrset: Prune on a counts-only collection")
	}
	if c.stored() == 0 {
		return nil
	}
	if len(c.nmark) < int(c.n) {
		c.nmark = make([]int64, c.n)
	}
	c.nmarkEpoch++
	e := c.nmarkEpoch
	for _, v := range newlyActive {
		c.nmark[v] = e
	}
	var stale []int32
	for id := int32(0); id < int32(c.stored()); id++ {
		hit := false
		for _, v := range c.Set(id) {
			if c.nmark[v] == e {
				hit = true
				break
			}
		}
		if hit || (alsoStale != nil && alsoStale(id, c.rootK[id])) {
			stale = append(stale, id)
		}
	}
	return stale
}

// ArgmaxCoverage returns the node with maximum Λ_R(v) restricted to the
// candidate list (nil = all nodes), and its coverage. Ties break toward
// the smaller node id for determinism (candidate lists are expected in
// ascending order, as adaptive.State.Inactive always is).
//
//asm:hotpath
func (c *Collection) ArgmaxCoverage(candidates []int32) (best int32, cov int64) {
	best = -1
	if candidates == nil {
		for v := int32(0); v < c.n; v++ {
			if c.cov[v] > cov || best < 0 {
				best, cov = v, c.cov[v]
			}
		}
		return best, cov
	}
	for _, v := range candidates {
		if best < 0 || c.cov[v] > cov {
			best, cov = v, c.cov[v]
		}
	}
	return best, cov
}

// Greedy cost constants, in units of one scan-pass read of a set entry.
// Fitted on workload-shaped pools (synth-epinions and synth-nethept at
// scale 0.2–0.25, mRR and single-root, 20k–100k sets) on a two-core
// x86-64 VM: a scan pass costs ≈1.15 ns per entry plus ≈21 ns per stored
// set (its slot lookup and loop set-up), so σ ≈ 18; a cold CSR index
// build costs 10–15 ns per live entry (18 ns on 4-entry sets), so γ ≈ 11.
// γ was fitted when the build made two passes over the arena, one to
// count and one to fill, and has not been refitted since the counts come
// from Λ_R: the dropped pass is one sequential read per entry against
// the fill pass's scattered writes into idxSets. On the same pool shapes
// and VM, the two-pass build read 6–12 ns per entry and the one-pass
// build 4–10 ns, spreads that overlap.
const (
	greedySetCost   = 18 // σ
	greedyBuildCost = 11 // γ
)

// greedyScans reports whether GreedyMaxCoverage(b) discovers newly
// covered sets by scanning the uncovered ones rather than through the
// inverted index: it does when the index is not current and the
// pessimistic scan cost, (b−1) full passes of E + σ·S for E live entries
// over S stored sets, stays within the index build cost γ·E.
func (c *Collection) greedyScans(b int) bool {
	if c.idxBuilt == c.stored() {
		return false
	}
	passes := min(int64(b), int64(c.stored())) - 1
	return passes*(c.nodes+greedySetCost*int64(c.stored())) <= greedyBuildCost*c.nodes
}

// GreedyMaxCoverage selects up to b nodes greedily maximizing marginal
// set coverage (the classic (1-(1-1/b)^b)-approximate max-coverage greedy
// the paper uses in TRIM-B, Line 8). It returns the selected nodes and the
// number of sets they jointly cover. Coverage state in the Collection is
// not modified.
//
// The greedy is eager over exact marginal gains: Λ_R is copied into a
// gain scratch, each pick is the candidate of largest gain (smaller node
// id on ties), and after every pick but the last the members of the sets
// it newly covers lose one gain each. greedyScans picks how those sets
// are found: by scanning and compacting the list of still-uncovered
// stored sets, so a fresh pool is never transposed (TRIM-B's dense mRR
// pools), or through the inverted index, built only when the scans
// would cost more (large-k single-root pools: IMM, OPIM-C). Both paths
// select the same nodes. Scratch is reused, so repeated calls do not
// allocate after warm-up.
//
// candidates restricts selection (nil = all nodes) and must not contain
// duplicates. Selection stops early once every set any candidate
// belongs to is covered. Like Prune, it panics on a collection holding
// counts-only sets, whose members it cannot see.
//
//asm:hotpath
func (c *Collection) GreedyMaxCoverage(b int, candidates []int32) (seeds []int32, covered int64) {
	if c.count != c.stored() {
		panic("rrset: GreedyMaxCoverage on a counts-only collection")
	}
	if b <= 0 {
		return nil, 0
	}
	scan := c.greedyScans(b)
	// A single pick runs no scan pass, so it needs no uncovered list.
	c.greedyScratch(scan && b > 1)
	var epoch int64 // marks[id] == epoch ⇔ set id already covered (index path)
	if !scan {
		c.buildIndex()
		epoch = c.nextEpoch()
	}
	gain := c.gain
	for len(seeds) < b {
		best, g := int32(-1), int64(0)
		if candidates == nil {
			for v, x := range gain {
				if x > g {
					best, g = int32(v), x
				}
			}
		} else {
			for _, v := range candidates {
				if x := gain[v]; x > g || (x == g && x > 0 && v < best) {
					best, g = v, x
				}
			}
		}
		if g == 0 {
			break // every set a candidate belongs to is covered
		}
		seeds = append(seeds, best)
		covered += g
		if len(seeds) == b {
			break
		}
		if scan {
			// Newly covered = the uncovered sets containing best; keep
			// the rest, compacted in place. The membership test is a
			// hand loop: slices.Contains made this path ≈25% slower.
			kept := c.uncov[:0]
			for _, id := range c.uncov {
				set := c.Set(id)
				hit := false
				for _, v := range set {
					if v == best {
						hit = true
						break
					}
				}
				if !hit {
					kept = append(kept, id)
					continue
				}
				for _, v := range set {
					gain[v]--
				}
			}
			c.uncov = kept
		} else {
			for _, id := range c.idxSets[c.idxOff[best]:c.idxOff[best+1]] {
				if c.marks[id] == epoch {
					continue
				}
				c.marks[id] = epoch
				for _, v := range c.Set(id) {
					gain[v]--
				}
			}
		}
	}
	return seeds, covered
}

// greedyScratch loads Λ_R into the greedy's gain scratch, growing it to
// n, and refills the uncovered-set list with every stored set id when
// the scan path will read it.
func (c *Collection) greedyScratch(uncovered bool) {
	if len(c.gain) < int(c.n) {
		c.gain = make([]int64, c.n)
	}
	copy(c.gain, c.cov)
	c.uncov = c.uncov[:0]
	if uncovered {
		for id := range int32(c.stored()) {
			c.uncov = append(c.uncov, id)
		}
	}
}

// CoverageOf returns the number of stored sets intersecting the node set S.
// It reuses the epoch-stamped per-set marks, so it allocates nothing after
// the marks have grown to the pool size.
//
//asm:hotpath
func (c *Collection) CoverageOf(S []int32) int64 {
	c.buildIndex()
	epoch := c.nextEpoch()
	var seen int64
	for _, v := range S {
		for _, id := range c.IndexOf(v) {
			if c.marks[id] != epoch {
				c.marks[id] = epoch
				seen++
			}
		}
	}
	return seen
}

// Reset drops all sets in O(touched) — only the coverage counters that
// were actually incremented since the last Reset are zeroed — and keeps
// every allocated buffer for reuse by the next round.
func (c *Collection) Reset() {
	for _, v := range c.touched {
		c.cov[v] = 0
		c.inTouched[v] = false
	}
	c.touched = c.touched[:0]
	c.setPos = c.setPos[:0]
	c.setLen = c.setLen[:0]
	c.rootK = c.rootK[:0]
	c.data.reset()
	c.dead = 0
	c.idxBuilt = -1
	c.count = 0
	c.nodes = 0
}
