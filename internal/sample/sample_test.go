package sample

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestUniformDistinctAndInRange(t *testing.T) {
	f := func(seed int64) bool {
		s := New(100, seed)
		idx := s.Uniform(30)
		if len(idx) != 30 {
			return false
		}
		seen := make(map[int]bool)
		for _, i := range idx {
			if i < 0 || i >= 100 || seen[i] {
				return false
			}
			seen[i] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUniformFullPopulation(t *testing.T) {
	s := New(10, 1)
	idx := s.Uniform(10)
	seen := make(map[int]bool)
	for _, i := range idx {
		seen[i] = true
	}
	if len(seen) != 10 {
		t.Errorf("Uniform(n) covered %d of 10", len(seen))
	}
}

func TestUniformIsApproximatelyUniform(t *testing.T) {
	s := New(10, 7)
	counts := make([]int, 10)
	const trials = 20000
	for i := 0; i < trials; i++ {
		for _, v := range s.Uniform(3) {
			counts[v]++
		}
	}
	// Every index should be hit about trials*3/10 = 6000 times.
	for i, c := range counts {
		if c < 5500 || c > 6500 {
			t.Errorf("index %d drawn %d times, want ≈ 6000", i, c)
		}
	}
}

func TestUniformPanicsWhenOversampling(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic when k > n")
		}
	}()
	New(5, 1).Uniform(6)
}

func TestNextCoversEpoch(t *testing.T) {
	s := New(12, 3)
	seen := make(map[int]int)
	// Exactly one epoch: 4 samples of 3.
	for b := 0; b < 4; b++ {
		for _, i := range s.Next(3) {
			seen[i]++
		}
	}
	if len(seen) != 12 {
		t.Fatalf("epoch covered %d of 12", len(seen))
	}
	for i, c := range seen {
		if c != 1 {
			t.Errorf("index %d visited %d times within one epoch", i, c)
		}
	}
}

func TestNextReshufflesOnPartialRemainder(t *testing.T) {
	s := New(10, 4)
	// Samples of 3: positions 0-2, 3-5, 6-8, then a reshuffle (remainder 1
	// is dropped). No panic, always size 3.
	for b := 0; b < 20; b++ {
		if got := s.Next(3); len(got) != 3 {
			t.Fatalf("sample %d has size %d", b, len(got))
		}
	}
}

func TestDeterminismBySeed(t *testing.T) {
	a := New(50, 9)
	b := New(50, 9)
	for i := 0; i < 5; i++ {
		x := a.Uniform(7)
		y := b.Uniform(7)
		for j := range x {
			if x[j] != y[j] {
				t.Fatalf("same seed diverged at draw %d: %v vs %v", i, x, y)
			}
		}
	}
	c := New(50, 10)
	diverged := false
	for i := 0; i < 5 && !diverged; i++ {
		x := a.Uniform(7)
		z := c.Uniform(7)
		for j := range x {
			if x[j] != z[j] {
				diverged = true
				break
			}
		}
	}
	if !diverged {
		t.Error("different seeds produced identical draws")
	}
}

func TestNextPanicsWhenOversampling(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic when k > n")
		}
	}()
	New(2, 1).Next(3)
}

// denseRef is the sampler as it was before the displacement table was
// sized to the draw: two population-sized arrays (value and generation
// stamp) for the partial Fisher-Yates shuffle, a fresh rand.Perm per
// epoch, and a new generator per seed. It is kept here as the reference
// the table-backed Sampler must reproduce draw for draw.
type denseRef struct {
	n       int
	rng     *rand.Rand
	perm    []int
	pos     int
	dispVal []int
	dispGen []uint64
	gen     uint64
}

func newDenseRef(n int, seed int64) *denseRef {
	return &denseRef{n: n, rng: rand.New(rand.NewSource(seed)), dispVal: make([]int, n), dispGen: make([]uint64, n)}
}

func (s *denseRef) uniformInto(dst []int) []int {
	s.gen++
	for i := range dst {
		j := i + s.rng.Intn(s.n-i)
		vj := j
		if s.dispGen[j] == s.gen {
			vj = s.dispVal[j]
		}
		vi := i
		if s.dispGen[i] == s.gen {
			vi = s.dispVal[i]
		}
		dst[i] = vj
		s.dispVal[j], s.dispGen[j] = vi, s.gen
		s.dispVal[i], s.dispGen[i] = vj, s.gen
	}
	return dst
}

func (s *denseRef) next(k int) []int {
	if s.perm == nil {
		s.perm = s.rng.Perm(s.n)
	}
	if s.pos+k > s.n {
		s.rng.Shuffle(s.n, func(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] })
		s.pos = 0
	}
	out := s.perm[s.pos : s.pos+k]
	s.pos += k
	return out
}

// drawPlan is a sequence of draw sizes over a population of n that
// includes k = 1, k = n and a run of growing k (each growth past the
// table's capacity reallocates it mid-sequence).
func drawPlan(rng *rand.Rand, n int) []int {
	plan := []int{1, n, 1}
	for k := 1; k <= n; k = 2*k + 1 {
		plan = append(plan, k)
	}
	for i := 0; i < 6; i++ {
		plan = append(plan, 1+rng.Intn(n))
	}
	return append(plan, n)
}

// TestUniformIntoMatchesDenseReference: the draw-sized table reproduces
// the dense-array algorithm index for index, over random populations and
// draw sequences that cover k = 1, k = n and a table that grows between
// calls, interleaved with epoch samples across reshuffles and raw Rand
// draws so any divergence in the consumed stream shows up downstream.
func TestUniformIntoMatchesDenseReference(t *testing.T) {
	meta := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		n := 1 + meta.Intn(300)
		seed := meta.Int63()
		got, want := New(n, seed), newDenseRef(n, seed)
		for step, k := range drawPlan(meta, n) {
			g := got.UniformInto(make([]int, k))
			w := want.uniformInto(make([]int, k))
			if !slices.Equal(g, w) {
				t.Fatalf("n=%d seed=%d draw %d (k=%d):\n got %v\nwant %v", n, seed, step, k, g, w)
			}
			e := 1 + meta.Intn(n)
			if g, w := got.Next(e), want.next(e); !slices.Equal(g, w) {
				t.Fatalf("n=%d seed=%d epoch sample %d (k=%d):\n got %v\nwant %v", n, seed, step, e, g, w)
			}
			if g, w := got.Rand().Int63(), want.rng.Int63(); g != w {
				t.Fatalf("n=%d seed=%d after draw %d: Rand diverged (%d vs %d)", n, seed, step, g, w)
			}
		}
	}
}

// TestResetMatchesNew: a sampler dirtied by draws, a mid-epoch position
// and a grown table, then Reset, produces exactly what a brand-new sampler
// with that seed does — Rand values, uniform draws, and epoch samples
// across several reshuffles.
func TestResetMatchesNew(t *testing.T) {
	meta := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 2 + meta.Intn(400)
		s := New(n, meta.Int63())
		s.UniformInto(make([]int, n))
		s.Next(1 + meta.Intn(n)) // leave the epoch mid-way
		s.UniformInto(make([]int, 1+meta.Intn(n)))

		seed := meta.Int63()
		s.Reset(seed)
		fresh := New(n, seed)
		if g, w := s.Rand().Float64(), fresh.Rand().Float64(); g != w {
			t.Fatalf("n=%d: Rand after Reset = %v, New gives %v", n, g, w)
		}
		for step := 0; step < 12; step++ {
			k := 1 + meta.Intn(n)
			if g, w := s.UniformInto(make([]int, k)), fresh.UniformInto(make([]int, k)); !slices.Equal(g, w) {
				t.Fatalf("n=%d step %d: UniformInto after Reset diverged:\n got %v\nwant %v", n, step, g, w)
			}
			e := 1 + meta.Intn(n)
			if g, w := s.Next(e), fresh.Next(e); !slices.Equal(g, w) {
				t.Fatalf("n=%d step %d: Next(%d) after Reset diverged:\n got %v\nwant %v", n, step, e, g, w)
			}
		}
	}
}

// TestSteadyStateDrawsAllocateNothing: once the table has grown to the
// draw and the epoch buffer exists, Reset, UniformInto and Next allocate
// nothing — the sampler a Trainer keeps costs no garbage per run.
func TestSteadyStateDrawsAllocateNothing(t *testing.T) {
	s := New(5000, 1)
	dst := make([]int, 500)
	s.UniformInto(dst)
	s.Next(500)
	seed := int64(1)
	allocs := testing.AllocsPerRun(20, func() {
		seed++
		s.Reset(seed)
		s.UniformInto(dst)
		s.UniformInto(dst[:100])
		for i := 0; i < 12; i++ { // crosses a reshuffle
			s.Next(500)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Reset+draws allocate %v objects, want 0", allocs)
	}
}

// TestUniformIntoGenerationWrap forces the generation stamp to wrap and
// checks that stale displacement entries from before the wrap cannot
// collide with fresh ones. Before the wrap was handled, the counter
// re-entered stamp values still present in the table from early draws,
// so a stale displaced index could masquerade as fresh state and inject
// a duplicate into the sample. The draw stream must also stay identical
// to a sampler that never wrapped: the stamp is bookkeeping, not
// randomness.
func TestUniformIntoGenerationWrap(t *testing.T) {
	const n, k = 64, 48
	s := New(n, 99)
	ref := New(n, 99)
	dst, refDst := make([]int, k), make([]int, k)
	// One draw to allocate the displacement table.
	s.UniformInto(dst)
	ref.UniformInto(refDst)
	// Poison the table with an entry for every position, all stamped
	// with exactly the stamp the counter hands out right after wrapping
	// (1) and all displacing to index 0: if the wrap does not invalidate
	// the table, every lookup resolves to the stale 0 and the draw
	// collapses into duplicates.
	for h := range s.slots {
		s.slots[h].gen = 0
	}
	s.gen = 1
	for pos := 0; pos < n; pos++ {
		h, _ := s.lookup(pos)
		s.slots[h] = slot{key: pos, val: 0, gen: 1}
	}
	// Jump the counter to the edge: the next draw wraps to 0 and restarts
	// at 1 — colliding with the poisoned stamps unless the wrap path
	// clears them.
	s.gen = ^uint64(0)
	for draw := 0; draw < 4; draw++ {
		got := s.UniformInto(dst)
		want := ref.UniformInto(refDst)
		seen := make(map[int]bool, k)
		for _, v := range got {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("draw %d across the wrap: invalid or duplicate index %d in %v", draw, v, got)
			}
			seen[v] = true
		}
		if !slices.Equal(got, want) {
			t.Errorf("draw %d: wrap changed the sampled stream:\n got %v\nwant %v", draw, got, want)
		}
	}
	// The wrap draw restarts the counter at 1; three more draws follow.
	if s.gen != 4 {
		t.Errorf("post-wrap generation = %d, want 4", s.gen)
	}
}
