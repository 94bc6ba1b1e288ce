package sample

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Sampler draws index samples from a population of fixed size n. It is not
// safe for concurrent use; create one per goroutine.
type Sampler struct {
	n   int
	rng *rand.Rand

	// epoch state for Next. perm is kept across Reset and refilled in
	// place; fresh reports whether it holds the current seed's epoch.
	perm  []int
	pos   int
	fresh bool

	// displacement table for Uniform/UniformInto: a generation-stamped
	// open-addressing table keyed by position, standing in for the map of
	// a partial Fisher-Yates shuffle. It is sized to the draw (a power of
	// two above 4·len(dst)), not to the population, and grows only when a
	// larger draw arrives, so repeated draws allocate nothing. The stamp
	// is uint64 so service-scale draw counts cannot wrap it in practice
	// (2^32 draws take minutes; 2^64 take centuries), and the wrap path
	// below keeps the table correct even if it somehow does.
	slots []slot
	shift uint
	gen   uint64
}

// slot is one displacement entry: position key currently holds val. It is
// live only while gen equals the sampler's current stamp.
type slot struct {
	key, val int
	gen      uint64
}

// New returns a sampler over the population {0, ..., n-1} seeded with seed.
func New(n int, seed int64) *Sampler {
	return &Sampler{n: n, rng: rand.New(rand.NewSource(seed))}
}

// Reset reseeds the sampler in place: every later draw, epoch and Rand
// value is exactly what New(s.N(), seed) would produce, while the kept
// generator, epoch buffer and displacement table are reused. Nothing a
// previous, possibly abandoned, run drew survives it.
func (s *Sampler) Reset(seed int64) {
	s.rng.Seed(seed) // the stream of rand.New(rand.NewSource(seed))
	s.pos = 0
	s.fresh = false
}

// N reports the population size.
func (s *Sampler) N() int { return s.n }

// Rand exposes the underlying generator for callers that need auxiliary
// randomness (e.g. random bonus initialization) tied to the same seed.
func (s *Sampler) Rand() *rand.Rand { return s.rng }

// Uniform returns k distinct indices drawn uniformly at random, using a
// partial Fisher-Yates shuffle. It panics if k > n.
func (s *Sampler) Uniform(k int) []int {
	return s.UniformInto(make([]int, k))
}

// UniformInto fills dst with len(dst) distinct indices drawn uniformly at
// random and returns it. It is the allocation-free variant of Uniform: the
// partial Fisher-Yates displacement table is owned by the sampler and
// sized to the draw, so steady-state draws allocate nothing. The random
// stream consumed is identical to Uniform's. It panics if len(dst) > n.
func (s *Sampler) UniformInto(dst []int) []int {
	k := len(dst)
	if k > s.n {
		//fairlint:allow intoalloc -- error-path panic message; unreachable on a steady-state draw
		panic(fmt.Sprintf("sample: requested %d of %d", k, s.n))
	}
	if size := 1 << bits.Len(uint(4*k)); len(s.slots) < size {
		// Fresh slots carry stamp 0, which the counter below never hands
		// out, so the grown table starts empty.
		//fairlint:allow intoalloc -- one-time growth to the largest draw seen; steady-state draws allocate nothing (pinned by AllocsPerRun)
		s.slots = make([]slot, size)
		s.shift = uint(65 - bits.Len(uint(size)))
	}
	s.gen++
	if s.gen == 0 {
		// Stamp wrap: a stale entry stamped in a previous epoch of the
		// counter would be indistinguishable from a fresh one and could
		// inject a duplicate index into the draw, so invalidate every
		// entry explicitly before reusing stamp values.
		for h := range s.slots {
			s.slots[h].gen = 0
		}
		s.gen = 1
	}
	// Partial shuffle over a virtual identity permutation: remember only
	// the displaced entries. Step i swaps positions i and j ≥ i, but no
	// later step reads position i again, so only j's new value is stored:
	// one insert per step keeps the table at most a quarter full.
	for i := 0; i < k; i++ {
		j := i + s.rng.Intn(s.n-i)
		hj, ok := s.lookup(j)
		vj := j
		if ok {
			vj = s.slots[hj].val
		}
		vi := i
		if hi, ok := s.lookup(i); ok {
			vi = s.slots[hi].val
		}
		dst[i] = vj
		s.slots[hj] = slot{key: j, val: vi, gen: s.gen}
	}
	return dst
}

// lookup returns the slot holding position key under the current stamp and
// true, or the free slot where key belongs and false. Fibonacci hashing
// spreads nearby positions; linear probing resolves collisions.
func (s *Sampler) lookup(key int) (int, bool) {
	mask := len(s.slots) - 1
	for h := int(uint64(key) * 0x9E3779B97F4A7C15 >> s.shift); ; h = (h + 1) & mask {
		if s.slots[h].gen != s.gen {
			return h, false
		}
		if s.slots[h].key == key {
			return h, true
		}
	}
}

// Next returns the next k indices from the current randomized epoch,
// reshuffling when the epoch is exhausted. This is the "next sample in O"
// iterator of Algorithm 2: over an epoch every object is visited exactly
// once, which lowers the variance of the refinement steps relative to
// independent sampling. It panics if k > n.
func (s *Sampler) Next(k int) []int {
	if k > s.n {
		panic(fmt.Sprintf("sample: requested %d of %d", k, s.n))
	}
	if !s.fresh {
		if s.perm == nil {
			s.perm = make([]int, s.n)
		}
		// rand.Perm's own inside-out loop, into the kept buffer: the same
		// draws (including the no-op one at i = 0) and the same permutation.
		for i := range s.perm {
			j := s.rng.Intn(i + 1)
			s.perm[i] = s.perm[j]
			s.perm[j] = i
		}
		s.fresh = true
	}
	if s.pos+k > s.n {
		// Reshuffle and restart the epoch; partial remainders are dropped so
		// every sample has exactly k elements.
		s.rng.Shuffle(s.n, func(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] })
		s.pos = 0
	}
	out := s.perm[s.pos : s.pos+k]
	s.pos += k
	return out
}
