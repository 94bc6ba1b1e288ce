package rank

import (
	"fmt"
	"math"
	"slices"

	"fairrank/internal/dataset"
)

// Polarity states whether being selected is beneficial or adverse for the
// selected objects. It decides the sign with which bonus points enter the
// effective score and the direction of the DCA update.
type Polarity int

const (
	// Beneficial selections (school admission, resource allocation): bonus
	// points are added to the score to push disadvantaged objects *into*
	// the selection.
	Beneficial Polarity = iota
	// Adverse selections (recidivism flagging): the selection is the
	// negative outcome, so bonus points are subtracted from the score to
	// pull over-flagged objects *out of* the selection. This realizes the
	// paper's "negative for scenarios where a lower score is desirable".
	Adverse
)

// Sign returns +1 for Beneficial and -1 for Adverse.
func (p Polarity) Sign() float64 {
	if p == Adverse {
		return -1
	}
	return 1
}

// String implements fmt.Stringer.
func (p Polarity) String() string {
	if p == Adverse {
		return "adverse"
	}
	return "beneficial"
}

// Scorer computes the base (uncompensated) score of every object in a
// dataset. Implementations must be deterministic.
type Scorer interface {
	// BaseScores returns f(o) for every object, in object order.
	BaseScores(d *dataset.Dataset) []float64
}

// WeightedSum is the weighted-sum ranking function used by the NYC schools
// in the paper: f = 0.55*GPA + 0.45*TestScores. Weights are indexed by
// score attribute column.
type WeightedSum struct {
	Weights []float64
}

// BaseScores implements Scorer.
func (w WeightedSum) BaseScores(d *dataset.Dataset) []float64 {
	if len(w.Weights) != d.NumScore() {
		panic(fmt.Sprintf("rank: %d weights for %d score attributes", len(w.Weights), d.NumScore()))
	}
	out := make([]float64, d.N())
	for j, wj := range w.Weights {
		if wj == 0 {
			continue
		}
		col := d.ScoreColumn(j)
		for i, v := range col {
			out[i] += wj * v
		}
	}
	return out
}

// Column ranks by a single score attribute (e.g. the COMPAS decile score).
type Column struct {
	Index int
}

// BaseScores implements Scorer.
func (c Column) BaseScores(d *dataset.Dataset) []float64 {
	return append([]float64(nil), d.ScoreColumn(c.Index)...)
}

// Precomputed wraps an externally computed score vector (e.g. the output of
// an opaque black-box model); it must have one entry per object.
type Precomputed []float64

// BaseScores implements Scorer.
func (p Precomputed) BaseScores(d *dataset.Dataset) []float64 {
	if len(p) != d.N() {
		panic(fmt.Sprintf("rank: %d precomputed scores for %d objects", len(p), d.N()))
	}
	return append([]float64(nil), p...)
}

// EffectiveScores computes f_b(o) = f(o) + sign * (A_f · B) for the objects
// listed in idx, writing into dst (allocated when nil) and returning it.
// base is indexed by absolute object id. With Adverse polarity the bonus is
// subtracted, lowering the (undesirable) score of compensated objects.
//
// The common low-dimensional cases unroll the bonus dot product with the
// fairness columns hoisted out of the loop; the summation order (ascending
// dimension) matches FairDot exactly, so results are bit-identical.
func EffectiveScores(d *dataset.Dataset, base []float64, idx []int, bonus []float64, pol Polarity, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(idx))
	}
	sign := pol.Sign()
	cols := d.FairColumns()
	switch len(cols) {
	case 2:
		c0, c1 := cols[0], cols[1]
		b0, b1 := bonus[0], bonus[1]
		for r, i := range idx {
			dst[r] = base[i] + sign*(c0[i]*b0+c1[i]*b1)
		}
	case 3:
		c0, c1, c2 := cols[0], cols[1], cols[2]
		b0, b1, b2 := bonus[0], bonus[1], bonus[2]
		for r, i := range idx {
			dst[r] = base[i] + sign*(c0[i]*b0+c1[i]*b1+c2[i]*b2)
		}
	case 4:
		c0, c1, c2, c3 := cols[0], cols[1], cols[2], cols[3]
		b0, b1, b2, b3 := bonus[0], bonus[1], bonus[2], bonus[3]
		for r, i := range idx {
			dst[r] = base[i] + sign*(c0[i]*b0+c1[i]*b1+c2[i]*b2+c3[i]*b3)
		}
	default:
		for r, i := range idx {
			dst[r] = base[i] + sign*d.FairDot(i, bonus)
		}
	}
	return dst
}

// EffectiveScoresAll is EffectiveScores over the entire dataset, writing
// into dst (allocated when nil) and returning it.
func EffectiveScoresAll(d *dataset.Dataset, base, bonus []float64, pol Polarity, dst []float64) []float64 {
	n := d.N()
	if dst == nil {
		dst = make([]float64, n)
	}
	sign := pol.Sign()
	for i := 0; i < n; i++ {
		dst[i] = base[i] + sign*d.FairDot(i, bonus)
	}
	return dst
}

// CheckFraction validates a selection fraction (the paper's k): it must
// lie in (0, 1]. The check is population-independent, which lets
// objectives validate their fractions once at bind time.
func CheckFraction(frac float64) error {
	if math.IsNaN(frac) || frac <= 0 || frac > 1 {
		return fmt.Errorf("rank: selection fraction %v outside (0,1]", frac)
	}
	return nil
}

// SelectCount converts a selection fraction (the paper's k, in (0, 1]) into
// a count over n objects: round-half-up, at least 1, at most n.
func SelectCount(n int, frac float64) (int, error) {
	if err := CheckFraction(frac); err != nil {
		return 0, err
	}
	k := int(frac*float64(n) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k, nil
}

// higher reports whether item a ranks above item b: higher score first,
// ties broken by lower index so that every selection algorithm realizes the
// same total order.
func higher(scores []float64, a, b int) bool {
	if scores[a] != scores[b] {
		return scores[a] > scores[b]
	}
	return a < b
}

// Order returns all indices 0..len(scores)-1 sorted by descending score
// (ties by ascending index). This is the full ranking R of the paper.
func Order(scores []float64) []int {
	return OrderInto(scores, make([]int, len(scores)))
}

// OrderInto is the in-place variant of Order: it fills idx (length
// len(scores)) with the descending ranking and returns it, allocating
// nothing. The index tie-break makes the comparator a total order, so the
// result is the unique ranking regardless of sorting algorithm.
func OrderInto(scores []float64, idx []int) []int {
	for i := range idx {
		idx[i] = i
	}
	SortRanked(scores, idx)
	return idx
}

// SortRanked sorts idx in place into descending ranked order under the
// exact comparator of Order/OrderInto (higher score first, ties broken by
// lower index). Because that comparator is a total order, sorting any
// subset of a population's indices reproduces the relative order those
// indices hold in the full ranking — which is what lets a top-k selection
// (e.g. from TopKHeapInto) be turned into the ranking's leading prefix
// without sorting the whole population.
func SortRanked(scores []float64, idx []int) {
	slices.SortFunc(idx, func(a, b int) int {
		if a == b {
			return 0
		}
		if higher(scores, a, b) {
			return -1
		}
		return 1
	})
}

// TopK returns the indices of the k highest-scoring items in ranked order
// using a full sort. It panics if k is out of range; use SelectCount to
// derive k.
func TopK(scores []float64, k int) []int {
	checkK(len(scores), k)
	return Order(scores)[:k]
}

// TopKHeap returns the indices of the k highest-scoring items in
// unspecified order using a bounded min-heap: O(n log k) time, O(k) space.
// Membership is identical to TopK's first k elements.
func TopKHeap(scores []float64, k int) []int {
	return TopKHeapInto(scores, k, make([]int, 0, k))
}

// TopKHeapInto is the in-place variant of TopKHeap: buf provides the heap
// storage (its capacity must be at least k; its length is ignored) and the
// selected indices are returned in buf[:k]. The heap insertion sequence is
// identical to TopKHeap's, so the returned order matches exactly.
func TopKHeapInto(scores []float64, k int, buf []int) []int {
	checkK(len(scores), k)
	if k == 0 {
		return nil
	}
	h := buf[:0]
	// Closure-free min-heap so the hot loop allocates nothing; an item a is
	// "lower" (weaker) than b when higher(scores, b, a).
	for i := range scores {
		if len(h) < k {
			h = append(h, i)
			heapSiftUp(scores, h, len(h)-1)
			continue
		}
		if higher(scores, i, h[0]) { // i outranks the current weakest
			h[0] = i
			heapSiftDown(scores, h, 0)
		}
	}
	return h
}

// heapSiftUp restores the min-heap property upward from node.
func heapSiftUp(scores []float64, h []int, node int) {
	for node > 0 {
		parent := (node - 1) / 2
		if !higher(scores, h[parent], h[node]) {
			return
		}
		h[node], h[parent] = h[parent], h[node]
		node = parent
	}
}

// heapSiftDown restores the min-heap property downward from root.
func heapSiftDown(scores []float64, h []int, root int) {
	for {
		child := 2*root + 1
		if child >= len(h) {
			return
		}
		if child+1 < len(h) && higher(scores, h[child], h[child+1]) {
			child++
		}
		if !higher(scores, h[root], h[child]) {
			return
		}
		h[root], h[child] = h[child], h[root]
		root = child
	}
}

func checkK(n, k int) {
	if k < 0 || k > n {
		panic(fmt.Sprintf("rank: k=%d outside [0,%d]", k, n))
	}
}

// Selection bundles a selection fraction with the machinery to produce the
// selected set of a score vector.
type Selection struct {
	Frac float64 // fraction of objects selected, in (0,1]
}

// Select returns the top Frac of the given scores, ranked, using TopK.
func (s Selection) Select(scores []float64) ([]int, error) {
	k, err := SelectCount(len(scores), s.Frac)
	if err != nil {
		return nil, err
	}
	return TopK(scores, k), nil
}
