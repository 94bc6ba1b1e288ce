// Fixture: internal/rank is where sorting legitimately lives; the
// rankonce analyzer must not fire here at all.
package rank

import "sort"

func Order(scores []float64) []int {
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	return OrderInto(scores, order)
}

func OrderInto(scores []float64, order []int) []int {
	sort.Slice(order, func(i, j int) bool { return scores[order[i]] > scores[order[j]] })
	return order
}

func TopKHeapInto(scores []float64, k int, dst []int) []int { return Order(scores)[:k] }

func SortRanked(scores []float64, ids []int) {}

func EffectiveScoresAll(scores []float64) []float64 { return scores }

type ComboRuns struct{}

func (c *ComboRuns) MergeTopKInto(k int, dst []int) []int { return dst[:k] }
