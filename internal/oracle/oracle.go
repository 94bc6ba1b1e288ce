package oracle

import (
	"math"
	"sort"

	"fairrank/internal/dataset"
)

// Report is the selection side of a transparency report for one bonus
// vector at one selection fraction.
type Report struct {
	// Selected is the selection size, count(n, k).
	Selected int
	// Cutoff is the effective score of the last selected object under the
	// bonus; BaseCutoff the base score of the last uncompensated one.
	Cutoff     float64
	BaseCutoff float64
	// GroupCounts[j] counts selected objects with attribute j above 0.5;
	// BaseGroupCounts the same for the uncompensated selection.
	GroupCounts     []int
	BaseGroupCounts []int
	// Admitted lists, ascending, the objects selected under the bonus but
	// not without it; Displaced the reverse.
	Admitted  []int
	Displaced []int
	// Scores holds every object's effective score under the bonus, Order
	// the full ranking of those scores and BaseOrder that of the base
	// scores.
	Scores    []float64
	Order     []int
	BaseOrder []int
}

// scores returns every object's effective score by Definition 2,
// f(o) + sign·(A_f(o)·B): the dot product is summed in ascending
// dimension and the sign, -1 when adverse, is applied to the sum. A nil
// bonus is the zero vector.
func scores(d *dataset.Dataset, base, bonus []float64, adverse bool) []float64 {
	sign := 1.0
	if adverse {
		sign = -1
	}
	out := make([]float64, d.N())
	for i := range out {
		var dot float64
		for j := range bonus {
			dot += d.Fair(i, j) * bonus[j]
		}
		out[i] = base[i] + sign*dot
	}
	return out
}

// ranking returns every id ordered by score descending, equal scores by
// ascending id.
func ranking(s []float64) []int {
	ids := make([]int, len(s))
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(a, b int) bool {
		sa, sb := s[ids[a]], s[ids[b]]
		return sa > sb || (sa == sb && ids[a] < ids[b])
	})
	return ids
}

// count is the selection size of fraction k in (0, 1] over n objects:
// k·n rounded half up, at least 1 and at most n.
func count(n int, k float64) int {
	c := int(math.Floor(k*float64(n) + 0.5))
	return min(max(c, 1), n)
}

// Explain computes the report for bonus at fraction k in (0, 1] over a
// non-empty population with the given base scores.
func Explain(d *dataset.Dataset, base, bonus []float64, adverse bool, k float64) Report {
	r := Report{
		Selected:  count(d.N(), k),
		Scores:    scores(d, base, bonus, adverse),
		BaseOrder: ranking(base),
	}
	r.Order = ranking(r.Scores)
	sel, baseSel := r.Order[:r.Selected], r.BaseOrder[:r.Selected]
	r.Cutoff = r.Scores[sel[len(sel)-1]]
	r.BaseCutoff = base[baseSel[len(baseSel)-1]]
	r.GroupCounts = groupCounts(d, sel)
	r.BaseGroupCounts = groupCounts(d, baseSel)
	r.Admitted = minus(sel, baseSel)
	r.Displaced = minus(baseSel, sel)
	return r
}

func groupCounts(d *dataset.Dataset, sel []int) []int {
	out := make([]int, d.NumFair())
	for _, i := range sel {
		for j := range out {
			if d.Fair(i, j) > 0.5 {
				out[j]++
			}
		}
	}
	return out
}

// minus returns the ids of a that are not in b, ascending.
func minus(a, b []int) []int {
	in := make(map[int]bool, len(b))
	for _, i := range b {
		in[i] = true
	}
	var out []int
	for _, i := range a {
		if !in[i] {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}
