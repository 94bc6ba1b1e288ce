package metrics

import (
	"math/rand"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/rank"
)

// prefixTestDataset builds a dataset with irrational-ish fairness values so
// floating-point fold order actually matters, plus outcomes for FP counts.
func prefixTestDataset(t *testing.T, n int, seed int64) (*dataset.Dataset, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := dataset.NewBuilder([]string{"s"}, []string{"a", "b", "c"})
	for i := 0; i < n; i++ {
		score := []float64{rng.NormFloat64()}
		fair := []float64{rng.Float64(), float64(rng.Intn(2)), rng.Float64() * rng.Float64()}
		b.AddWithOutcome(score, fair, rng.Intn(3) == 0)
	}
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = d.Score(i, 0)
	}
	return d, rank.Order(scores)
}

// splitRows carves a flattened per-cut result of an *Into aggregator into
// one row of width w per cut.
func splitRows[T any](flat []T, w int) [][]T {
	out := make([][]T, len(flat)/w)
	for c := range out {
		out[c] = flat[c*w : (c+1)*w]
	}
	return out
}

func TestPrefixCentroidBitIdentical(t *testing.T) {
	d, order := prefixTestDataset(t, 400, 1)
	cuts := []int{1, 2, 37, 38, 200, 399, 400}
	dims := d.NumFair()
	rows := splitRows(PrefixCentroidInto(d, order, cuts, make([]float64, dims), make([]float64, len(cuts)*dims)), dims)
	for c, cut := range cuts {
		want := d.FairCentroidOf(order[:cut])
		for j := range want {
			if rows[c][j] != want[j] {
				t.Errorf("cut %d dim %d: prefix %v != pointwise %v", cut, j, rows[c][j], want[j])
			}
		}
	}
}

func TestPrefixGroupCountsMatchesScan(t *testing.T) {
	d, order := prefixTestDataset(t, 300, 2)
	cuts := []int{1, 5, 150, 300}
	rows := splitRows(PrefixGroupCountsInto(d, order, cuts, make([]int, len(cuts)*d.NumFair())), d.NumFair())
	for c, cut := range cuts {
		for j := 0; j < d.NumFair(); j++ {
			col := d.FairColumn(j)
			want := 0
			for _, i := range order[:cut] {
				if col[i] > 0.5 {
					want++
				}
			}
			if rows[c][j] != want {
				t.Errorf("cut %d dim %d: prefix count %d != %d", cut, j, rows[c][j], want)
			}
		}
	}
}

func TestPrefixFPCountsMatchesScan(t *testing.T) {
	d, order := prefixTestDataset(t, 300, 3)
	cuts := []int{1, 7, 144, 300}
	flat, all := make([]int, len(cuts)*d.NumFair()), make([]int, len(cuts))
	PrefixFPCountsInto(d, order, cuts, flat, all)
	rows := splitRows(flat, d.NumFair())
	for c, cut := range cuts {
		wantAll := 0
		for _, i := range order[:cut] {
			if !d.Outcome(i) {
				wantAll++
			}
		}
		if all[c] != wantAll {
			t.Errorf("cut %d: overall FP count %d != %d", cut, all[c], wantAll)
		}
		for j := 0; j < d.NumFair(); j++ {
			col := d.FairColumn(j)
			want := 0
			for _, i := range order[:cut] {
				if col[i] > 0.5 && !d.Outcome(i) {
					want++
				}
			}
			if rows[c][j] != want {
				t.Errorf("cut %d dim %d: FP count %d != %d", cut, j, rows[c][j], want)
			}
		}
	}
}

func TestPrefixDCGBitIdentical(t *testing.T) {
	d, order := prefixTestDataset(t, 500, 4)
	gains := make([]float64, d.N())
	for i := range gains {
		gains[i] = d.Score(i, 0)
	}
	cuts := []int{1, 3, 99, 100, 101, 499, 500}
	got := PrefixDCGInto(gains, order, cuts, make([]float64, len(cuts)))
	for c, cut := range cuts {
		want := DCG(gains, order, cut)
		if got[c] != want {
			t.Errorf("cut %d: prefix DCG %v != DCG %v (not bit-identical)", cut, got[c], want)
		}
	}
}

func TestImpactFromCountsMatchesWithin(t *testing.T) {
	d, order := prefixTestDataset(t, 250, 5)
	all := allIndices(d.N())
	for _, cut := range []int{1, 10, 125, 250} {
		want := DisparateImpactWithin(d, all, order[:cut])
		counts := PrefixGroupCountsInto(d, order, []int{cut}, make([]int, d.NumFair()))
		for j := 0; j < d.NumFair(); j++ {
			totWith := d.GroupSize(j)
			got := ImpactFromCounts(counts[j], totWith, cut-counts[j], d.N()-totWith)
			if got != want[j] {
				t.Errorf("cut %d dim %d: ImpactFromCounts %v != DisparateImpactWithin %v", cut, j, got, want[j])
			}
		}
	}
}

func TestImpactFromCountsEdgeCases(t *testing.T) {
	cases := []struct {
		selWith, totWith, selWithout, totWithout int
		want                                     float64
	}{
		{0, 0, 3, 10, 0},  // empty group
		{3, 10, 0, 0, 0},  // empty complement
		{0, 10, 0, 10, 0}, // nobody selected: parity
		{0, 10, 3, 10, -1},
		{3, 10, 0, 10, 1},
		{5, 10, 5, 10, 0}, // equal rates: parity
	}
	for _, c := range cases {
		if got := ImpactFromCounts(c.selWith, c.totWith, c.selWithout, c.totWithout); got != c.want {
			t.Errorf("ImpactFromCounts(%d,%d,%d,%d) = %v, want %v",
				c.selWith, c.totWith, c.selWithout, c.totWithout, got, c.want)
		}
	}
}

func TestPrefixCountMatchesSelectCount(t *testing.T) {
	for _, n := range []int{1, 2, 99, 80000} {
		for _, f := range []float64{1e-9, 0.01, 0.05, 0.5, 0.999, 1} {
			got, err := PrefixCount(n, f)
			if err != nil {
				t.Fatalf("PrefixCount(%d, %g): %v", n, f, err)
			}
			want, err := rank.SelectCount(n, f)
			if err != nil {
				t.Fatalf("SelectCount(%d, %g): %v", n, f, err)
			}
			if got != want {
				t.Errorf("PrefixCount(%d, %g) = %d, SelectCount = %d", n, f, got, want)
			}
		}
	}
	if _, err := PrefixCount(10, 0); err == nil {
		t.Error("PrefixCount accepted 0")
	}
	if _, err := PrefixCount(10, 1.5); err == nil {
		t.Error("PrefixCount accepted 1.5")
	}
}
