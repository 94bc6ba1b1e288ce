package rank

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"fairrank/internal/dataset"
)

func mustDataset(t testing.TB, scoreCols, fairCols [][]float64) *dataset.Dataset {
	t.Helper()
	scoreNames := make([]string, len(scoreCols))
	for i := range scoreNames {
		scoreNames[i] = "s" + string(rune('0'+i))
	}
	fairNames := make([]string, len(fairCols))
	for i := range fairNames {
		fairNames[i] = "f" + string(rune('0'+i))
	}
	d, err := dataset.New(scoreNames, fairNames, scoreCols, fairCols, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestWeightedSum(t *testing.T) {
	d := mustDataset(t,
		[][]float64{{80, 60}, {90, 50}},
		[][]float64{{1, 0}},
	)
	got := WeightedSum{Weights: []float64{0.55, 0.45}}.BaseScores(d)
	want := []float64{0.55*80 + 0.45*90, 0.55*60 + 0.45*50}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BaseScores = %v, want %v", got, want)
		}
	}
}

func TestWeightedSumMismatchPanics(t *testing.T) {
	d := mustDataset(t, [][]float64{{1}}, [][]float64{{0}})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on weight mismatch")
		}
	}()
	WeightedSum{Weights: []float64{1, 2}}.BaseScores(d)
}

func TestColumnAndPrecomputed(t *testing.T) {
	d := mustDataset(t, [][]float64{{1, 2}, {9, 8}}, [][]float64{{0, 1}})
	if got := (Column{Index: 1}).BaseScores(d); got[0] != 9 || got[1] != 8 {
		t.Errorf("Column scores = %v", got)
	}
	if got := (Precomputed{7, 6}).BaseScores(d); got[0] != 7 || got[1] != 6 {
		t.Errorf("Precomputed scores = %v", got)
	}
}

func TestEffectiveScoresPolarity(t *testing.T) {
	d := mustDataset(t,
		[][]float64{{10, 10}},
		[][]float64{{1, 0}, {0.5, 0}},
	)
	base := []float64{10, 10}
	bonus := []float64{2, 4}
	ben := EffectiveScores(d, base, []int{0, 1}, bonus, Beneficial, nil)
	if ben[0] != 10+2+2 || ben[1] != 10 {
		t.Errorf("beneficial scores = %v, want [14 10]", ben)
	}
	adv := EffectiveScores(d, base, []int{0, 1}, bonus, Adverse, nil)
	if adv[0] != 10-4 || adv[1] != 10 {
		t.Errorf("adverse scores = %v, want [6 10]", adv)
	}
	all := EffectiveScoresAll(d, base, bonus, Beneficial, nil)
	if !reflect.DeepEqual(all, ben) {
		t.Errorf("EffectiveScoresAll = %v, want %v", all, ben)
	}
}

func TestPolarityString(t *testing.T) {
	if Beneficial.String() != "beneficial" || Adverse.String() != "adverse" {
		t.Error("unexpected Polarity strings")
	}
	if Beneficial.Sign() != 1 || Adverse.Sign() != -1 {
		t.Error("unexpected Polarity signs")
	}
}

func TestSelectCount(t *testing.T) {
	tests := []struct {
		n       int
		frac    float64
		want    int
		wantErr bool
	}{
		{100, 0.05, 5, false},
		{100, 1, 100, false},
		{10, 0.001, 1, false}, // floor at 1
		{3, 0.5, 2, false},    // round half up: 1.5 -> 2
		{100, 0, 0, true},
		{100, -0.1, 0, true},
		{100, 1.1, 0, true},
	}
	for _, tc := range tests {
		got, err := SelectCount(tc.n, tc.frac)
		if (err != nil) != tc.wantErr {
			t.Errorf("SelectCount(%d, %v) error = %v", tc.n, tc.frac, err)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("SelectCount(%d, %v) = %d, want %d", tc.n, tc.frac, got, tc.want)
		}
	}
}

func TestOrderDescendingWithIndexTies(t *testing.T) {
	scores := []float64{3, 5, 3, 1}
	got := Order(scores)
	want := []int{1, 0, 2, 3} // ties (indices 0 and 2) by ascending index
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Order = %v, want %v", got, want)
	}
}

func TestTopKVariantsAgreeOnMembership(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		scores := make([]float64, n)
		for i := range scores {
			// Coarse values force plenty of ties.
			scores[i] = float64(rng.Intn(10))
		}
		k := rng.Intn(n + 1)
		ref := append([]int(nil), Order(scores)[:k]...)
		hp := append([]int(nil), TopKHeap(scores, k)...)
		sort.Ints(ref)
		sort.Ints(hp)
		return reflect.DeepEqual(ref, hp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTopKIsRanked(t *testing.T) {
	scores := []float64{1, 9, 4, 9, 2}
	got := TopKHeap(scores, 3)
	SortRanked(scores, got)
	want := []int{1, 3, 2} // 9 (idx1), 9 (idx3), 4 (idx2)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sorted TopKHeap = %v, want %v", got, want)
	}
	if prefix := Order(scores)[:3]; !reflect.DeepEqual(prefix, want) {
		t.Errorf("Order prefix = %v, want %v", prefix, want)
	}
}

func TestTopKPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic when k > n")
		}
	}()
	TopKHeap([]float64{1}, 2)
}
