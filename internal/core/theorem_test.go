package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fairrank/internal/dataset"
	"fairrank/internal/metrics"
	"fairrank/internal/rank"
)

// TestTheorem41SwapProperty verifies the paper's Theorem 4.1: at any Full
// DCA step, if removing object q from the top-k and replacing it with
// object p (outside the top-k) would reduce the overall disparity, then the
// step allocates more bonus points to p than to q.
//
// The per-object bonus-score delta of the update B ← B - L·D is
// -L * (D · F_i), so the claim is equivalent to D · (F_p - F_q) < 0
// whenever the swap reduces ||D||. The test checks the implication on
// random populations and selections.
func TestTheorem41SwapProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(80)
		dims := 1 + rng.Intn(4)
		fair := make([][]float64, dims)
		for j := range fair {
			col := make([]float64, n)
			for i := range col {
				if rng.Float64() < 0.4 {
					col[i] = 1
				}
			}
			fair[j] = col
		}
		score := make([]float64, n)
		for i := range score {
			score[i] = rng.NormFloat64()
		}
		names := make([]string, dims)
		for j := range names {
			names[j] = "f" + string(rune('a'+j))
		}
		d, err := dataset.New([]string{"s"}, names, [][]float64{score}, fair, nil)
		if err != nil {
			return false
		}

		k := 1 + rng.Intn(n/2)
		sel := rank.Order(score)[:k]
		inTop := make([]bool, n)
		for _, i := range sel {
			inTop[i] = true
		}
		pop := d.FairCentroid()
		disp := metrics.DisparityAgainst(d, sel, pop)
		baseNorm := metrics.Norm(disp)

		fp := make([]float64, dims)
		fq := make([]float64, dims)
		// Try a handful of (p out, q in) pairs.
		for trial := 0; trial < 20; trial++ {
			p := rng.Intn(n)
			if inTop[p] {
				continue
			}
			q := sel[rng.Intn(k)]
			// Disparity after swapping q -> p.
			swapped := make([]int, 0, k)
			for _, i := range sel {
				if i != q {
					swapped = append(swapped, i)
				}
			}
			swapped = append(swapped, p)
			newNorm := metrics.Norm(metrics.DisparityAgainst(d, swapped, pop))
			if newNorm < baseNorm-1e-12 {
				// The swap reduces disparity; Theorem 4.1 demands that the
				// Full DCA step favors p: D · (F_p - F_q) < 0.
				d.FairRow(p, fp)
				d.FairRow(q, fq)
				dot := 0.0
				for j := range fp {
					dot += disp[j] * (fp[j] - fq[j])
				}
				if dot >= 0 {
					t.Logf("seed=%d n=%d k=%d: swap reduces norm (%v -> %v) but D·(Fp-Fq)=%v",
						seed, n, k, baseNorm, newNorm, dot)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestFullDCAReducesDisparity checks that the whole-dataset variant
// converges on a small synthetic population.
func TestFullDCAReducesDisparity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 4000
	fairCol := make([]float64, n)
	scoreCol := make([]float64, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.3 {
			fairCol[i] = 1
		}
		scoreCol[i] = 50 + 10*rng.NormFloat64() - 6*fairCol[i]
	}
	d, err := dataset.New([]string{"s"}, []string{"f"}, [][]float64{scoreCol}, [][]float64{fairCol}, nil)
	if err != nil {
		t.Fatal(err)
	}
	scorer := rank.WeightedSum{Weights: []float64{1}}
	opts := DefaultOptions()
	res, err := FullDCA(d, scorer, DisparityObjective(0.1), opts)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(d, scorer, rank.Beneficial)
	before, err := ev.Disparity(nil, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	after, err := ev.Disparity(res.Bonus, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Norm(after) > metrics.Norm(before)/3 {
		t.Errorf("FullDCA norm %v -> %v: insufficient reduction (bonus %v)",
			metrics.Norm(before), metrics.Norm(after), res.Bonus)
	}
	// The bonus should roughly recover the 6-point structural penalty.
	if res.Bonus[0] < 3 || res.Bonus[0] > 10 {
		t.Errorf("FullDCA bonus = %v, want ≈ 6", res.Bonus[0])
	}
}
