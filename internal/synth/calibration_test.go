package synth

import (
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/metrics"
	"fairrank/internal/rank"
)

// TestSchoolBaselineDisparity checks that the calibrated generator
// reproduces the Table I baseline: disparity of the uncorrected top-5%
// selection approximately (-0.25, -0.11, -0.18, -0.19), norm ≈ 0.37.
func TestSchoolBaselineDisparity(t *testing.T) {
	cfg := DefaultSchoolConfig()
	cfg.N = 40000 // half cohort keeps the test fast; estimates are stable
	d, err := GenerateSchool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scorer := rank.WeightedSum{Weights: SchoolScoreWeights()}
	base := scorer.BaseScores(d)
	k, err := rank.SelectCount(d.N(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	sel := rank.Order(base)[:k]
	disp := metrics.Disparity(d, sel)
	norm := metrics.Norm(disp)
	t.Logf("baseline disparity: Low-Income=%.3f ELL=%.3f ENI=%.3f Special-Ed=%.3f norm=%.3f",
		disp[0], disp[1], disp[2], disp[3], norm)

	want := []float64{-0.25, -0.106, -0.176, -0.191}
	names := d.FairNames()
	for j, w := range want {
		if diff := disp[j] - w; diff < -0.05 || diff > 0.05 {
			t.Errorf("%s baseline disparity = %.3f, want %.3f ± 0.05", names[j], disp[j], w)
		}
	}
	if norm < 0.30 || norm > 0.45 {
		t.Errorf("baseline norm = %.3f, want ≈ 0.37", norm)
	}
}

// TestTailFactorDeepensTopDisparity checks the k-dependence mechanism:
// with penalties compounding toward the top of the ability distribution,
// the top-5% disparity must be deeper than with flat penalties of the
// same base size.
func TestTailFactorDeepensTopDisparity(t *testing.T) {
	base := DefaultSchoolConfig()
	base.N = 30000
	flat := base
	flat.TailFactor = 0
	dTail, err := GenerateSchool(base)
	if err != nil {
		t.Fatal(err)
	}
	dFlat, err := GenerateSchool(flat)
	if err != nil {
		t.Fatal(err)
	}
	scorer := rank.WeightedSum{Weights: SchoolScoreWeights()}
	top := func(ds *dataset.Dataset) float64 {
		base := scorer.BaseScores(ds)
		k, err := rank.SelectCount(ds.N(), 0.05)
		if err != nil {
			t.Fatal(err)
		}
		return metrics.Norm(metrics.Disparity(ds, rank.Order(base)[:k]))
	}
	if top(dTail) <= top(dFlat) {
		t.Errorf("tail factor should deepen the top-5%% disparity: tail %.3f vs flat %.3f", top(dTail), top(dFlat))
	}
}

// TestSchoolMarginals checks the demographic marginals the paper states.
func TestSchoolMarginals(t *testing.T) {
	cfg := DefaultSchoolConfig()
	cfg.N = 40000
	d, err := GenerateSchool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := d.FairCentroid()
	t.Logf("marginals: Low-Income=%.3f ELL=%.3f ENI=%.3f Special-Ed=%.3f", c[0], c[1], c[2], c[3])
	if c[0] < 0.67 || c[0] > 0.73 {
		t.Errorf("low income rate %.3f, want ≈ 0.70", c[0])
	}
	if c[1] < 0.08 || c[1] > 0.12 {
		t.Errorf("ELL rate %.3f, want ≈ 0.10", c[1])
	}
	if c[3] < 0.17 || c[3] > 0.23 {
		t.Errorf("special-ed rate %.3f, want ≈ 0.20", c[3])
	}
}
