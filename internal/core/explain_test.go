package core

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/oracle"
	"fairrank/internal/rank"
)

// oracleReport is the independent reference for ev's selection side: the
// oracle ranks the population by Definition 2 with a plain stable sort
// and shares no code with the engine.
func oracleReport(ev *Evaluator, bonus []float64, k float64) oracle.Report {
	return oracle.Explain(ev.Dataset(), ev.BaseScores(), bonus, ev.Polarity() == rank.Adverse, k)
}

// checkExplainAgainstOracle compares every selection-side field of
// Explain with the oracle, floats with ==, and the per-object breakdown
// of the objects around the cutoff with the oracle's scores and
// selection.
func checkExplainAgainstOracle(t *testing.T, ev *Evaluator, bonus []float64, k float64) {
	t.Helper()
	exp, err := ev.Explain(bonus, k)
	if err != nil {
		t.Fatalf("Explain(%v, %v): %v", bonus, k, err)
	}
	ref := oracleReport(ev, bonus, k)
	if exp.K != k || exp.Selected != ref.Selected || exp.Cutoff != ref.Cutoff || exp.BaseCutoff != ref.BaseCutoff {
		t.Errorf("bonus %v k %v: (k %v, %d, %v, %v) vs oracle (%d, %v, %v)", bonus, k,
			exp.K, exp.Selected, exp.Cutoff, exp.BaseCutoff, ref.Selected, ref.Cutoff, ref.BaseCutoff)
	}
	if !slices.Equal(exp.GroupCounts, ref.GroupCounts) || !slices.Equal(exp.BaseGroupCounts, ref.BaseGroupCounts) {
		t.Errorf("bonus %v k %v: group counts %v/%v vs oracle %v/%v", bonus, k,
			exp.GroupCounts, exp.BaseGroupCounts, ref.GroupCounts, ref.BaseGroupCounts)
	}
	if !slices.Equal(exp.AdmittedByBonus, ref.Admitted) || !slices.Equal(exp.DisplacedByBonus, ref.Displaced) {
		t.Errorf("bonus %v k %v: beneficiary sets %v/%v vs oracle %v/%v", bonus, k,
			exp.AdmittedByBonus, exp.DisplacedByBonus, ref.Admitted, ref.Displaced)
	}
	if dims := ev.Dataset().NumFair(); len(exp.Bonus) != dims || (bonus != nil && !slices.Equal(exp.Bonus, bonus)) {
		t.Errorf("bonus copy %v, want %v (length %d)", exp.Bonus, bonus, dims)
	}
	sel := ref.Order[:ref.Selected]
	lo, hi := max(ref.Selected-4, 0), min(ref.Selected+4, len(ref.Order))
	for _, obj := range ref.Order[lo:hi] {
		oe, err := ev.ExplainObject(exp, obj)
		if err != nil {
			t.Fatal(err)
		}
		if oe.Effective != ref.Scores[obj] || oe.Selected != slices.Contains(sel, obj) {
			t.Errorf("bonus %v k %v object %d: effective %v selected %t, oracle %v %t", bonus, k,
				obj, oe.Effective, oe.Selected, ref.Scores[obj], slices.Contains(sel, obj))
		}
	}
}

// TestExplainMatchesOracle compares Explain with the oracle on random
// cohorts: both polarities, tied scores at the cutoff, zero and sparse
// bonus vectors, and a k-grid that always includes k=1/n and k=1.
func TestExplainMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(300)
		dims := 1 + rng.Intn(5)
		pol := rank.Beneficial
		if rng.Intn(2) == 0 {
			pol = rank.Adverse
		}
		d := bundleCohort(t, rng, n, dims, false, rng.Intn(2) == 0, rng.Intn(4) == 0)
		ev := NewEvaluator(d, rank.WeightedSum{Weights: []float64{1}}, pol)
		bonus := make([]float64, dims)
		for j := range bonus {
			if rng.Intn(3) > 0 {
				bonus[j] = float64(rng.Intn(8)) / 2
			}
		}
		for _, b := range [][]float64{bonus, make([]float64, dims), nil} {
			for _, k := range []float64{1 / float64(n), 1, 0.01 + 0.99*rng.Float64()} {
				checkExplainAgainstOracle(t, ev, b, k)
			}
		}
	}
}

// TestExplainNilBonusAndValidation: a nil bonus explains the
// uncompensated ranking with a zero bonus copy that ExplainObject and
// Summary can index, and a bonus of the wrong length or an empty dataset
// is rejected up front.
func TestExplainNilBonusAndValidation(t *testing.T) {
	d := tinyDataset(t, 2000, 21)
	ev := NewEvaluator(d, rank.WeightedSum{Weights: []float64{1}}, rank.Beneficial)
	exp, err := ev.Explain(nil, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(exp.Bonus, []float64{0}) || exp.Cutoff != exp.BaseCutoff || exp.AdmittedByBonus != nil {
		t.Errorf("nil bonus: Bonus %v, cutoffs %v/%v, admitted %v", exp.Bonus, exp.Cutoff, exp.BaseCutoff, exp.AdmittedByBonus)
	}
	oe, err := ev.ExplainObject(exp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if oe.BonusTotal != 0 || oe.Effective != oe.BaseScore {
		t.Errorf("nil bonus object 0: bonus total %v, effective %v, base %v", oe.BonusTotal, oe.Effective, oe.BaseScore)
	}
	if len(exp.Summary()) != 4 {
		t.Errorf("summary %q", exp.Summary())
	}
	if _, err := ev.Explain([]float64{1, 2}, 0.1); err == nil {
		t.Error("2-entry bonus on a 1-attribute dataset: expected an error")
	}
	empty, err := dataset.New([]string{"s"}, []string{"g"}, [][]float64{{}}, [][]float64{{}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eev := NewEvaluator(empty, rank.WeightedSum{Weights: []float64{1}}, rank.Beneficial)
	if _, err := eev.Explain([]float64{1}, 0.1); err == nil {
		t.Error("empty dataset: expected an error")
	}
}

// TestExplainRankedPassBudget pins the report's ranking work: a cold
// non-zero-bonus Explain takes exactly one ranked pass (a full ranking or
// a merge), a zero bonus none, and ExplainObject none even for an object
// tied exactly at the cutoff, where the report's last selected id
// decides. Both tie sides are checked against the oracle.
func TestExplainRankedPassBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	d := bundleCohort(t, rng, 400, 2, false, true, false)
	ev := NewEvaluator(d, rank.WeightedSum{Weights: []float64{1}}, rank.Beneficial)
	passes := func() int64 { return ev.RankingCount() + ev.MergeCount() }
	bonus, k := []float64{1, 2}, 0.25

	before := passes()
	if _, err := ev.Explain(nil, k); err != nil {
		t.Fatal(err)
	}
	if got := passes() - before; got != 0 {
		t.Errorf("zero-bonus Explain took %d ranked passes, want 0", got)
	}
	before = passes()
	exp, err := ev.Explain(bonus, k)
	if err != nil {
		t.Fatal(err)
	}
	if got := passes() - before; got != 1 {
		t.Errorf("cold Explain took %d ranked passes, want 1", got)
	}

	ref := oracleReport(ev, bonus, k)
	sel := ref.Order[:ref.Selected]
	last := sel[len(sel)-1]
	lower, higher := -1, -1
	for obj, s := range ref.Scores {
		if s != ref.Cutoff || obj == last {
			continue
		}
		if obj < last && lower < 0 {
			lower = obj
		}
		if obj > last {
			higher = obj
		}
	}
	if lower < 0 || higher < 0 {
		t.Fatalf("cohort has no tie on both sides of the cutoff (lower %d, higher %d)", lower, higher)
	}
	for _, obj := range []int{lower, higher} {
		before = passes()
		oe, err := ev.ExplainObject(exp, obj)
		if err != nil {
			t.Fatal(err)
		}
		if got := passes() - before; got != 0 {
			t.Errorf("ExplainObject(%d) took %d ranked passes, want 0", obj, got)
		}
		if want := slices.Contains(sel, obj); oe.Margin != 0 || oe.Selected != want {
			t.Errorf("tied object %d (last selected %d): margin %v selected %t, oracle %t", obj, last, oe.Margin, oe.Selected, want)
		}
	}
}

func TestExplainReport(t *testing.T) {
	d := tinyDataset(t, 2000, 21)
	scorer := rank.WeightedSum{Weights: []float64{1}}
	ev := NewEvaluator(d, scorer, rank.Beneficial)
	bonus := []float64{5} // the generator's structural penalty

	exp, err := ev.Explain(bonus, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Selected != 200 {
		t.Errorf("Selected = %d, want 200", exp.Selected)
	}
	// The compensated selection admits more protected members.
	if exp.GroupCounts[0] <= exp.BaseGroupCounts[0] {
		t.Errorf("bonus did not raise group count: %d vs %d", exp.GroupCounts[0], exp.BaseGroupCounts[0])
	}
	// Beneficiaries and displaced balance exactly (same selection size).
	if len(exp.AdmittedByBonus) != len(exp.DisplacedByBonus) {
		t.Errorf("admitted %d != displaced %d", len(exp.AdmittedByBonus), len(exp.DisplacedByBonus))
	}
	if len(exp.AdmittedByBonus) == 0 {
		t.Error("a binding bonus must admit someone new")
	}
	// Every beneficiary is protected (only they receive points here).
	for _, i := range exp.AdmittedByBonus {
		if d.Fair(i, 0) < 0.5 {
			t.Errorf("beneficiary %d is not protected", i)
		}
	}
	if exp.Cutoff == exp.BaseCutoff {
		t.Error("cutoffs should differ under a binding bonus")
	}

	// Summary mentions the key numbers.
	text := strings.Join(exp.Summary(), "\n")
	for _, want := range []string{"cutoff", "bonus points", "admitted"} {
		if !strings.Contains(text, want) {
			t.Errorf("summary missing %q:\n%s", want, text)
		}
	}
}

func TestExplainObjectBreakdown(t *testing.T) {
	d := tinyDataset(t, 2000, 22)
	scorer := rank.WeightedSum{Weights: []float64{1}}
	ev := NewEvaluator(d, scorer, rank.Beneficial)
	bonus := []float64{5}
	exp, err := ev.Explain(bonus, 0.1)
	if err != nil {
		t.Fatal(err)
	}

	sel, err := ev.Select(bonus, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	inSel := make(map[int]bool)
	for _, i := range sel {
		inSel[i] = true
	}
	for _, obj := range []int{sel[0], sel[len(sel)-1], exp.AdmittedByBonus[0]} {
		oe, err := ev.ExplainObject(exp, obj)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(oe.Effective-(oe.BaseScore+oe.BonusTotal)) > 1e-12 {
			t.Errorf("effective %v != base %v + bonus %v", oe.Effective, oe.BaseScore, oe.BonusTotal)
		}
		if oe.Selected != inSel[obj] {
			t.Errorf("object %d Selected = %t, want %t (margin %v)", obj, oe.Selected, inSel[obj], oe.Margin)
		}
		if d.Fair(obj, 0) > 0.5 && oe.PerAttribute[0] != 5 {
			t.Errorf("protected object %d attribute contribution = %v, want 5", obj, oe.PerAttribute[0])
		}
		if d.Fair(obj, 0) < 0.5 && oe.BonusTotal != 0 {
			t.Errorf("unprotected object %d received bonus %v", obj, oe.BonusTotal)
		}
	}
	// Everyone with a positive margin is selected and vice versa.
	for obj := 0; obj < d.N(); obj += 97 {
		oe, err := ev.ExplainObject(exp, obj)
		if err != nil {
			t.Fatal(err)
		}
		if oe.Margin > 1e-9 && !inSel[obj] {
			t.Errorf("object %d above cutoff (margin %v) but not selected", obj, oe.Margin)
		}
		if oe.Margin < -1e-9 && inSel[obj] {
			t.Errorf("object %d below cutoff (margin %v) but selected", obj, oe.Margin)
		}
	}
	if _, err := ev.ExplainObject(exp, -1); err == nil {
		t.Error("negative object id: expected error")
	}
	if _, err := ev.ExplainObject(exp, d.N()); err == nil {
		t.Error("out-of-range object id: expected error")
	}
}

func TestExplainAdversePolarity(t *testing.T) {
	d := tinyDataset(t, 1000, 23)
	scorer := rank.WeightedSum{Weights: []float64{1}}
	ev := NewEvaluator(d, scorer, rank.Adverse)
	exp, err := ev.Explain([]float64{3}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	// Under adverse polarity the per-attribute contribution is negative
	// for protected objects.
	var protectedObj int = -1
	for i := 0; i < d.N(); i++ {
		if d.Fair(i, 0) > 0.5 {
			protectedObj = i
			break
		}
	}
	oe, err := ev.ExplainObject(exp, protectedObj)
	if err != nil {
		t.Fatal(err)
	}
	if oe.PerAttribute[0] != -3 {
		t.Errorf("adverse contribution = %v, want -3", oe.PerAttribute[0])
	}
}

func TestEnsembleStability(t *testing.T) {
	d := tinyDataset(t, 4000, 24)
	scorer := rank.WeightedSum{Weights: []float64{1}}
	opts := DefaultOptions()
	res, err := Ensemble(d, scorer, DisparityObjective(0.1), opts, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 5 {
		t.Fatalf("runs = %d", len(res.Runs))
	}
	// The generator's penalty is 5: the cross-seed mean should sit nearby
	// with modest spread.
	if res.Mean[0] < 3 || res.Mean[0] > 7 {
		t.Errorf("ensemble mean = %v, want ≈ 5", res.Mean[0])
	}
	if res.Std[0] > 2 {
		t.Errorf("ensemble std = %v, suspiciously unstable", res.Std[0])
	}
	if m := math.Mod(res.Bonus[0], 0.5); m > 1e-9 && m < 0.5-1e-9 {
		t.Errorf("ensemble bonus %v not rounded to granularity", res.Bonus[0])
	}
	if _, err := Ensemble(d, scorer, DisparityObjective(0.1), opts, 0); err == nil {
		t.Error("zero runs: expected error")
	}
}

func TestEnsembleSingleRunMatchesRun(t *testing.T) {
	d := tinyDataset(t, 1000, 25)
	scorer := rank.WeightedSum{Weights: []float64{1}}
	opts := DefaultOptions()
	opts.Seed = 77
	ens, err := Ensemble(d, scorer, DisparityObjective(0.1), opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	single, err := Run(d, scorer, DisparityObjective(0.1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if ens.Mean[0] != single.Raw[0] {
		t.Errorf("single-run ensemble mean %v != run raw %v", ens.Mean[0], single.Raw[0])
	}
	if ens.Std[0] != 0 {
		t.Errorf("single-run std = %v, want 0", ens.Std[0])
	}
}
