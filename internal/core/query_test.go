package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/metrics"
	"fairrank/internal/rank"
	"fairrank/internal/synth"
)

// TestBonusDimsRejectedEverywhere runs every public Evaluator entry point
// that takes a bonus vector with one entry too few and with extra
// entries. Each must return an error: a short vector used to index past
// its end inside the scoring pass, and a long one was silently
// truncated.
func TestBonusDimsRejectedEverywhere(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := bundleCohort(t, rng, 400, 4, true, false, false)
	ev := NewEvaluator(d, rank.WeightedSum{Weights: []float64{1}}, rank.Beneficial)
	ctx := context.Background()
	const k = 0.1
	entry := map[string]func(b []float64) error{
		"AnswerBatch": func(b []float64) error {
			_, err := ev.AnswerBatch(b, []BatchQuery{{Kind: BatchDisparity, K: k}})
			return err
		},
		"AnswerBatchCtx": func(b []float64) error {
			_, err := ev.AnswerBatchCtx(ctx, b, []BatchQuery{{Kind: BatchNDCG, K: k}})
			return err
		},
		"BundleStats": func(b []float64) error {
			_, err := ev.BundleStats(BundleStatsConfig{Bonus: b, K: k, Margins: 2})
			return err
		},
		"BundleStatsCtx": func(b []float64) error {
			_, err := ev.BundleStatsCtx(ctx, BundleStatsConfig{Bonus: b, K: k})
			return err
		},
		"Counterfactual": func(b []float64) error {
			_, err := ev.Counterfactual(b, k, 7)
			return err
		},
		"CounterfactualBatch": func(b []float64) error {
			_, err := ev.CounterfactualBatch(b, k, []int{1, 2})
			return err
		},
		"CounterfactualBatchCtx": func(b []float64) error {
			_, err := ev.CounterfactualBatchCtx(ctx, b, k, []int{3})
			return err
		},
		"AttributeDisparity": func(b []float64) error {
			_, err := ev.AttributeDisparity(b, k)
			return err
		},
		"Select":    func(b []float64) error { _, err := ev.Select(b, k); return err },
		"SelectCtx": func(b []float64) error { _, err := ev.SelectCtx(ctx, b, k); return err },
		"Disparity": func(b []float64) error { _, err := ev.Disparity(b, k); return err },
		"DisparityCtx": func(b []float64) error {
			_, err := ev.DisparityCtx(ctx, b, k)
			return err
		},
		"NDCG":    func(b []float64) error { _, err := ev.NDCG(b, k); return err },
		"NDCGCtx": func(b []float64) error { _, err := ev.NDCGCtx(ctx, b, k); return err },
		"LogDiscounted": func(b []float64) error {
			_, err := ev.LogDiscounted(b, metrics.LogDiscount{})
			return err
		},
		"DisparateImpact": func(b []float64) error { _, err := ev.DisparateImpact(b, k); return err },
		"FPRDiff":         func(b []float64) error { _, err := ev.FPRDiff(b, k); return err },
		"FindScaleForNDCG": func(b []float64) error {
			_, err := ev.FindScaleForNDCG(b, k, 0.5, 0)
			return err
		},
		"Explain":    func(b []float64) error { _, err := ev.Explain(b, k); return err },
		"ExplainCtx": func(b []float64) error { _, err := ev.ExplainCtx(ctx, b, k); return err },
		"Exposure":   func(b []float64) error { _, _, err := ev.Exposure(b, k); return err },
		"ExposureCtx": func(b []float64) error {
			_, _, err := ev.ExposureCtx(ctx, b, k)
			return err
		},
		"ExposureRatio": func(b []float64) error { _, err := ev.ExposureRatio(b, k); return err },
		"ExposureRatioCtx": func(b []float64) error {
			_, err := ev.ExposureRatioCtx(ctx, b, k)
			return err
		},
		"TopKShare":    func(b []float64) error { _, err := ev.TopKShare(b, k); return err },
		"TopKShareCtx": func(b []float64) error { _, err := ev.TopKShareCtx(ctx, b, k); return err },
		"Sweep": func(b []float64) error {
			_, _, err := ev.Sweep(ctx, BatchTopK, []SweepPoint{{Bonus: b, K: k}})
			return err
		},
	}
	sweeps := map[string]func([]SweepPoint) ([][]float64, error){
		"DisparitySweep":       ev.DisparitySweep,
		"DisparateImpactSweep": ev.DisparateImpactSweep,
		"FPRDiffSweep":         ev.FPRDiffSweep,
		"ExposureSweep":        ev.ExposureSweep,
		"ExpRatioSweep":        ev.ExpRatioSweep,
		"TopKSweep":            ev.TopKSweep,
		"NDCGSweep": func(pts []SweepPoint) ([][]float64, error) {
			_, err := ev.NDCGSweep(pts)
			return nil, err
		},
	}
	for name, sweep := range sweeps {
		entry[name] = func(b []float64) error {
			_, err := sweep([]SweepPoint{{Bonus: b, K: k}})
			return err
		}
	}

	for _, bonus := range [][]float64{{1}, {1, 2, 3, 4, 5, 6}} {
		for name, call := range entry {
			err := func() (err error) {
				defer func() {
					if v := recover(); v != nil {
						err = fmt.Errorf("panic: %v", v)
					}
				}()
				return call(bonus)
			}()
			if err == nil || !strings.Contains(err.Error(), "dimensions") {
				t.Errorf("%s with a %d-entry bonus on %d dims: err = %v, want a dimension error", name, len(bonus), d.NumFair(), err)
			}
		}
	}
}

// TestSingleQueryPassBudget pins the ranked-pass budget of every
// single-query entry point through the engine's counter hooks
// (RankingCount + MergeCount): one pass for a cold non-zero bonus, plus
// one leave-one-out pass per non-zero attribute for a bundle, and none at
// all for a zero bonus, which reads the cached base order. The cohort is
// the merge evaluator's, restricted to its binary attributes and given
// outcomes so that the exposure family and the FPR section can answer.
func TestSingleQueryPassBudget(t *testing.T) {
	school := mergeEvaluator(t, 4000).Dataset()
	cols := []int{0, 1, 3} // Low-Income, ELL, Special-Ed
	names, fair := make([]string, len(cols)), make([][]float64, len(cols))
	for r, c := range cols {
		names[r], fair[r] = school.FairNames()[c], school.FairColumn(c)
	}
	outcome := make([]bool, school.N())
	for i := range outcome {
		outcome[i] = i%3 == 0
	}
	score := [][]float64{school.ScoreColumn(0), school.ScoreColumn(1)}
	d, err := dataset.New(school.ScoreNames(), names, score, fair, outcome)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(d, rank.WeightedSum{Weights: synth.SchoolScoreWeights()}, rank.Beneficial)
	if _, ok := ev.RunStats(); !ok {
		t.Fatal("binary school cohort built no combo runs")
	}

	const k = 0.05
	objs := []int{0, 17, 3999}
	cases := []struct {
		name string
		call func(bonus []float64) error
		loo  bool // a bundle adds one leave-one-out pass per non-zero attribute
	}{
		{"NDCG", func(b []float64) error { _, err := ev.NDCG(b, k); return err }, false},
		{"Exposure", func(b []float64) error { _, _, err := ev.Exposure(b, k); return err }, false},
		{"ExposureRatio", func(b []float64) error { _, err := ev.ExposureRatio(b, k); return err }, false},
		{"TopKShare", func(b []float64) error { _, err := ev.TopKShare(b, k); return err }, false},
		{"CounterfactualBatch", func(b []float64) error { _, err := ev.CounterfactualBatch(b, k, objs); return err }, false},
		{"Explain", func(b []float64) error { _, err := ev.Explain(b, k); return err }, false},
		{"BundleStats", func(b []float64) error {
			_, err := ev.BundleStats(BundleStatsConfig{Bonus: b, K: k, Margins: 3, IncludeFPR: true, IncludeExposure: true})
			return err
		}, true},
	}
	bonus := []float64{2, 11, 0}
	for _, tc := range cases {
		for _, b := range [][]float64{bonus, nil, {0, 0, 0}} {
			want := int64(0)
			if !isZero(b) {
				want = 1
				if tc.loo {
					want += 2 // two non-zero attributes
				}
			}
			before := ev.RankingCount() + ev.MergeCount()
			if err := tc.call(b); err != nil {
				t.Fatalf("%s(%v): %v", tc.name, b, err)
			}
			if got := ev.RankingCount() + ev.MergeCount() - before; got != want {
				t.Errorf("%s(%v) took %d ranked passes, want %d", tc.name, b, got, want)
			}
		}
	}
}

// FuzzAnswerBatch is the fuzz smoke for the one answer path. A bonus of
// any length (finite, non-negative entries), any query kinds, a fraction,
// object ids and a margin window go into AnswerBatch. It must never
// panic; it must refuse a wrong-length bonus, a bad fraction, an unknown
// kind, an out-of-range object and negative margins; and every metric
// query it answers must equal Evaluator.Sweep at the same point, bit for
// bit, as every counterfactual query must equal CounterfactualBatch.
func FuzzAnswerBatch(f *testing.F) {
	const n, dims = 120, 3
	rng := rand.New(rand.NewSource(8))
	d := bundleCohort(f, rng, n, dims, true, true, false)
	ev := NewEvaluator(d, rank.WeightedSum{Weights: []float64{1}}, rank.Adverse)

	// Bonus entries are bytes/8; kinds are bytes mod 10 (9 is no kind);
	// object ids are bytes-8, so both negative and out-of-range ids occur.
	f.Add([]byte{8, 16, 4}, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8}, 1.0/n, []byte{8, 20}, int8(3))
	f.Add([]byte{8, 16, 4}, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8}, 1.0, []byte{8, 127}, int8(200-256))
	f.Add([]byte{0, 0, 0}, []byte{1, 4, 7}, 0.5, []byte{}, int8(1))
	f.Add([]byte{}, []byte{0, 7}, 0.25, []byte{9}, int8(0))
	f.Add([]byte{8, 8}, []byte{0}, 0.1, []byte{}, int8(0))
	f.Add([]byte{8, 8, 8, 8}, []byte{6}, 0.1, []byte{}, int8(0))
	f.Add([]byte{3, 0, 5}, []byte{9}, 0.1, []byte{}, int8(0))
	f.Add([]byte{3, 0, 5}, []byte{2}, 0.0, []byte{}, int8(0))
	f.Add([]byte{3, 0, 5}, []byte{4}, 1.5, []byte{}, int8(0))
	f.Add([]byte{3, 0, 5}, []byte{4}, math.NaN(), []byte{}, int8(0))
	f.Add([]byte{3, 0, 5}, []byte{4}, 0.1, []byte{0}, int8(0))
	f.Add([]byte{3, 0, 5}, []byte{5}, 0.1, []byte{}, int8(-1))

	f.Fuzz(func(t *testing.T, bonusRaw, kindRaw []byte, k float64, objRaw []byte, margins int8) {
		if len(bonusRaw) > 8 || len(kindRaw) > 12 || len(objRaw) > 12 {
			return
		}
		var bonus []float64
		for _, b := range bonusRaw {
			bonus = append(bonus, float64(b)/8)
		}
		objs := make([]int, len(objRaw))
		badObj := false
		for i, b := range objRaw {
			objs[i] = int(b) - 8
			badObj = badObj || objs[i] < 0 || objs[i] >= n
		}
		qs := make([]BatchQuery, len(kindRaw))
		wantErr := (bonus != nil && len(bonus) != dims) || rank.CheckFraction(k) != nil
		for i, b := range kindRaw {
			q := BatchQuery{Kind: BatchKind(b % 10), K: k}
			switch q.Kind {
			case BatchCounterfactual:
				q.Objects = objs
				wantErr = wantErr || badObj
			case BatchBundle:
				q.Bundle = &BundleStatsConfig{Bonus: bonus, K: k, Margins: int(margins), IncludeFPR: true, IncludeExposure: true}
				wantErr = wantErr || margins < 0
			case 9:
				wantErr = true
			}
			qs[i] = q
		}
		if len(qs) == 0 {
			wantErr = bonus != nil && len(bonus) != dims // an empty batch only checks the bonus
		}

		answers, err := ev.AnswerBatch(bonus, qs)
		if wantErr {
			if err == nil {
				t.Fatalf("AnswerBatch(%v, %+v) answered, want an error", bonus, qs)
			}
			return
		}
		if err != nil {
			t.Fatalf("AnswerBatch(%v, %+v): %v", bonus, qs, err)
		}
		for i, q := range qs {
			a := answers[i]
			switch q.Kind {
			case BatchCounterfactual:
				want, err := ev.CounterfactualBatch(bonus, k, q.Objects)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a.Counterfactuals, want) {
					t.Errorf("query %d: counterfactuals %+v, CounterfactualBatch %+v", i, a.Counterfactuals, want)
				}
			case BatchBundle:
				if a.Err == nil && a.Bundle == nil {
					t.Errorf("query %d: bundle answer without a bundle or an error", i)
				}
			default:
				vecs, vals, err := ev.Sweep(context.Background(), q.Kind, []SweepPoint{{Bonus: bonus, K: k}})
				if (err != nil) != (a.Err != nil) {
					t.Fatalf("query %d (kind %d): answer err %v, sweep err %v", i, q.Kind, a.Err, err)
				}
				if err != nil {
					continue
				}
				var wantVec []float64
				if vecs != nil {
					wantVec = vecs[0]
				}
				var wantVal float64
				if vals != nil {
					wantVal = vals[0]
				}
				if !sameBits(a.Vector, wantVec) || math.Float64bits(a.Value) != math.Float64bits(wantVal) {
					t.Errorf("query %d (kind %d): answer (%v, %v), sweep (%v, %v)", i, q.Kind, a.Vector, a.Value, wantVec, wantVal)
				}
			}
		}
	})
}

// sameBits compares two float rows bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
