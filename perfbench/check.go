package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"fairrank/internal/core"
	"fairrank/internal/metrics"
	"fairrank/internal/report"
	"fairrank/internal/service"
)

// verify re-asks r in-process through the library and compares the answer
// with fairrankd's 200 body. Every float must match bit for bit: both
// sides are re-encoded with the service's JSON settings, and Go encodes a
// float64 with the shortest text that parses back to the same bits.
// Fields that legitimately differ (elapsed time, cache flags) are zeroed.
func (lib *library) verify(r request, body []byte) error {
	c, ok := lib.cohorts[r.Dataset]
	if !ok {
		return fmt.Errorf("unknown dataset %q", r.Dataset)
	}
	switch r.Kind {
	case "train":
		var got service.TrainResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		got.ElapsedMicros, got.Cached = 0, false
		want, err := c.expectTrain(r)
		if err != nil {
			return err
		}
		return sameJSON(got, want)
	case "evaluate":
		var got service.EvaluateResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		got.CachedPoints = 0
		want, err := c.expectEvaluate(r)
		if err != nil {
			return err
		}
		return sameJSON(got, want)
	case "counterfactual":
		var got service.CounterfactualResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		got.CachedObjects = 0
		cfs, err := c.eval.CounterfactualBatch(r.Bonus, r.K, r.Objects)
		if err != nil {
			return err
		}
		want := service.CounterfactualResponse{Dataset: r.Dataset, K: r.K, FairNames: c.d.FairNames()}
		for _, cf := range cfs {
			want.Results = append(want.Results, service.CounterfactualResult{
				Object: cf.Object, Selected: cf.Selected, Rank: cf.Rank, Effective: cf.Effective,
				Cutoff: cf.Cutoff, Competitor: cf.Competitor, ScoreDelta: cf.ScoreDelta,
				BonusDelta: cf.BonusDelta, PerAttribute: cf.PerAttribute, Feasible: cf.Feasible,
			})
		}
		return sameJSON(got, want)
	case "report":
		b, err := report.BuildBundle(c.eval, c.bundleConfig(r))
		if err != nil {
			return err
		}
		var want bytes.Buffer
		if err := b.Render(&want, r.Format); err != nil {
			return err
		}
		if !bytes.Equal(body, want.Bytes()) {
			return fmt.Errorf("report bytes differ:\n got  %.300q\n want %.300q", body, want.Bytes())
		}
		return nil
	case "explain":
		var got service.ExplainResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want, err := c.expectExplain(r)
		if err != nil {
			return err
		}
		return sameJSON(got, want)
	}
	return fmt.Errorf("unknown request kind %q", r.Kind)
}

// trainOptions are the options fairrankd's /v1/train builds from a request
// that sets only dataset, objective, k and seed.
func (c *cohort) trainOptions(r request) (core.Objective, core.Options, error) {
	obj, err := core.ObjectiveByName(r.Objective, r.K)
	if err != nil {
		return nil, core.Options{}, err
	}
	opts := core.DefaultOptions()
	opts.Seed = r.Seed
	opts.Polarity = c.pol
	return obj, opts, nil
}

func (c *cohort) expectTrain(r request) (service.TrainResponse, error) {
	obj, opts, err := c.trainOptions(r)
	if err != nil {
		return service.TrainResponse{}, err
	}
	res, err := c.trainer.Train(obj, opts)
	if err != nil {
		return service.TrainResponse{}, err
	}
	before, err := c.eval.Disparity(nil, r.K)
	if err != nil {
		return service.TrainResponse{}, err
	}
	after, err := c.eval.Disparity(res.Bonus, r.K)
	if err != nil {
		return service.TrainResponse{}, err
	}
	ndcg, err := c.eval.NDCG(res.Bonus, r.K)
	if err != nil {
		return service.TrainResponse{}, err
	}
	return service.TrainResponse{
		Dataset: r.Dataset, Objective: r.Objective, K: r.K, Mode: service.ModeFull, Seed: r.Seed,
		Polarity: c.pol.String(), FairNames: c.d.FairNames(),
		Bonus: res.Bonus, Raw: res.Raw, CoreBonus: res.CoreBonus, Steps: res.Steps,
		DisparityBefore: before, DisparityAfter: after,
		NormBefore: metrics.Norm(before), NormAfter: metrics.Norm(after), NDCG: ndcg,
	}, nil
}

// expectEvaluate answers every sweep point with the pointwise evaluator
// methods, not the sweep engine the service uses.
func (c *cohort) expectEvaluate(r request) (service.EvaluateResponse, error) {
	want := service.EvaluateResponse{Dataset: r.Dataset, Metric: r.Metric, FairNames: c.d.FairNames()}
	for _, pt := range r.Points {
		var (
			row  []float64
			norm float64
			err  error
		)
		switch r.Metric {
		case "ndcg":
			var v float64
			if v, err = c.eval.NDCG(pt.Bonus, pt.K); err != nil {
				return want, err
			}
			want.Values = append(want.Values, v)
			continue
		case "disparity":
			row, err = c.eval.Disparity(pt.Bonus, pt.K)
		case "di":
			row, err = c.eval.DisparateImpact(pt.Bonus, pt.K)
		case "fpr":
			row, err = c.eval.FPRDiff(pt.Bonus, pt.K)
		case "topk":
			row, err = c.eval.TopKShare(pt.Bonus, pt.K)
		case "exposure":
			row, norm, err = c.eval.Exposure(pt.Bonus, pt.K)
		default:
			return want, fmt.Errorf("no pointwise check for metric %q", r.Metric)
		}
		if err != nil {
			return want, err
		}
		if r.Metric != "exposure" {
			norm = metrics.Norm(row)
		}
		want.Vectors = append(want.Vectors, row)
		want.Norms = append(want.Norms, norm)
	}
	return want, nil
}

func (c *cohort) expectExplain(r request) (service.ExplainResponse, error) {
	exp, err := c.eval.Explain(r.Bonus, r.K)
	if err != nil {
		return service.ExplainResponse{}, err
	}
	oe, err := c.eval.ExplainObject(exp, r.Object)
	if err != nil {
		return service.ExplainResponse{}, err
	}
	return service.ExplainResponse{
		Dataset: r.Dataset, K: exp.K, Selected: exp.Selected, Cutoff: exp.Cutoff,
		BaseCutoff: exp.BaseCutoff, Bonus: exp.Bonus, FairNames: exp.FairNames,
		GroupCounts: exp.GroupCounts, BaseGroupCounts: exp.BaseGroupCounts,
		AdmittedByBonus: exp.AdmittedByBonus, DisplacedByBonus: exp.DisplacedByBonus,
		Summary: exp.Summary(),
		Object: &service.ObjectExplainResponse{
			Object: oe.Object, BaseScore: oe.BaseScore, BonusTotal: oe.BonusTotal,
			PerAttribute: oe.PerAttribute, Effective: oe.Effective, Selected: oe.Selected, Margin: oe.Margin,
		},
	}, nil
}

// bundleConfig is the audit configuration /v1/report builds when only
// dataset, k, bonus and format are given: default margins, FPR whenever
// the dataset has outcomes, exposure whenever its attributes are binary.
func (c *cohort) bundleConfig(r request) report.BundleConfig {
	binary, _ := c.d.BinaryFairColumns()
	return report.BundleConfig{
		Dataset: r.Dataset, Bonus: r.Bonus, K: r.K, Margins: report.DefaultMargins,
		IncludeFPR: c.d.HasOutcomes(), IncludeExposure: binary && c.d.NumFair() > 0,
	}
}

func sameJSON(got, want any) error {
	g, w := encodeJSON(got), encodeJSON(want)
	if !bytes.Equal(g, w) {
		return fmt.Errorf("response differs from the library:\n got  %.400s\n want %.400s", g, w)
	}
	return nil
}

// encodeJSON encodes like the service's writeJSON.
func encodeJSON(v any) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // writes to a bytes.Buffer only fail on unsupported values, which these types exclude
	return b.Bytes()
}
