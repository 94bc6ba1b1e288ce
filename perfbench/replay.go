package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"

	"fairrank/internal/core"
	"fairrank/internal/metrics"
	"fairrank/internal/rank"
	"fairrank/internal/report"
	"fairrank/internal/sample"
	"fairrank/internal/service"
)

// replayer is the traced run: it sends each request to fairrankd, then
// re-asks it at every layer boundary below HTTP, one request at a time,
// recording a span around each call:
//
//	http                          round trip to fairrankd
//	└ service.handler.<kind>      in-process Server.Handler().ServeHTTP
//	  ├ core.<op>                 the core call the handler made, only when
//	  │ │                         the in-process service did the work cold
//	  │ ├ rank.merge              ComboRuns.MergeTopKInto at the largest prefix
//	  │ └ metrics.fold.<fold>     Prefix*Into at the request's cuts
//	  └ report.render.<format>    FromStats (cold only) + Render
//	probe                         the scan route and one sample draw, for
//	  ├ rank.effective_scores     comparison; not on the request's path
//	  ├ rank.topk_heap
//	  └ sample.draw
type replayer struct {
	tr       *tracer
	lib      *library
	batching bool
	handler  http.Handler
	cl       *http.Client
	base     string

	bundles map[string]*report.Bundle // built bundles, for rendering cached reports
	keep    func(i int) bool          // keep fairrankd's body of request i for the check
	kept    map[int][]byte
	prim    map[string]*primScratch

	ok, failed    int
	firstErrs     []string
	respBytes     []int
	steps         []int
	hits, lookups int
}

// primScratch holds one cohort's buffers for the primitive spans, sized
// once so the spans time the calls and not allocation.
type primScratch struct {
	merge     rank.MergeScratch
	all       []int // identity ids, the EffectiveScores index set
	ord, heap []int
	eff       []float64
	sum, fdst []float64
	cnt, fp   []int
	smp       *sample.Sampler
	draw      []int
}

func newReplayer(tr *tracer, lib *library, w workload, handler http.Handler, cl *http.Client, base string) *replayer {
	rp := &replayer{tr: tr, lib: lib, batching: w.batching, handler: handler, cl: cl, base: base,
		bundles: map[string]*report.Bundle{}, kept: map[int][]byte{}, prim: map[string]*primScratch{}}
	for name, c := range lib.cohorts {
		n, g := c.d.N(), c.d.NumFair()+1
		p := &primScratch{
			all: make([]int, n), ord: make([]int, n), heap: make([]int, n), eff: make([]float64, n),
			sum: make([]float64, g), fdst: make([]float64, 64*g), cnt: make([]int, 64*g), fp: make([]int, 64),
			smp: sample.New(n, 1), draw: make([]int, core.DefaultOptions().SampleSize),
		}
		for i := range p.all {
			p.all[i] = i
		}
		p.smp.UniformInto(p.draw) // the first draw allocates the sampler's table
		rp.prim[name] = p
	}
	return rp
}

// replay traces request i. A non-200 from fairrankd counts as failed; an
// in-process call that fails where fairrankd succeeded is an error.
func (rp *replayer) replay(i int, r request) error {
	var (
		status int
		body   []byte
		err    error
	)
	root := rp.tr.record("http", 0, i, func() { status, body, err = send(rp.cl, rp.base, r) })
	if err != nil || status != http.StatusOK {
		rp.failed++
		if len(rp.firstErrs) < 3 {
			rp.firstErrs = append(rp.firstErrs, fmt.Sprintf("%s %s: status %d err %v body %.200s", r.Method, r.Path, status, err, body))
		}
		return nil
	}
	rp.ok++
	rp.respBytes = append(rp.respBytes, len(body))
	if rp.keep != nil && rp.keep(i) {
		rp.kept[i] = body
	}

	var passes0 int64
	if r.Kind == "report" {
		if passes0, err = rp.inProcessPasses(); err != nil {
			return err
		}
	}
	var reqBody io.Reader
	if r.Body != nil {
		reqBody = bytes.NewReader(r.Body)
	}
	hreq := httptest.NewRequest(r.Method, r.Path, reqBody)
	rec := httptest.NewRecorder()
	h := rp.tr.record("service.handler."+r.Kind, root, i, func() { rp.handler.ServeHTTP(rec, hreq) })
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process %s %s: status %d: %s", r.Method, r.Path, rec.Code, rec.Body.Bytes())
	}

	c := rp.lib.cohorts[r.Dataset]
	ctx := context.Background()
	switch r.Kind {
	case "train":
		var resp service.TrainResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return err
		}
		rp.lookups++
		if resp.Cached {
			rp.hits++
			return nil
		}
		rp.steps = append(rp.steps, resp.Steps)
		obj, opts, err := c.trainOptions(r)
		if err != nil {
			return err
		}
		var res core.Result
		rp.tr.record("core.train", h, i, func() { res, err = c.trainer.TrainCtx(ctx, obj, opts) })
		if err != nil {
			return err
		}
		diag := rp.tr.record("core.diag", h, i, func() {
			if _, err = c.eval.DisparityCtx(ctx, res.Bonus, r.K); err == nil {
				_, err = c.eval.NDCGCtx(ctx, res.Bonus, r.K)
			}
		})
		if err != nil {
			return err
		}
		cnt, _ := rank.SelectCount(c.d.N(), r.K) // k was validated by the train itself
		rp.primitives(c, diag, i, res.Bonus, []int{cnt}, "centroid", "dcg")
		rp.probes(c, i, res.Bonus, cnt, true)

	case "evaluate":
		var resp service.EvaluateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return err
		}
		rp.lookups += len(r.Points)
		rp.hits += resp.CachedPoints
		missing := len(r.Points) - resp.CachedPoints
		if missing == 0 {
			return nil
		}
		pts := make([]core.SweepPoint, missing)
		cuts := make([]int, missing)
		for j := range pts {
			pts[j] = core.SweepPoint{Bonus: r.Points[j].Bonus, K: r.Points[j].K}
			if cuts[j], err = rank.SelectCount(c.d.N(), pts[j].K); err != nil {
				return err
			}
		}
		slices.Sort(cuts)
		cuts = slices.Compact(cuts)
		bonus := pts[0].Bonus
		id := rp.tr.record("core.sweep."+r.Metric, h, i, func() {
			if rp.batching {
				qs := make([]core.BatchQuery, len(pts))
				for j, pt := range pts {
					qs[j] = core.BatchQuery{Kind: batchKinds[r.Metric], K: pt.K}
				}
				_, err = c.eval.AnswerBatchCtx(ctx, bonus, qs)
			} else {
				err = sweep(ctx, c.eval, r.Metric, pts)
			}
		})
		if err != nil {
			return err
		}
		rp.markBatched(h, id)
		rp.primitives(c, id, i, bonus, cuts, foldsOf[r.Metric]...)
		rp.probes(c, i, bonus, cuts[len(cuts)-1], false)

	case "counterfactual":
		var resp service.CounterfactualResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return err
		}
		rp.lookups += len(r.Objects)
		rp.hits += resp.CachedObjects
		missing := len(r.Objects) - resp.CachedObjects
		if missing == 0 {
			return nil
		}
		objs := r.Objects[:missing]
		id := rp.tr.record("core.counterfactual", h, i, func() {
			if rp.batching {
				_, err = c.eval.AnswerBatchCtx(ctx, r.Bonus, []core.BatchQuery{{Kind: core.BatchCounterfactual, K: r.K, Objects: objs}})
			} else {
				_, err = c.eval.CounterfactualBatchCtx(ctx, r.Bonus, r.K, objs)
			}
		})
		if err != nil {
			return err
		}
		rp.markBatched(h, id)
		cnt, _ := rank.SelectCount(c.d.N(), r.K)
		rp.primitives(c, id, i, r.Bonus, []int{cnt})
		rp.probes(c, i, r.Bonus, cnt, false)

	case "report":
		passes1, err := rp.inProcessPasses()
		if err != nil {
			return err
		}
		cold := passes1 != passes0
		rp.lookups++
		cfg := c.bundleConfig(r)
		key := fmt.Sprintf("%s|%v|%g", r.Dataset, r.Bonus, r.K)
		var st *core.BundleStats
		if cold {
			id := rp.tr.record("core.bundle", h, i, func() {
				if rp.batching {
					var ans []core.BatchAnswer
					ans, err = c.eval.AnswerBatchCtx(ctx, r.Bonus, []core.BatchQuery{{Kind: core.BatchBundle, Bundle: &core.BundleStatsConfig{
						Bonus: cfg.Bonus, K: cfg.K, Margins: cfg.Margins, IncludeFPR: cfg.IncludeFPR, IncludeExposure: cfg.IncludeExposure,
					}}})
					if err == nil {
						st, err = ans[0].Bundle, ans[0].Err
					}
				} else {
					st, err = report.BuildBundleStatsCtx(ctx, c.eval, cfg)
				}
			})
			if err != nil {
				return err
			}
			rp.markBatched(h, id)
			cnt, _ := rank.SelectCount(c.d.N(), r.K)
			cut := min(cnt+cfg.Margins, c.d.N())
			folds := []string{"centroid", "dcg", "groupcounts"}
			if cfg.IncludeFPR {
				folds = append(folds, "fpcounts")
			}
			if cfg.IncludeExposure {
				folds = append(folds, "exposure")
			}
			rp.primitives(c, id, i, r.Bonus, []int{cnt, cut}, folds...)
			rp.probes(c, i, r.Bonus, cut, false)
		} else {
			rp.hits++
			if rp.bundles[key] == nil {
				b, err := report.BuildBundle(c.eval, cfg)
				if err != nil {
					return err
				}
				rp.bundles[key] = b
			}
		}
		rp.tr.record("report.render."+r.Format, h, i, func() {
			if cold {
				rp.bundles[key] = report.FromStats(c.eval, r.Dataset, st)
			}
			err = rp.bundles[key].Render(io.Discard, r.Format)
		})
		if err != nil {
			return err
		}

	case "explain":
		id := rp.tr.record("core.explain", h, i, func() {
			var exp *core.Explanation
			if exp, err = c.eval.ExplainCtx(ctx, r.Bonus, r.K); err == nil {
				_, err = c.eval.ExplainObject(exp, r.Object)
			}
		})
		if err != nil {
			return err
		}
		cnt, _ := rank.SelectCount(c.d.N(), r.K)
		rp.primitives(c, id, i, r.Bonus, []int{cnt}, "groupcounts")
		rp.probes(c, i, r.Bonus, cnt, false)
	}
	return nil
}

// markBatched flags a core span, and the handler span above it, as served
// through the micro-batcher.
func (rp *replayer) markBatched(handler, core int) {
	if rp.batching {
		rp.tr.get(handler).Batched = true
		rp.tr.get(core).Batched = true
	}
}

// primitives records the merge the core call's prefix ranking takes (both
// cohorts are merge-eligible) and the prefix folds its metrics run, at the
// request's bonus, cuts and largest prefix.
func (rp *replayer) primitives(c *cohort, parent, req int, bonus []float64, cuts []int, folds ...string) {
	p := rp.prim[c.name]
	top := cuts[len(cuts)-1]
	pre := p.ord[:top]
	rp.tr.record("rank.merge", parent, req, func() {
		pre, _ = c.runs.MergeTopKInto(bonus, c.pol, top, &p.merge, p.ord[:top], p.eff)
	})
	for _, f := range folds {
		rp.tr.record("metrics.fold."+f, parent, req, func() {
			switch f {
			case "centroid":
				metrics.PrefixCentroidInto(c.d, pre, cuts, p.sum, p.fdst)
			case "dcg":
				metrics.PrefixDCGInto(c.eval.BaseScores(), pre, cuts, p.fdst)
			case "groupcounts":
				metrics.PrefixGroupCountsInto(c.d, pre, cuts, p.cnt)
			case "fpcounts":
				metrics.PrefixFPCountsInto(c.d, pre, cuts, p.cnt, p.fp)
			case "exposure":
				metrics.PrefixExposureInto(c.d, pre, cuts, p.sum, p.fdst)
			}
		})
	}
}

// probes records the scan route to the same prefix (full effective-score
// pass plus bounded heap) and, for trains, one sample draw of the DCA
// sample size. They sit under their own root span: core did not run them.
func (rp *replayer) probes(c *cohort, req int, bonus []float64, top int, draw bool) {
	p := rp.prim[c.name]
	root := rp.tr.begin("probe", 0, req)
	rp.tr.record("rank.effective_scores", root, req, func() {
		rank.EffectiveScores(c.d, c.eval.BaseScores(), p.all, bonus, c.pol, p.eff)
	})
	rp.tr.record("rank.topk_heap", root, req, func() { rank.TopKHeapInto(p.eff, top, p.heap[:top]) })
	if draw {
		rp.tr.record("sample.draw", root, req, func() { p.smp.UniformInto(p.draw) })
	}
	rp.tr.end(root)
}

// inProcessPasses sums the in-process server's ranking and merge counters.
func (rp *replayer) inProcessPasses() (int64, error) {
	rankings, merges, err := datasetPasses(func(dst any) error {
		rec := httptest.NewRecorder()
		rp.handler.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/datasets", nil))
		return json.Unmarshal(rec.Body.Bytes(), dst)
	})
	return rankings + merges, err
}

// batchKinds maps each sweep metric to its micro-batch query kind, as the
// service's metric registry does.
var batchKinds = map[string]core.BatchKind{
	"disparity": core.BatchDisparity,
	"ndcg":      core.BatchNDCG,
	"di":        core.BatchDisparateImpact,
	"fpr":       core.BatchFPRDiff,
	"exposure":  core.BatchExposure,
	"topk":      core.BatchTopK,
}

// foldsOf names the prefix folds each sweep metric runs.
var foldsOf = map[string][]string{
	"disparity": {"centroid"},
	"ndcg":      {"dcg"},
	"di":        {"groupcounts"},
	"fpr":       {"fpcounts"},
	"exposure":  {"exposure"},
	"topk":      {"groupcounts"},
}

// sweep runs the sweep engine the service dispatches metric to.
func sweep(ctx context.Context, e *core.Evaluator, metric string, pts []core.SweepPoint) error {
	var err error
	switch metric {
	case "disparity":
		_, err = e.DisparitySweepCtx(ctx, pts)
	case "ndcg":
		_, err = e.NDCGSweepCtx(ctx, pts)
	case "di":
		_, err = e.DisparateImpactSweepCtx(ctx, pts)
	case "fpr":
		_, err = e.FPRDiffSweepCtx(ctx, pts)
	case "exposure":
		_, err = e.ExposureSweepCtx(ctx, pts)
	case "topk":
		_, err = e.TopKSweepCtx(ctx, pts)
	default:
		err = fmt.Errorf("no sweep for metric %q", metric)
	}
	return err
}
