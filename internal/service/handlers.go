package service

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"time"

	"fairrank/internal/core"
	"fairrank/internal/faultinject"
	"fairrank/internal/metrics"
	"fairrank/internal/rank"
	"fairrank/internal/report"
)

// statusClientClosedRequest is nginx's 499: the client disconnected
// before the response. Nobody reads the body, but access logs do, and it
// keeps client-gone distinct from server-fault in the status counters.
const statusClientClosedRequest = 499

// maxBodyBytes bounds a request body; the largest legitimate payload (a
// MaxSweepPoints evaluate sweep) stays well under it.
const maxBodyBytes = 8 << 20

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the status line is already out; nothing left to do on error
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// decodeJSON strictly parses a request body: size-capped, unknown fields
// rejected (a typo'd option silently ignored is a wrong what-if answer),
// trailing garbage rejected — a stray closing bracket included, which
// dec.More() would not see.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// entryOr404 resolves the dataset or answers 404.
func (s *Server) entryOr404(w http.ResponseWriter, name string) (*Entry, bool) {
	if name == "" {
		writeError(w, http.StatusBadRequest, "missing dataset")
		return nil, false
	}
	e, ok := s.reg.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown dataset %q", name)
		return nil, false
	}
	return e, true
}

func (s *Server) handleTrain(w http.ResponseWriter, r *http.Request) {
	var req TrainRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	p, err := req.normalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	e, ok := s.entryOr404(w, p.req.Dataset)
	if !ok {
		return
	}
	ctx := r.Context()
	v, cached, err := s.cachedFlight(ctx, p.cacheKey(), func() (any, error) {
		return s.runTrain(ctx, e, p)
	})
	if err != nil {
		writeHTTPError(w, r, err)
		return
	}
	resp := v.(TrainResponse)
	resp.Cached = cached
	writeJSON(w, http.StatusOK, resp)
}

// cachedFlight is the cold path of the whole-response endpoints (train
// and report): probe the LRU; on a miss, coalesce concurrent identical
// requests into one flight whose leader probes again — closing the race
// with a flight for the same key that completed after the first probe —
// then runs fn and caches its value only on success, so a failed or
// canceled pipeline caches nothing. cached reports that the value came
// from the LRU or from another caller's flight rather than from this
// caller's fn.
func (s *Server) cachedFlight(ctx context.Context, key string, fn func() (any, error)) (v any, cached bool, err error) {
	if v, ok := s.cache.get(key); ok {
		return v, true, nil
	}
	hit := false // written and read only by the leader's goroutine
	v, shared, err := s.flights.Do(ctx, key, func() (any, error) {
		if v, ok := s.cache.get(key); ok {
			hit = true
			return v, nil
		}
		v, err := fn()
		if err == nil {
			s.cache.put(key, v)
		}
		return v, err
	})
	return v, hit || shared, err
}

// cachedRows is the cold path of the per-row endpoints (evaluate points,
// counterfactual objects): every row the LRU holds under keys[i] answers
// from it, and one compute call answers the rest. missing lists request
// indexes in request order — a slice, never a map, so the gather is
// deterministic whatever the cache held (pinned by the gather-order tests)
// — and compute returns one row per missing index, in that order. Rows
// reach the cache only after compute succeeded, so a failed or canceled
// request (or a failed batch it rode) leaves every key cold.
func cachedRows[T any](s *Server, keys []string, compute func(missing []int) ([]T, error)) (rows []T, cached int, err error) {
	rows = make([]T, len(keys))
	var missing []int
	for i, key := range keys {
		if v, ok := s.cache.get(key); ok {
			rows[i] = v.(T)
			continue
		}
		missing = append(missing, i)
	}
	if len(missing) == 0 {
		return rows, len(keys), nil
	}
	fresh, err := compute(missing)
	if err != nil {
		return nil, 0, err
	}
	for r, i := range missing {
		rows[i] = fresh[r]
		s.cache.put(keys[i], fresh[r])
	}
	return rows, len(keys) - len(missing), nil
}

// writeHTTPError maps a pipeline failure to a response. Status-carrying
// errors answer with their own status (plus Retry-After when they say
// so). Context errors are split by *whose* context died: the request's
// own deadline is 504 and its own disconnect is 499, while a leader's
// context error reaching a healthy follower through a coalesced flight is
// 503 + Retry-After — the follower's retry will either find the cache
// warm or become the new leader. Anything else is an internal failure.
func writeHTTPError(w http.ResponseWriter, r *http.Request, err error) {
	var he *httpError
	if errors.As(err, &he) {
		if he.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(he.retryAfter))
		}
		writeError(w, he.status, "%s", he.msg)
		return
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		if r.Context().Err() != nil {
			writeError(w, http.StatusGatewayTimeout, "request deadline exceeded")
			return
		}
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "coalesced computation timed out; retry shortly")
	case errors.Is(err, context.Canceled):
		if r.Context().Err() != nil {
			writeError(w, statusClientClosedRequest, "client closed request")
			return
		}
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "coalesced computation canceled; retry shortly")
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// pipelineErr classifies an error out of a compute pipeline: context
// errors pass through untouched so writeHTTPError can apply the
// cancellation mapping, and so do status-carrying errors (a batch shed or
// panic keeps its own status); anything else was the request's mistake
// (or, for status 5xx, the server's) and is wrapped with the given status.
func pipelineErr(err error, status int) error {
	var he *httpError
	if errors.As(err, &he) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return &httpError{status: status, msg: err.Error()}
}

// runTrain is the cold train pipeline: train, then evaluate the
// diagnostics. It runs as the fn of a cachedFlight.
func (s *Server) runTrain(ctx context.Context, e *Entry, p *trainParams) (TrainResponse, error) {
	if err := faultinject.Fire(ctx, faultinject.SiteTrainStart); err != nil {
		return TrainResponse{}, err
	}
	s.trainExecs.Add(1)

	opts := p.opts
	opts.Polarity = e.pol
	t, err := e.acquire(ctx)
	if err != nil {
		return TrainResponse{}, err
	}
	var res core.Result
	switch p.mode {
	case ModeCore:
		res, err = t.TrainCoreCtx(ctx, p.obj, opts)
	case ModeWhole:
		res, err = t.TrainFullCtx(ctx, p.obj, opts)
	default:
		res, err = t.TrainCtx(ctx, p.obj, opts)
	}
	e.release(t)
	if err != nil {
		// Training fails on request/dataset mismatches the bind stage
		// rejects (e.g. an outcome-dependent objective on an outcome-less
		// dataset) — the caller's choice, not ours — or on cancellation,
		// which pipelineErr passes through for the context mapping.
		return TrainResponse{}, pipelineErr(err, http.StatusBadRequest)
	}

	// The baseline disparity reads the cached uncompensated order: no
	// ranked pass. The trained vector's disparity and nDCG are two queries
	// of one inline pass; a train never waits in the batch window.
	before, err := e.eval.DisparityCtx(ctx, nil, p.req.K)
	var answers []core.BatchAnswer
	if err == nil {
		answers, err = e.eval.AnswerBatchCtx(ctx, res.Bonus, []core.BatchQuery{
			{Kind: core.BatchDisparity, K: p.req.K},
			{Kind: core.BatchNDCG, K: p.req.K},
		})
	}
	if err == nil {
		err = cmp.Or(answers[0].Err, answers[1].Err)
	}
	if err != nil {
		return TrainResponse{}, pipelineErr(fmt.Errorf("evaluating trained vector: %w", err), http.StatusInternalServerError)
	}
	after := answers[0].Vector
	resp := TrainResponse{
		Dataset:         p.req.Dataset,
		Objective:       p.req.Objective,
		K:               p.req.K,
		Mode:            p.mode,
		Seed:            p.req.Seed,
		Polarity:        e.pol.String(),
		FairNames:       e.d.FairNames(),
		Bonus:           res.Bonus,
		Raw:             res.Raw,
		CoreBonus:       res.CoreBonus,
		Steps:           res.Steps,
		DisparityBefore: before,
		DisparityAfter:  after,
		NormBefore:      metrics.Norm(before),
		NormAfter:       metrics.Norm(after),
		NDCG:            answers[1].Value,
		ElapsedMicros:   res.Elapsed.Microseconds(),
	}
	return resp, nil
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req EvaluateRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	e, ok := s.entryOr404(w, req.Dataset)
	if !ok {
		return
	}
	spec, err := req.validate(e)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Coalesce concurrent identical sweeps; the leader probes the
	// per-point cache and computes only the missing rows.
	ctx := r.Context()
	v, _, err := s.flights.Do(ctx, req.requestKey(), func() (any, error) {
		return s.evaluateSweep(ctx, e, req, spec)
	})
	if err != nil {
		writeHTTPError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, v.(EvaluateResponse))
}

// evaluateSweep answers a sweep through cachedRows: rows are cached under
// (dataset, metric, bonus bits, k bits), so any earlier sweep that covered
// a point answers it — a subset of a cached k-grid costs len(points) map
// lookups, and a widened grid ranks once for just the new cuts.
func (s *Server) evaluateSweep(ctx context.Context, e *Entry, req EvaluateRequest, spec metricSpec) (EvaluateResponse, error) {
	if err := faultinject.Fire(ctx, faultinject.SiteEvaluateStart); err != nil {
		return EvaluateResponse{}, err
	}
	keys := make([]string, len(req.Points))
	for i, pt := range req.Points {
		keys[i] = pointKey(req.Dataset, req.Metric, pt)
	}
	sweep := func(missing []int) ([][]float64, []float64, error) {
		s.sweepExecs.Add(1)
		pts := make([]core.SweepPoint, len(missing))
		for r, i := range missing {
			pts[r] = core.SweepPoint{Bonus: req.Points[i].Bonus, K: req.Points[i].K}
		}
		if bonus, ok := batchableSweep(pts); ok {
			// Single bonus: the sweep is one batch of queries, sharing one
			// ranked pass with every other concurrent request on the same
			// (dataset, bonus) when batching is on.
			return s.batchSweep(ctx, e, spec, bonus, pts)
		}
		return e.eval.Sweep(ctx, spec.kind, pts)
	}
	resp := EvaluateResponse{Dataset: req.Dataset, Metric: req.Metric, FairNames: e.d.FairNames()}
	var err error
	if spec.scalar {
		resp.Values, resp.CachedPoints, err = cachedRows(s, keys, func(missing []int) ([]float64, error) {
			_, vals, err := sweep(missing)
			return vals, err
		})
	} else {
		resp.Vectors, resp.CachedPoints, err = cachedRows(s, keys, func(missing []int) ([][]float64, error) {
			vecs, _, err := sweep(missing)
			return vecs, err
		})
	}
	if err != nil {
		return EvaluateResponse{}, pipelineErr(err, http.StatusBadRequest)
	}
	if !spec.scalar {
		resp.Norms = make([]float64, len(resp.Vectors))
		for i, v := range resp.Vectors {
			if spec.ddpNorm {
				// Exposure rows are per-capita vectors; their norm is the
				// demographic-disparity finisher, recoverable from the row
				// alone (per-capita > 0 iff populated). Rows only enter the
				// cache from successful sweeps, which already rejected
				// degenerate prefixes, so the error arm is unreachable.
				resp.Norms[i], _ = metrics.DDPFromPerCapita(v)
			} else {
				resp.Norms[i] = metrics.Norm(v)
			}
		}
	}
	return resp, nil
}

// parseBonusParam parses the comma-separated ?bonus= vector through the
// dataset's bonus check.
func parseBonusParam(raw string, e *Entry) ([]float64, error) {
	parts := strings.Split(raw, ",")
	out := make([]float64, len(parts))
	for j, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bonus dimension %d: %v", j, err)
		}
		out[j] = v
	}
	return out, e.checkBonus(out)
}

// policyQuery parses the (k, bonus) policy of GET /v1/explain and
// /v1/report: a fraction in (0,1] and one bonus value per fairness
// attribute of the resolved dataset.
func policyQuery(e *Entry, q url.Values) (bonus []float64, k float64, err error) {
	if k, err = strconv.ParseFloat(q.Get("k"), 64); err != nil {
		return nil, 0, fmt.Errorf("bad k %q: %v", q.Get("k"), err)
	}
	if err := rank.CheckFraction(k); err != nil {
		return nil, 0, err
	}
	if q.Get("bonus") == "" {
		return nil, 0, errors.New("missing bonus (comma-separated, one value per fairness attribute)")
	}
	bonus, err = parseBonusParam(q.Get("bonus"), e)
	return bonus, k, err
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	e, ok := s.entryOr404(w, q.Get("dataset"))
	if !ok {
		return
	}
	bonus, k, err := policyQuery(e, q)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx := r.Context()
	if err := faultinject.Fire(ctx, faultinject.SiteExplainStart); err != nil {
		writeHTTPError(w, r, err)
		return
	}
	exp, err := e.eval.ExplainCtx(ctx, bonus, k)
	if err != nil {
		writeHTTPError(w, r, pipelineErr(err, http.StatusBadRequest))
		return
	}
	resp := ExplainResponse{
		Dataset:          e.name,
		K:                exp.K,
		Selected:         exp.Selected,
		Cutoff:           exp.Cutoff,
		BaseCutoff:       exp.BaseCutoff,
		Bonus:            exp.Bonus,
		FairNames:        exp.FairNames,
		GroupCounts:      exp.GroupCounts,
		BaseGroupCounts:  exp.BaseGroupCounts,
		AdmittedByBonus:  exp.AdmittedByBonus,
		DisplacedByBonus: exp.DisplacedByBonus,
		Summary:          exp.Summary(),
	}
	if objRaw := q.Get("object"); objRaw != "" {
		obj, err := strconv.Atoi(objRaw)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad object %q: %v", objRaw, err)
			return
		}
		oe, err := e.eval.ExplainObject(exp, obj)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		resp.Object = &ObjectExplainResponse{
			Object:       oe.Object,
			BaseScore:    oe.BaseScore,
			BonusTotal:   oe.BonusTotal,
			PerAttribute: oe.PerAttribute,
			Effective:    oe.Effective,
			Selected:     oe.Selected,
			Margin:       oe.Margin,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCounterfactual(w http.ResponseWriter, r *http.Request) {
	var req CounterfactualRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	e, ok := s.entryOr404(w, req.Dataset)
	if !ok {
		return
	}
	if err := req.validate(e); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Coalesce concurrent identical requests; the leader probes the
	// per-object cache and ranks only when objects are missing.
	ctx := r.Context()
	v, _, err := s.flights.Do(ctx, req.requestKey(), func() (any, error) {
		return s.runCounterfactual(ctx, e, req)
	})
	if err != nil {
		writeHTTPError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, v.(CounterfactualResponse))
}

// runCounterfactual answers a counterfactual request through cachedRows.
// Like sweep rows, each (dataset, bonus, k, object) answer is its own LRU
// entry, so any earlier request that covered an object answers it
// regardless of how the object lists were batched.
func (s *Server) runCounterfactual(ctx context.Context, e *Entry, req CounterfactualRequest) (CounterfactualResponse, error) {
	if err := faultinject.Fire(ctx, faultinject.SiteCounterfactualStart); err != nil {
		return CounterfactualResponse{}, err
	}
	keys := make([]string, len(req.Objects))
	for i, obj := range req.Objects {
		keys[i] = req.objectKey(obj)
	}
	results, cached, err := cachedRows(s, keys, func(missing []int) ([]CounterfactualResult, error) {
		s.cfExecs.Add(1)
		objs := make([]int, len(missing))
		for r, i := range missing {
			objs[r] = req.Objects[i]
		}
		// The missing objects are one counterfactual query of the shared pass.
		answers, err := s.answer(ctx, e, req.Bonus, []core.BatchQuery{
			{Kind: core.BatchCounterfactual, K: req.K, Objects: objs},
		})
		if err != nil {
			return nil, err
		}
		rows := make([]CounterfactualResult, len(answers[0].Counterfactuals))
		for r, cf := range answers[0].Counterfactuals {
			rows[r] = toCounterfactualResult(cf)
		}
		return rows, answers[0].Err
	})
	if err != nil {
		return CounterfactualResponse{}, pipelineErr(err, http.StatusBadRequest)
	}
	return CounterfactualResponse{
		Dataset:       req.Dataset,
		K:             req.K,
		FairNames:     e.d.FairNames(),
		Results:       results,
		CachedObjects: cached,
	}, nil
}

// toCounterfactualResult shapes one engine counterfactual into the wire
// form. PerAttribute is copied: engine batches carve every row from one
// backing array, and a cached row must not pin the whole batch's backing
// in the LRU. Both the counterfactual endpoint and the report-side cache
// seeding go through here, so their cached rows are identical by
// construction.
func toCounterfactualResult(cf core.Counterfactual) CounterfactualResult {
	return CounterfactualResult{
		Object:       cf.Object,
		Selected:     cf.Selected,
		Rank:         cf.Rank,
		Effective:    cf.Effective,
		Cutoff:       cf.Cutoff,
		Competitor:   cf.Competitor,
		ScoreDelta:   cf.ScoreDelta,
		BonusDelta:   cf.BonusDelta,
		PerAttribute: append([]float64(nil), cf.PerAttribute...),
		Feasible:     cf.Feasible,
	}
}

// handleReport serves GET /v1/report: the versioned audit bundle for a
// bonus policy, rendered as JSON (default), CSV, or Markdown. The built
// bundle goes through cachedFlight independently of the rendering format.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	e, ok := s.entryOr404(w, q.Get("dataset"))
	if !ok {
		return
	}
	cfg, format, err := reportQuery(e, q)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx := r.Context()
	v, _, err := s.cachedFlight(ctx, reportKey(cfg), func() (any, error) {
		if err := faultinject.Fire(ctx, faultinject.SiteReportStart); err != nil {
			return nil, err
		}
		s.reportExecs.Add(1)
		// One rank-once BundleData pass yields both the bundle and the
		// margin counterfactuals; the latter seed the per-object cache
		// so /v1/counterfactual shares the work wherever keys coincide.
		st, err := s.reportStats(ctx, e, cfg)
		if err != nil {
			// Build rejections are request mistakes (zero policy, FPR
			// without outcomes), not server faults; cancellation passes
			// through to the context mapping. Neither the bundle nor the
			// margin seeds reach the cache on failure.
			return nil, pipelineErr(err, http.StatusBadRequest)
		}
		s.seedMarginCounterfactuals(e, cfg.Bonus, cfg.K, st.Margins)
		return report.FromStats(e.eval, e.name, st), nil
	})
	if err != nil {
		writeHTTPError(w, r, err)
		return
	}
	switch format {
	case "json":
		w.Header().Set("Content-Type", "application/json")
	case "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	default:
		w.Header().Set("Content-Type", "text/markdown; charset=utf-8")
	}
	w.WriteHeader(http.StatusOK)
	_ = v.(*report.Bundle).Render(w, format) // status line already out
}

// reportQuery parses the audit-bundle options of GET /v1/report after
// the policy: ?margins= (0 or absent is the default window), ?fpr= and
// ?exposure= (0/1; absent means "whenever the dataset can answer": fpr=1
// on an outcome-less dataset and exposure=1 on a continuous attribute are
// refused by the report layer), and ?format=.
func reportQuery(e *Entry, q url.Values) (cfg report.BundleConfig, format string, err error) {
	cfg = report.BundleConfig{Dataset: e.name, Margins: report.DefaultMargins}
	if cfg.Bonus, cfg.K, err = policyQuery(e, q); err != nil {
		return cfg, "", err
	}
	if raw := q.Get("margins"); raw != "" {
		m, err := strconv.Atoi(raw)
		if err != nil {
			return cfg, "", fmt.Errorf("bad margins %q: %v", raw, err)
		}
		if m > MaxReportMargins {
			return cfg, "", fmt.Errorf("margins %d exceeds the limit of %d", m, MaxReportMargins)
		}
		if m != 0 {
			// 0 maps to the default before keying, so an absent param and
			// an explicit default share one cache entry.
			cfg.Margins = m
		}
	}
	binaryOK, _ := e.d.BinaryFairColumns()
	if cfg.IncludeFPR, err = switchParam(q, "fpr", e.d.HasOutcomes()); err != nil {
		return cfg, "", err
	}
	if cfg.IncludeExposure, err = switchParam(q, "exposure", binaryOK && e.d.NumFair() > 0); err != nil {
		return cfg, "", err
	}
	switch format = cmp.Or(q.Get("format"), "json"); format {
	case "json", "csv", "markdown", "md":
		return cfg, format, nil
	}
	return cfg, "", fmt.Errorf("unknown format %q (want json, csv or markdown)", format)
}

// switchParam reads a 0/1 query switch; def answers when it is absent.
func switchParam(q url.Values, name string, def bool) (bool, error) {
	switch raw := q.Get(name); raw {
	case "":
		return def, nil
	case "0", "1":
		return raw == "1", nil
	default:
		return false, fmt.Errorf("bad %s %q (want 0 or 1)", name, raw)
	}
}

// seedMarginCounterfactuals publishes the boundary-window counterfactuals
// a BundleData pass already computed into the per-object counterfactual
// cache, under exactly the keys POST /v1/counterfactual would use. A
// follow-up counterfactual request for a boundary object under the same
// (dataset, bonus, k) is then answered without any ranking: the report
// and counterfactual endpoints share one cached BundleStats pass wherever
// their keys coincide. Rows already cached are left alone — both paths
// compute bit-identical answers, so overwriting would only churn the LRU.
func (s *Server) seedMarginCounterfactuals(e *Entry, bonus []float64, k float64, margins []core.Counterfactual) {
	req := CounterfactualRequest{Dataset: e.name, Bonus: bonus, K: k}
	for _, cf := range margins {
		key := req.objectKey(cf.Object)
		if _, ok := s.cache.get(key); ok {
			continue
		}
		s.cache.put(key, toCounterfactualResult(cf))
	}
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	entries := s.reg.Entries()
	out := make([]DatasetInfo, len(entries))
	for i, e := range entries {
		out[i] = DatasetInfo{
			Name:        e.name,
			N:           e.d.N(),
			ScoreNames:  e.d.ScoreNames(),
			FairNames:   e.d.FairNames(),
			Polarity:    e.pol.String(),
			HasOutcomes: e.d.HasOutcomes(),
			RankStats:   rankStatsInfo(e),
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// rankStatsInfo converts an entry's combo-run statistics and batching
// counters to the listing shape; nil when the partition declined.
func rankStatsInfo(e *Entry) *RankStatsInfo {
	st, ok := e.eval.RunStats()
	if !ok {
		return nil
	}
	return &RankStatsInfo{
		Runs:            st.Runs,
		MinRunLen:       st.MinLen,
		MedianRunLen:    st.MedianLen,
		MaxRunLen:       st.MaxLen,
		BuildMicros:     st.BuildCost.Microseconds(),
		MergeCount:      e.eval.MergeCount(),
		RankingCount:    e.eval.RankingCount(),
		BatchFlushes:    e.batchFlushes.Load(),
		BatchedRequests: e.batchedRequests.Load(),
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{
		Status:        "ok",
		UptimeMillis:  time.Since(s.start).Milliseconds(),
		Datasets:      s.reg.Len(),
		CachedResults: s.cache.len(),
		Goroutines:    runtime.NumGoroutine(),
		Draining:      s.draining.Load(),
	}
	if s.admit != nil {
		resp.InFlight = s.admit.inFlight()
		resp.ShedTotal = s.admit.shed.Load()
	}
	if s.batch != nil {
		resp.BatchFlushes, resp.BatchedRequests, resp.BatchLargest, resp.BatchWindows = s.batch.stats()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleReady serves GET /readyz: 200 once registration finished and
// until the drain starts, 503 otherwise. Liveness stays on /healthz.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	resp := ReadyResponse{
		Ready:    s.ready.Load() && !s.draining.Load(),
		Draining: s.draining.Load(),
		Datasets: s.reg.Len(),
	}
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}
