package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
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
// trailing garbage rejected.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if dec.More() {
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

	key := p.cacheKey()
	if v, ok := s.cache.get(key); ok {
		resp := v.(TrainResponse)
		resp.Cached = true
		writeJSON(w, http.StatusOK, resp)
		return
	}

	// Cold: coalesce concurrent identical requests so a thundering herd
	// runs the pipeline once. Followers (shared=true) report Cached.
	ctx := r.Context()
	v, shared, err := s.flights.Do(ctx, "train|"+key, func() (any, error) {
		return s.runTrain(ctx, e, p, key)
	})
	if err != nil {
		writeHTTPError(w, r, err)
		return
	}
	resp := v.(TrainResponse)
	resp.Cached = resp.Cached || shared
	writeJSON(w, http.StatusOK, resp)
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
// cancellation mapping; anything else was the request's mistake (or, for
// status 5xx, the server's) and is wrapped with the given status.
func pipelineErr(err error, status int) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return &httpError{status: status, msg: err.Error()}
}

// runTrain is the cold train pipeline: train, evaluate the diagnostics,
// cache the response. It runs inside a flight; the leading cache re-check
// closes the race where a request misses the LRU just as another flight
// for the same key completes.
func (s *Server) runTrain(ctx context.Context, e *Entry, p *trainParams, key string) (TrainResponse, error) {
	if v, ok := s.cache.get(key); ok {
		resp := v.(TrainResponse)
		resp.Cached = true
		return resp, nil
	}
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
	// ranked pass.
	before, err := e.eval.DisparityCtx(ctx, nil, p.req.K)
	if err != nil {
		return TrainResponse{}, pipelineErr(fmt.Errorf("evaluating trained vector: %w", err), http.StatusInternalServerError)
	}
	after, err := e.eval.DisparityCtx(ctx, res.Bonus, p.req.K)
	if err != nil {
		return TrainResponse{}, pipelineErr(fmt.Errorf("evaluating trained vector: %w", err), http.StatusInternalServerError)
	}
	ndcg, err := e.eval.NDCGCtx(ctx, res.Bonus, p.req.K)
	if err != nil {
		return TrainResponse{}, pipelineErr(fmt.Errorf("evaluating trained vector: %w", err), http.StatusInternalServerError)
	}
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
		NDCG:            ndcg,
		ElapsedMicros:   res.Elapsed.Microseconds(),
	}
	s.cache.put(key, resp)
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
	if err := req.validate(e.d.NumFair()); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Dataset-capability guard from the metric registry: fpr needs
	// outcomes, the exposure family needs binary fairness attributes.
	if spec, ok := metricByName(req.Metric); ok && spec.check != nil {
		if err := spec.check(e); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	// Coalesce concurrent identical sweeps; the leader probes the
	// per-point cache and computes only the missing rows.
	ctx := r.Context()
	v, _, err := s.flights.Do(ctx, req.requestKey(), func() (any, error) {
		return s.evaluateSweep(ctx, e, req)
	})
	if err != nil {
		writeHTTPError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, v.(EvaluateResponse))
}

// evaluateSweep answers a sweep from the per-point row cache plus one
// prefix-sweep computation over the missing points. Rows are cached under
// (dataset, metric, bonus bits, k bits), so any earlier sweep that covered
// a point answers it — a subset of a cached k-grid costs len(points) map
// lookups, and a widened grid ranks once for just the new cuts.
func (s *Server) evaluateSweep(ctx context.Context, e *Entry, req EvaluateRequest) (EvaluateResponse, error) {
	if err := faultinject.Fire(ctx, faultinject.SiteEvaluateStart); err != nil {
		return EvaluateResponse{}, err
	}
	resp := EvaluateResponse{Dataset: req.Dataset, Metric: req.Metric, FairNames: e.d.FairNames()}
	n := len(req.Points)
	spec, ok := metricByName(req.Metric)
	if !ok {
		// validate() already rejected unknown names; reaching here means a
		// caller skipped it. Fail loudly rather than guess a metric.
		return EvaluateResponse{}, pipelineErr(fmt.Errorf("metric %q missing from the service registry", req.Metric), http.StatusBadRequest)
	}
	vector := !spec.scalar
	if vector {
		resp.Vectors = make([][]float64, n)
	} else {
		resp.Values = make([]float64, n)
	}
	keys := make([]string, n)
	// missing is a request-index slice, appended in request order, so the
	// scatter/gather loops below are deterministic regardless of cache
	// state (pinned by TestEvaluateGatherOrderIndependent). Keep it a
	// slice: a map here would reintroduce iteration-order nondeterminism.
	var missing []int
	for i, pt := range req.Points {
		keys[i] = pointKey(req.Dataset, req.Metric, pt)
		v, ok := s.cache.get(keys[i])
		if !ok {
			missing = append(missing, i)
			continue
		}
		if vector {
			resp.Vectors[i] = v.([]float64)
		} else {
			resp.Values[i] = v.(float64)
		}
	}
	resp.CachedPoints = n - len(missing)

	if len(missing) > 0 {
		s.sweepExecs.Add(1)
		pts := make([]core.SweepPoint, len(missing))
		for r, i := range missing {
			pts[r] = core.SweepPoint{Bonus: req.Points[i].Bonus, K: req.Points[i].K}
		}
		var vecs [][]float64
		var vals []float64
		var err error
		if bonus, ok := s.batchableSweep(pts); ok {
			// Single non-zero bonus: the whole sweep rides the micro-batch
			// window, sharing one ranked pass with every other concurrent
			// request on the same (dataset, bonus).
			vecs, vals, err = s.batchSweep(ctx, e, req.Metric, bonus, pts)
		} else {
			vecs, vals, err = e.eval.Sweep(ctx, spec.kind, pts)
		}
		if err != nil {
			// Nothing is cached on failure: rows reach the LRU only below,
			// after the whole sweep (batched or not) succeeded, so a failed
			// or canceled request cannot poison the per-point cache with
			// partial results — and a failed BATCH leaves every member's
			// keys cold, since each member caches only its own rows here.
			var he *httpError
			if errors.As(err, &he) {
				return EvaluateResponse{}, err // batch shed/panic keeps its own status
			}
			return EvaluateResponse{}, pipelineErr(err, http.StatusBadRequest)
		}
		for r, i := range missing {
			if vector {
				resp.Vectors[i] = vecs[r]
				s.cache.put(keys[i], vecs[r])
			} else {
				resp.Values[i] = vals[r]
				s.cache.put(keys[i], vals[r])
			}
		}
	}
	if vector {
		resp.Norms = make([]float64, n)
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

// parseBonusParam parses the comma-separated ?bonus= vector.
func parseBonusParam(raw string, dims int) ([]float64, error) {
	parts := strings.Split(raw, ",")
	if len(parts) != dims {
		return nil, fmt.Errorf("bonus has %d dimensions, dataset has %d", len(parts), dims)
	}
	out := make([]float64, dims)
	for j, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bonus dimension %d: %v", j, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return nil, fmt.Errorf("bonus dimension %d is %v, want finite and non-negative", j, v)
		}
		out[j] = v
	}
	return out, nil
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	e, ok := s.entryOr404(w, q.Get("dataset"))
	if !ok {
		return
	}
	k, err := strconv.ParseFloat(q.Get("k"), 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad k %q: %v", q.Get("k"), err)
		return
	}
	if err := rank.CheckFraction(k); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if q.Get("bonus") == "" {
		writeError(w, http.StatusBadRequest, "missing bonus (comma-separated, one value per fairness attribute)")
		return
	}
	bonus, err := parseBonusParam(q.Get("bonus"), e.d.NumFair())
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
	if err := req.validate(e.d.NumFair()); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	for i, obj := range req.Objects {
		if obj < 0 || obj >= e.d.N() {
			writeError(w, http.StatusBadRequest, "object %d (index %d) outside [0,%d)", obj, i, e.d.N())
			return
		}
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

// runCounterfactual answers a counterfactual request from the per-object
// cache plus one ranked batch over the missing objects. Like sweep rows,
// each (dataset, bonus, k, object) answer is its own LRU entry, so any
// earlier request that covered an object answers it regardless of how the
// object lists were batched.
func (s *Server) runCounterfactual(ctx context.Context, e *Entry, req CounterfactualRequest) (CounterfactualResponse, error) {
	if err := faultinject.Fire(ctx, faultinject.SiteCounterfactualStart); err != nil {
		return CounterfactualResponse{}, err
	}
	resp := CounterfactualResponse{
		Dataset:   req.Dataset,
		K:         req.K,
		FairNames: e.d.FairNames(),
		Results:   make([]CounterfactualResult, len(req.Objects)),
	}
	keys := make([]string, len(req.Objects))
	// Request-index slice in request order; see the note in runEvaluate.
	// Pinned by TestCounterfactualGatherOrderIndependent.
	var missing []int
	for i, obj := range req.Objects {
		keys[i] = req.objectKey(obj)
		if v, ok := s.cache.get(keys[i]); ok {
			resp.Results[i] = v.(CounterfactualResult)
			continue
		}
		missing = append(missing, i)
	}
	resp.CachedObjects = len(req.Objects) - len(missing)

	if len(missing) > 0 {
		s.cfExecs.Add(1)
		objs := make([]int, len(missing))
		for r, i := range missing {
			objs[r] = req.Objects[i]
		}
		var cfs []core.Counterfactual
		var err error
		if s.batch != nil && !isZeroBonus(req.Bonus) {
			// The request becomes one query of a shared-bonus micro-batch;
			// a zero bonus skips the window (the cached base order answers
			// it for free, so there is nothing to share).
			var answers []core.BatchAnswer
			answers, err = s.batch.submit(ctx, e, req.Bonus, []core.BatchQuery{
				{Kind: core.BatchCounterfactual, K: req.K, Objects: objs},
			})
			if err == nil {
				cfs = answers[0].Counterfactuals
			}
		} else {
			cfs, err = e.eval.CounterfactualBatchCtx(ctx, req.Bonus, req.K, objs)
		}
		if err != nil {
			// As with sweeps, per-object rows are cached only after the
			// whole batch succeeded — cancellation leaves the cache clean.
			var he *httpError
			if errors.As(err, &he) {
				return CounterfactualResponse{}, err
			}
			return CounterfactualResponse{}, pipelineErr(err, http.StatusBadRequest)
		}
		for r, i := range missing {
			res := toCounterfactualResult(cfs[r])
			resp.Results[i] = res
			s.cache.put(keys[i], res)
		}
	}
	return resp, nil
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
// bundle is cached independently of the rendering format and concurrent
// identical cold requests are coalesced, mirroring train/evaluate.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	e, ok := s.entryOr404(w, q.Get("dataset"))
	if !ok {
		return
	}
	k, err := strconv.ParseFloat(q.Get("k"), 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad k %q: %v", q.Get("k"), err)
		return
	}
	if q.Get("bonus") == "" {
		writeError(w, http.StatusBadRequest, "missing bonus (comma-separated, one value per fairness attribute)")
		return
	}
	bonus, err := parseBonusParam(q.Get("bonus"), e.d.NumFair())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	margins := 0
	if raw := q.Get("margins"); raw != "" {
		if margins, err = strconv.Atoi(raw); err != nil {
			writeError(w, http.StatusBadRequest, "bad margins %q: %v", raw, err)
			return
		}
		if margins > MaxReportMargins {
			writeError(w, http.StatusBadRequest, "margins %d exceeds the limit of %d", margins, MaxReportMargins)
			return
		}
	}
	if margins == 0 {
		// BuildBundle maps 0 to the default; normalize before keying so an
		// absent param and an explicit default share one cache entry.
		margins = report.DefaultMargins
	}
	// FPR differences default to "whenever the dataset can answer them";
	// fpr=1 demands them (a 400 on an outcome-less dataset), fpr=0 omits.
	includeFPR := e.d.HasOutcomes()
	if raw := q.Get("fpr"); raw != "" {
		switch raw {
		case "0":
			includeFPR = false
		case "1":
			includeFPR = true
		default:
			writeError(w, http.StatusBadRequest, "bad fpr %q (want 0 or 1)", raw)
			return
		}
	}
	// The exposure section defaults to "whenever the dataset's fairness
	// attributes are all binary"; exposure=1 demands it (a 400 on a
	// continuous column, raised by the report-layer validation),
	// exposure=0 omits.
	binaryOK, _ := e.d.BinaryFairColumns()
	includeExposure := binaryOK && e.d.NumFair() > 0
	if raw := q.Get("exposure"); raw != "" {
		switch raw {
		case "0":
			includeExposure = false
		case "1":
			includeExposure = true
		default:
			writeError(w, http.StatusBadRequest, "bad exposure %q (want 0 or 1)", raw)
			return
		}
	}
	format := q.Get("format")
	if format == "" {
		format = "json"
	}
	switch format {
	case "json", "csv", "markdown", "md":
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (want json, csv or markdown)", format)
		return
	}

	key := reportKey(e.name, bonus, k, margins, includeFPR, includeExposure)
	ctx := r.Context()
	v, ok2 := s.cache.get(key)
	if !ok2 {
		v, _, err = s.flights.Do(ctx, key, func() (any, error) {
			if v, ok := s.cache.get(key); ok {
				return v, nil
			}
			if err := faultinject.Fire(ctx, faultinject.SiteReportStart); err != nil {
				return nil, err
			}
			s.reportExecs.Add(1)
			// One rank-once BundleData pass yields both the bundle and the
			// margin counterfactuals; the latter seed the per-object cache
			// so /v1/counterfactual shares the work wherever keys coincide.
			rcfg := report.BundleConfig{
				Dataset:         e.name,
				Bonus:           bonus,
				K:               k,
				Margins:         margins,
				IncludeFPR:      includeFPR,
				IncludeExposure: includeExposure,
			}
			var st *core.BundleStats
			var err error
			if s.batch != nil {
				st, err = s.batchReport(ctx, e, rcfg)
			} else {
				st, err = report.BuildBundleStatsCtx(ctx, e.eval, rcfg)
			}
			if err != nil {
				// Build rejections are request mistakes (bad fraction,
				// zero policy, FPR without outcomes), not server faults;
				// cancellation passes through to the context mapping. The
				// bundle and the margin seeds reach the cache only on
				// success, so an abandoned build caches nothing.
				var he *httpError
				if errors.As(err, &he) {
					return nil, err
				}
				return nil, pipelineErr(err, http.StatusBadRequest)
			}
			b := report.FromStats(e.eval, e.name, st)
			s.cache.put(key, b)
			s.seedMarginCounterfactuals(e, bonus, k, st.Margins)
			return b, nil
		})
		if err != nil {
			writeHTTPError(w, r, err)
			return
		}
	}
	bundle := v.(*report.Bundle)
	switch format {
	case "json":
		w.Header().Set("Content-Type", "application/json")
	case "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	default:
		w.Header().Set("Content-Type", "text/markdown; charset=utf-8")
	}
	w.WriteHeader(http.StatusOK)
	_ = bundle.Render(w, format) // status line already out
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
