package core

import (
	"context"
	"fmt"
	"slices"

	"fairrank/internal/engine"
	"fairrank/internal/metrics"
	"fairrank/internal/rank"
)

// Cross-request batch pass. Because bonus points enter the effective
// score additively (Definition 2), the ranked order under a (dataset,
// bonus) pair does not depend on the selection fraction, the metric, or
// the object ids being asked about — so any number of concurrent
// requests that share a bonus vector are answerable from ONE ranked
// prefix sized to their maximum cut. AnswerBatch is that entry point:
// the service collects heterogeneous (k, ids, metric) queries behind one
// micro-batch window (or sends one request's queries inline) and this
// pass answers them all. BundleStats, NDCG and the exposure family are
// one-query batches of the same pass (answerOne).
//
// Every answer is bit-identical to the corresponding per-request
// evaluator (Sweep, CounterfactualBatch, BundleStats): the metric queries
// run the same fold table over the same total order — a fold's value at a
// cut does not depend on which other cuts share the grid — the
// counterfactual finisher is the one CounterfactualBatch calls, and
// BundleStats itself answers through this pass. The batching-equivalence
// suites (core batch_test.go, service batch_differential_test.go) pin
// this byte-for-byte.

// BatchKind selects what one BatchQuery asks of the shared pass.
type BatchKind int

const (
	// BatchDisparity asks for the full-population disparity vector of the
	// top-K selection.
	BatchDisparity BatchKind = iota
	// BatchNDCG asks for the utility retained at fraction K.
	BatchNDCG
	// BatchDisparateImpact asks for the scaled disparate-impact vector of
	// the top-K selection.
	BatchDisparateImpact
	// BatchFPRDiff asks for the per-group FPR difference vector of the
	// top-K selection; the dataset must carry outcomes.
	BatchFPRDiff
	// BatchCounterfactual asks for the minimal flip deltas of Objects at
	// fraction K.
	BatchCounterfactual
	// BatchBundle asks for a full BundleStats audit pass; Bundle carries
	// the config, whose bonus must canonically equal the batch's.
	BatchBundle
	// BatchExposure asks for the per-capita exposure vector of the top-K
	// selection (named groups plus the unprotected rest) together with its
	// DDP scalar; fairness attributes must be binary.
	BatchExposure
	// BatchExpRatio asks for the exposure/merit ratio vector of the top-K
	// selection; fairness attributes must be binary and the dataset must
	// carry outcomes.
	BatchExpRatio
	// BatchTopK asks for the top-K rank-fairness share vector of the top-K
	// selection; fairness attributes must be binary.
	BatchTopK
)

// BatchQuery is one member request of a shared-bonus batch.
type BatchQuery struct {
	Kind BatchKind
	// K is the selection fraction (unused by BatchBundle, which reads
	// Bundle.K).
	K float64
	// Objects are the ids a BatchCounterfactual query explains.
	Objects []int
	// Bundle parameterizes a BatchBundle query.
	Bundle *BundleStatsConfig
}

// BatchAnswer is one query's result. The payload fields matching the query
// kind are set — exactly one for most kinds; a BatchExposure answer sets
// both Vector (the per-capita row) and Value (the DDP) — unless Err is
// set, which carries the data-dependent failures the per-request path
// reports per point (metrics.ErrZeroIdealDCG,
// metrics.ErrDegenerateGroups): a bad query never poisons its batchmates.
type BatchAnswer struct {
	// Vector holds disparity / disparate-impact / FPR-difference /
	// exposure-family rows.
	Vector []float64
	// Value holds the nDCG scalar, or a BatchExposure query's DDP.
	Value float64
	// Counterfactuals holds a BatchCounterfactual query's results.
	Counterfactuals []Counterfactual
	// Bundle holds a BatchBundle query's results.
	Bundle *BundleStats
	// Err is the query's own failure; the other fields are zero.
	Err error
}

// batchGeom is the per-query pass geometry resolved during validation.
type batchGeom struct {
	cut     int // leading positions of the shared order this query reads; a metric's fold cut
	cnt     int // selection count (counterfactual and bundle kinds)
	ndcgCut int // bundle utility cut
}

// AnswerBatch answers every query from one shared ranked pass under the
// bonus vector. See AnswerBatchCtx.
func (e *Evaluator) AnswerBatch(bonus []float64, qs []BatchQuery) ([]BatchAnswer, error) {
	return e.AnswerBatchCtx(context.Background(), bonus, qs)
}

// AnswerBatchCtx validates every query up front through checkQuery (a
// batch-wide error naming the failing query, so the service layer can
// keep malformed requests out of the window), then acquires one ranked
// pass sized to the batch's maximum cut and answers each query from it:
// metric queries through the fold table over per-kind cut grids,
// counterfactual queries through the combo-run rank lookups (merged pass)
// or the shared full order, bundle queries through the fold table, the
// selection-side finisher and one shared leave-one-out fan. The ranking
// budget is one pass for the whole batch — plus, when bundles are
// present, one leave-one-out prefix per attribute with a non-zero bonus,
// shared across every bundle — instead of one per request; a zero bonus
// is answered from the cached base order for free. The single-query
// entry points (BundleStats, NDCG, the exposure family) are this pass
// answering one query; see answerOne.
//
// Cancellation is cooperative: ctx is the BATCH's context, not any one
// caller's — the batcher cancels it only when every member is gone, so
// one caller's disconnect never poisons the rest. A non-nil error means
// no answers were produced.
func (e *Evaluator) AnswerBatchCtx(ctx context.Context, bonus []float64, qs []BatchQuery) ([]BatchAnswer, error) {
	if err := e.checkBonusDims(bonus); err != nil {
		return nil, err
	}
	if len(qs) == 0 {
		return nil, nil
	}
	bonus = canonBonus(bonus)
	geom := make([]batchGeom, len(qs))
	for i := range qs {
		g, err := e.checkQuery(bonus, qs[i])
		if err != nil {
			return nil, fmt.Errorf("core: batch query %d: %w", i, err)
		}
		geom[i] = g
	}
	return e.answerBatch(ctx, bonus, qs, geom)
}

// answerOne answers a single query the way AnswerBatchCtx answers a batch
// of one: the same validator, then the same pass. Errors come back
// unwrapped, and the answer's own Err (a zero ideal DCG, degenerate
// exposure groups) is returned as the error, so the single-query entry
// points keep their pointwise wording.
func (e *Evaluator) answerOne(ctx context.Context, bonus []float64, q BatchQuery) (BatchAnswer, error) {
	if err := e.checkBonusDims(bonus); err != nil {
		return BatchAnswer{}, err
	}
	bonus = canonBonus(bonus)
	g, err := e.checkQuery(bonus, q)
	if err != nil {
		return BatchAnswer{}, err
	}
	answers, err := e.answerBatch(ctx, bonus, []BatchQuery{q}, []batchGeom{g})
	if err != nil {
		return BatchAnswer{}, err
	}
	return answers[0], answers[0].Err
}

// checkQuery is the query validator, the one place a query is checked
// against the dataset (and a bundle against the canonical batch bonus)
// before any ranking is spent. It resolves the query's pass geometry:
// the selection count of a fraction, or for nDCG the metric package's
// own prefix count. Its errors are unwrapped; AnswerBatchCtx and Sweep
// locate them.
func (e *Evaluator) checkQuery(bonus []float64, q BatchQuery) (batchGeom, error) {
	n := e.d.N()
	if n == 0 {
		return batchGeom{}, fmt.Errorf("core: cannot evaluate an empty dataset")
	}
	k, count := q.K, rank.SelectCount
	switch q.Kind {
	case BatchDisparity, BatchDisparateImpact:
	case BatchNDCG:
		count = metrics.PrefixCount
	case BatchFPRDiff:
		if !e.d.HasOutcomes() {
			return batchGeom{}, fmt.Errorf("core: FPR evaluation requires outcomes")
		}
	case BatchExposure, BatchTopK, BatchExpRatio:
		if err := e.exposureGuard(); err != nil {
			return batchGeom{}, err
		}
		if q.Kind == BatchExpRatio && !e.d.HasOutcomes() {
			return batchGeom{}, fmt.Errorf("core: exposure/merit ratio requires outcomes")
		}
	case BatchCounterfactual:
		for _, obj := range q.Objects {
			if obj < 0 || obj >= n {
				return batchGeom{}, fmt.Errorf("core: object %d outside [0,%d)", obj, n)
			}
		}
	case BatchBundle:
		b := q.Bundle
		if b == nil {
			return batchGeom{}, fmt.Errorf("core: bundle query without a config")
		}
		if !slices.Equal(canonBonus(b.Bonus), bonus) {
			return batchGeom{}, fmt.Errorf("core: bundle bonus differs from the batch bonus")
		}
		if b.Margins < 0 {
			return batchGeom{}, fmt.Errorf("core: margin window %d is negative", b.Margins)
		}
		if b.IncludeFPR && !e.d.HasOutcomes() {
			return batchGeom{}, fmt.Errorf("core: FPR evaluation requires outcomes")
		}
		if b.IncludeExposure {
			if err := e.exposureGuard(); err != nil {
				return batchGeom{}, err
			}
		}
		k = b.K
	default:
		return batchGeom{}, fmt.Errorf("core: unknown kind %d", q.Kind)
	}
	cnt, err := count(n, k)
	if err != nil {
		return batchGeom{}, err
	}
	switch q.Kind {
	case BatchCounterfactual:
		return batchGeom{cut: min(cnt+1, n), cnt: cnt}, nil // the first excluded object is a boundary competitor too
	case BatchBundle:
		// The nDCG cut resolves through the metric package's own fraction
		// arithmetic, exactly as the pointwise NDCG does.
		ndcgCut, err := metrics.PrefixCount(n, k)
		if err != nil {
			return batchGeom{}, err
		}
		return batchGeom{cut: max(min(cnt+q.Bundle.Margins, n), ndcgCut), cnt: cnt, ndcgCut: ndcgCut}, nil
	}
	return batchGeom{cut: cnt}, nil
}

// answerBatch answers validated queries under a canonical bonus; geom
// carries each query's resolved geometry. Task 0 takes the shared pass
// and answers every query from it. When bundles are present, their
// leave-one-out attribution runs beside it as tasks 1..: one pass per
// attribute with a non-zero bonus, shared by every bundle (they all audit
// the batch bonus), sized to the largest bundle selection and folded at
// each bundle's cut. An attribute already at zero leaves the vector
// unchanged, so its leave-one-out norm IS the policy's norm and costs no
// ranking. On a multicore box the distinct rankings overlap; on one core
// the fan degenerates to a loop over one pooled workspace.
func (e *Evaluator) answerBatch(ctx context.Context, bonus []float64, qs []BatchQuery, geom []batchGeom) ([]BatchAnswer, error) {
	// The bundles form one fold group over their selection cuts; each
	// leave-one-out task folds its disparity rows into its own block of
	// looRows, indexed like qs.
	var loo sweepGroup
	var looJobs []int
	for i := range qs {
		if qs[i].Kind == BatchBundle {
			loo.pts = append(loo.pts, i)
		}
	}
	if len(loo.pts) > 0 {
		cnts := make([]int, len(qs))
		for i := range geom {
			cnts[i] = geom[i].cnt
		}
		loo.setGrid(cnts)
		for j, b := range bonus {
			if b != 0 {
				looJobs = append(looJobs, j)
			}
		}
	}
	dims := e.d.NumFair()
	looVecs := make([]float64, len(looJobs)*dims)
	looRows := make([][]float64, len(looJobs)*len(qs))
	rows := vectorRows(len(looJobs)*len(loo.pts), dims)
	for r := range looJobs {
		for b, i := range loo.pts {
			looRows[r*len(qs)+i] = rows[r*len(loo.pts)+b]
		}
	}
	answers := make([]BatchAnswer, len(qs))
	terrs := make([]error, 1+len(looJobs))
	perr := e.parallelCtx(ctx, len(terrs), func(ws *engine.Workspace, t int) {
		if t == 0 {
			terrs[0] = e.answerSharedWS(ctx, ws, bonus, qs, geom, answers)
			return
		}
		r := t - 1
		vec := looVecs[r*dims : (r+1)*dims]
		copy(vec, bonus)
		vec[looJobs[r]] = 0
		terrs[t] = e.leaveOneOutWS(ctx, ws, vec, &loo, looRows[r*len(qs):(r+1)*len(qs)])
	})
	if err := firstErr(perr, terrs); err != nil {
		return nil, err
	}
	for _, i := range loo.pts {
		st := answers[i].Bundle
		if st == nil {
			continue
		}
		for j := range st.LeaveOneOut {
			st.LeaveOneOut[j] = st.NormAfter
		}
		for r, j := range looJobs {
			st.LeaveOneOut[j] = metrics.Norm(looRows[r*len(qs)+i])
		}
		st.Reduction = st.NormBefore - st.NormAfter
		for j := range st.Contribution {
			st.Contribution[j] = st.LeaveOneOut[j] - st.NormAfter
		}
	}
	return answers, nil
}

// answerSharedWS takes the batch's one shared pass on ws and answers
// every query from it into answers, all but the bundles' leave-one-out
// attribution.
func (e *Evaluator) answerSharedWS(ctx context.Context, ws *engine.Workspace, bonus []float64, qs []BatchQuery, geom []batchGeom, answers []BatchAnswer) error {
	maxCut, anyRank := 0, false
	cuts := make([]int, len(qs))
	for i := range qs {
		cuts[i] = geom[i].cut
		maxCut = max(maxCut, cuts[i])
		anyRank = anyRank || qs[i].Kind == BatchCounterfactual
	}
	// Counterfactual objects may lie anywhere in the population, so their
	// presence asks the seam for a pass that can rank any object.
	ps, err := e.rankedPassWS(ctx, ws, bonus, maxCut, anyRank)
	if err != nil {
		return err
	}

	// Metric queries: one fold per kind over the kind's cut grid.
	vecs, vals, errs := make([][]float64, len(qs)), make([]float64, len(qs)), make([]error, len(qs))
	for _, kind := range metricKinds {
		var g sweepGroup
		for i := range qs {
			if qs[i].Kind == kind {
				g.pts = append(g.pts, i)
			}
		}
		if len(g.pts) == 0 {
			continue
		}
		g.setGrid(cuts)
		if w := e.metricWidth(kind); w > 0 {
			for r, row := range vectorRows(len(g.pts), w) {
				vecs[g.pts[r]] = row
			}
		}
		e.foldWS(ws, kind, ps.order, &g, vecs, vals, errs)
	}
	for i := range qs {
		switch qs[i].Kind {
		case BatchCounterfactual:
			cfs, err := e.counterfactualsWS(ws, ps, bonus, geom[i].cnt, qs[i].Objects)
			if err != nil {
				return err
			}
			answers[i].Counterfactuals = cfs
		case BatchBundle:
			answers[i].Bundle, answers[i].Err = e.bundleFromShared(ws, ps, bonus, qs[i].Bundle, geom[i])
		default:
			if errs[i] != nil {
				answers[i].Err = errs[i]
				continue
			}
			answers[i].Vector, answers[i].Value = vecs[i], vals[i]
		}
	}
	return nil
}

// leaveOneOutWS ranks a leave-one-out bonus vector and folds its
// disparity rows at the bundles' cuts (group g) into vecs, through the
// fold table's disparity arm.
func (e *Evaluator) leaveOneOutWS(ctx context.Context, ws *engine.Workspace, vec []float64, g *sweepGroup, vecs [][]float64) error {
	ps, err := e.rankedPassWS(ctx, ws, vec, g.cuts[len(g.cuts)-1], false)
	if err != nil {
		return err
	}
	e.foldWS(ws, BatchDisparity, ps.order, g, vecs, nil, nil)
	return nil
}

// foldOne answers one metric kind at a single cut of order through the
// fold table: the row (nil for nDCG; caller-owned, never workspace
// scratch), the scalar (nDCG or exposure DDP) and the fold's
// data-dependent failure.
func (e *Evaluator) foldOne(ws *engine.Workspace, kind BatchKind, order []int, cut int) ([]float64, float64, error) {
	g := sweepGroup{pts: []int{0}, cuts: []int{cut}, cutPos: []int{0}}
	vecs, vals, errs := [][]float64{nil}, []float64{0}, []error{nil}
	if w := e.metricWidth(kind); w > 0 {
		vecs[0] = make([]float64, w)
	}
	e.foldWS(ws, kind, order, &g, vecs, vals, errs)
	return vecs[0], vals[0], errs[0]
}

// bundleFromShared computes one bundle's every shared-order quantity from
// the batch pass: the selection side (cutoffs, group counts, beneficiary
// sets) through explainWS, the finisher Explain uses; the disparity
// norms, nDCG, FPR differences and exposure rows through the fold table,
// at the selection cut of the pass and of the cached uncompensated order;
// and the counterfactual margin window through counterfactualsWS. The
// pass must cover the bundle's geometry cut. The leave-one-out
// attribution is left to answerBatch. The only failures are the
// data-dependent ones (a zero ideal DCG, degenerate exposure groups), and
// they are the query's own.
func (e *Evaluator) bundleFromShared(ws *engine.Workspace, ps rankPass, bonus []float64, cfg *BundleStatsConfig, g batchGeom) (*BundleStats, error) {
	dims := e.d.NumFair()
	cnt, order := g.cnt, ps.order
	st := &BundleStats{
		Explanation:  e.explainWS(ws, ps, cfg.Bonus, cfg.K, cnt),
		LeaveOneOut:  make([]float64, dims),
		Contribution: make([]float64, dims),
	}
	after, _, _ := e.foldOne(ws, BatchDisparity, order, cnt)
	st.NormAfter = metrics.Norm(after)
	before, _, _ := e.foldOne(ws, BatchDisparity, e.origOrd, cnt)
	st.NormBefore = metrics.Norm(before)

	var err error
	if _, st.NDCG, err = e.foldOne(ws, BatchNDCG, order, g.ndcgCut); err != nil {
		return nil, err
	}
	if cfg.IncludeFPR {
		st.FPRDiff, _, _ = e.foldOne(ws, BatchFPRDiff, order, cnt)
	}
	if cfg.IncludeExposure {
		if st.Exposure, st.ExposureDDP, err = e.foldOne(ws, BatchExposure, order, cnt); err != nil {
			return nil, err
		}
		if st.BaseExposure, st.BaseExposureDDP, err = e.foldOne(ws, BatchExposure, e.origOrd, cnt); err != nil {
			return nil, err
		}
	}
	if cfg.Margins > 0 {
		lo := max(cnt-cfg.Margins, 0)
		hi := min(cnt+cfg.Margins, e.d.N())
		if st.Margins, err = e.counterfactualsWS(ws, ps, bonus, cnt, order[lo:hi]); err != nil {
			return nil, err
		}
	}
	return st, nil
}
