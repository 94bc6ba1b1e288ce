package core

import (
	"context"
	"fmt"
	"slices"
	"sort"

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
// the service micro-batcher collects heterogeneous (k, ids, metric)
// queries behind one window and this pass answers them all.
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

// bundleGeom is a bundle's pass geometry: the selection plus its margin
// window (clamped to the population) and the nDCG cut.
func (e *Evaluator) bundleGeom(cnt, ndcgCut, margins int) batchGeom {
	p := min(cnt+margins, e.d.N())
	return batchGeom{cut: max(p, ndcgCut), cnt: cnt, ndcgCut: ndcgCut}
}

// AnswerBatch answers every query from one shared ranked pass under the
// bonus vector. See AnswerBatchCtx.
func (e *Evaluator) AnswerBatch(bonus []float64, qs []BatchQuery) ([]BatchAnswer, error) {
	return e.AnswerBatchCtx(context.Background(), bonus, qs)
}

// AnswerBatchCtx validates every query up front (a batch-wide error, so
// the service layer can keep malformed requests out of the window), then
// acquires one ranked pass sized to the batch's maximum cut and answers
// each query from it: metric queries through the fold table over per-kind
// cut grids, counterfactual queries through the combo-run rank lookups
// (merged pass) or the shared full order, bundle queries through the
// BundleStats finishers plus one shared leave-one-out fan. The ranking
// budget is one pass for the whole batch — plus, when bundles are
// present, one leave-one-out prefix per attribute with a non-zero bonus,
// shared across every bundle — instead of one per request; a zero bonus
// is answered from the cached base order for free.
//
// Cancellation is cooperative per PR 8's contract: ctx is the BATCH's
// context, not any one caller's — the batcher cancels it only when every
// member is gone, so one caller's disconnect never poisons the rest. A
// non-nil error means no answers were produced.
func (e *Evaluator) AnswerBatchCtx(ctx context.Context, bonus []float64, qs []BatchQuery) ([]BatchAnswer, error) {
	if err := e.checkBonusDims(bonus); err != nil {
		return nil, err
	}
	n := e.d.N()
	if n == 0 {
		return nil, fmt.Errorf("core: cannot evaluate an empty dataset")
	}
	if len(qs) == 0 {
		return nil, nil
	}
	bonus = canonBonus(bonus)

	geom := make([]batchGeom, len(qs))
	for i := range qs {
		q := &qs[i]
		switch q.Kind {
		case BatchDisparity, BatchNDCG, BatchDisparateImpact, BatchFPRDiff, BatchExposure, BatchExpRatio, BatchTopK:
			if err := e.checkMetric(q.Kind); err != nil {
				return nil, err
			}
			cut, err := metricCount(q.Kind)(n, q.K)
			if err != nil {
				return nil, fmt.Errorf("core: batch query %d (k=%g): %w", i, q.K, err)
			}
			geom[i].cut = cut
		case BatchCounterfactual:
			cnt, err := rank.SelectCount(n, q.K)
			if err != nil {
				return nil, fmt.Errorf("core: batch query %d (k=%g): %w", i, q.K, err)
			}
			for _, obj := range q.Objects {
				if obj < 0 || obj >= n {
					return nil, fmt.Errorf("core: batch query %d: object %d outside [0,%d)", i, obj, n)
				}
			}
			geom[i] = batchGeom{cut: min(cnt+1, n), cnt: cnt} // the first excluded object is a boundary competitor too
		case BatchBundle:
			b := q.Bundle
			if b == nil {
				return nil, fmt.Errorf("core: batch query %d: bundle query without a config", i)
			}
			if !slices.Equal(canonBonus(b.Bonus), bonus) {
				return nil, fmt.Errorf("core: batch query %d: bundle bonus differs from the batch bonus", i)
			}
			if b.Margins < 0 {
				return nil, fmt.Errorf("core: margin window %d is negative", b.Margins)
			}
			if b.IncludeFPR && !e.d.HasOutcomes() {
				return nil, fmt.Errorf("core: FPR evaluation requires outcomes")
			}
			if b.IncludeExposure {
				if err := e.exposureGuard(); err != nil {
					return nil, err
				}
			}
			cnt, err := rank.SelectCount(n, b.K)
			if err != nil {
				return nil, fmt.Errorf("core: batch query %d (k=%g): %w", i, b.K, err)
			}
			ndcgCut, err := metrics.PrefixCount(n, b.K)
			if err != nil {
				return nil, fmt.Errorf("core: batch query %d (k=%g): %w", i, b.K, err)
			}
			geom[i] = e.bundleGeom(cnt, ndcgCut, b.Margins)
		default:
			return nil, fmt.Errorf("core: batch query %d: unknown kind %d", i, q.Kind)
		}
	}
	return e.answerBatch(ctx, bonus, qs, geom)
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
	var looJobs, looCuts []int
	for i := range qs {
		if qs[i].Kind == BatchBundle {
			looCuts = append(looCuts, geom[i].cnt)
		}
	}
	if len(looCuts) > 0 {
		for j, b := range bonus {
			if b != 0 {
				looJobs = append(looJobs, j)
			}
		}
		sort.Ints(looCuts)
		looCuts = slices.Compact(looCuts)
	}
	nc, dims := len(looCuts), e.d.NumFair()
	looVecs := make([]float64, len(looJobs)*dims)
	looNorms := make([]float64, len(looJobs)*nc)
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
		terrs[t] = e.leaveOneOutWS(ctx, ws, vec, looCuts, looNorms[r*nc:(r+1)*nc])
	})
	if err := firstErr(perr, terrs); err != nil {
		return nil, err
	}
	for i := range qs {
		st := answers[i].Bundle
		if st == nil {
			continue
		}
		c, _ := slices.BinarySearch(looCuts, geom[i].cnt)
		for j := range st.LeaveOneOut {
			st.LeaveOneOut[j] = st.NormAfter
		}
		for r, j := range looJobs {
			st.LeaveOneOut[j] = looNorms[r*nc+c]
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

// leaveOneOutWS ranks a leave-one-out bonus vector and writes its
// disparity norm at every cut into norms.
func (e *Evaluator) leaveOneOutWS(ctx context.Context, ws *engine.Workspace, vec []float64, cuts []int, norms []float64) error {
	dims := e.d.NumFair()
	ps, err := e.rankedPassWS(ctx, ws, vec, cuts[len(cuts)-1], false)
	if err != nil {
		return err
	}
	cent := metrics.PrefixCentroidInto(e.d, ps.order, cuts, ws.Pop(), ws.Agg(len(cuts)*dims))
	for c := range cuts {
		norms[c] = normAgainst(cent[c*dims:(c+1)*dims], e.centroid)
	}
	return nil
}

// bundleFromShared computes one bundle's every shared-order quantity from
// the batch pass: cutoff, group counts, disparity norms, nDCG, FPR
// differences, exposure rows, beneficiary sets, and the counterfactual
// margin window, plus the base-order side off the cached uncompensated
// ranking. The pass must cover the bundle's geometry cut. The
// leave-one-out attribution is left to answerBatch. The only failures
// are the data-dependent ones (a zero ideal DCG, degenerate exposure
// groups), and they are the query's own.
func (e *Evaluator) bundleFromShared(ws *engine.Workspace, ps rankPass, bonus []float64, cfg *BundleStatsConfig, g batchGeom) (*BundleStats, error) {
	dims := e.d.NumFair()
	cnt, order := g.cnt, ps.order
	// The Bonus copy is always dims long (a nil config bonus means the
	// zero vector), so every per-dimension slice in the result is
	// aligned — consumers like report.FromStats index them in lockstep.
	st := &BundleStats{
		K:               cfg.K,
		Selected:        cnt,
		FairNames:       e.d.FairNames(),
		Bonus:           make([]float64, dims),
		GroupCounts:     make([]int, dims),
		BaseGroupCounts: make([]int, dims),
		LeaveOneOut:     make([]float64, dims),
		Contribution:    make([]float64, dims),
	}
	copy(st.Bonus, cfg.Bonus)
	st.Cutoff = ps.eff[order[cnt-1]]

	cuts := []int{cnt}
	copy(st.GroupCounts, metrics.PrefixGroupCountsInto(e.d, order, cuts, ws.Cnts(dims)))
	cent := metrics.PrefixCentroidInto(e.d, order, cuts, ws.Pop(), ws.Agg(dims))
	st.NormAfter = normAgainst(cent, e.centroid)

	// The centroid row has been consumed, so the aggregate scratch can be
	// re-carved.
	ndcgCuts := []int{g.ndcgCut}
	agg := ws.Agg(2)
	corrected := metrics.PrefixDCGInto(e.base, order, ndcgCuts, agg[:1])
	ideal := metrics.PrefixDCGInto(e.base, e.origOrd, ndcgCuts, agg[1:])
	if ideal[0] == 0 {
		return nil, metrics.ErrZeroIdealDCG
	}
	st.NDCG = corrected[0] / ideal[0]

	if cfg.IncludeFPR {
		cnts := ws.Cnts(dims + 1)
		rows, all := cnts[:dims], cnts[dims:]
		metrics.PrefixFPCountsInto(e.d, order, cuts, rows, all)
		st.FPRDiff = make([]float64, dims)
		if e.negAll != 0 {
			overall := float64(all[0]) / float64(e.negAll)
			for j := range st.FPRDiff {
				if e.negTot[j] != 0 {
					st.FPRDiff[j] = float64(rows[j])/float64(e.negTot[j]) - overall
				}
			}
		}
	}
	if cfg.IncludeExposure {
		var err error
		if st.Exposure, st.ExposureDDP, err = e.exposureSideWS(ws, order, cuts); err != nil {
			return nil, err
		}
	}

	// Beneficiary sets: symmetric difference of the two selections via
	// the membership-mark buffer (reset to all-false on every path).
	marks := ws.Marks(e.d.N())
	for _, o := range e.origOrd[:cnt] {
		marks[o] = true
	}
	for _, o := range order[:cnt] {
		if marks[o] {
			marks[o] = false
		} else {
			st.AdmittedByBonus = append(st.AdmittedByBonus, o)
		}
	}
	for _, o := range e.origOrd[:cnt] {
		if marks[o] {
			st.DisplacedByBonus = append(st.DisplacedByBonus, o)
			marks[o] = false
		}
	}
	sort.Ints(st.AdmittedByBonus)
	sort.Ints(st.DisplacedByBonus)

	if cfg.Margins > 0 {
		lo := max(cnt-cfg.Margins, 0)
		hi := min(cnt+cfg.Margins, e.d.N())
		var err error
		if st.Margins, err = e.counterfactualsWS(ws, ps, bonus, cnt, order[lo:hi]); err != nil {
			return nil, err
		}
	}

	// Base-order side: free off the cached uncompensated ranking.
	st.BaseCutoff = e.base[e.origOrd[cnt-1]]
	copy(st.BaseGroupCounts, metrics.PrefixGroupCountsInto(e.d, e.origOrd, cuts, ws.Cnts(dims)))
	bcent := metrics.PrefixCentroidInto(e.d, e.origOrd, cuts, ws.Pop(), ws.Agg(dims))
	st.NormBefore = normAgainst(bcent, e.centroid)
	if cfg.IncludeExposure {
		var err error
		if st.BaseExposure, st.BaseExposureDDP, err = e.exposureSideWS(ws, e.origOrd, cuts); err != nil {
			return nil, err
		}
	}
	return st, nil
}
