package core

import "context"

// BundleData pass. Because bonus points enter the effective score
// additively (Definition 2), every fixed-(bonus, k) audit quantity — the
// published cutoff, per-group selection counts, disparity norms, nDCG,
// FPR differences, exposure rows, the beneficiary and displaced sets, and
// the counterfactual margin window — is a deterministic function of one
// ranked order per score vector. BundleStats is therefore a query of the
// batch pass (AnswerBatchCtx): it ranks the compensated order once,
// reuses the cached uncompensated order for the base side, folds the
// leave-one-attribute-out attribution's extra vectors into the same
// fan-out, and answers the metrics through the fold table (foldWS) at the
// selection cut: a cold audit bundle costs at most dims+1 ranked passes
// instead of the ~dims+5 the one-metric-at-a-time evaluators pay. Only
// the leading cnt+margins positions of each order are ever read, so each
// pass is a ranked prefix from rankedPassWS: the combo-run merge when the
// cohort allows it (no population-wide pass at all), otherwise a
// bounded-heap prefix selection (O(n log p)), and a full sort only once
// the prefix covers half the population. The selection side is
// explainWS, the finisher Explain itself runs, so a bundle's embedded
// Explanation is the report Explain publishes.
//
// Results are bit-identical to independent references: the selection
// side to internal/oracle, which ranks by Definition 2 with a plain
// stable sort and shares no code with the engine, and the rest to the
// pointwise evaluators (AttributeDisparity, NDCG, FPRDiff,
// CounterfactualBatch). The prefix aggregates resume the same
// left-to-right folds, every prefix route reproduces the full sort's
// leading segment exactly (the comparator is a total order), and the
// scalar finishers share their formulas with the pointwise
// implementations. See TestBundleStatsDifferential and
// TestBundleStatsProperty.

// BundleStatsConfig parameterizes one BundleStats pass.
type BundleStatsConfig struct {
	// Bonus is the audited bonus vector; nil or all-zero audits the
	// uncompensated ranking (the compensated side degenerates to the base
	// order and the attribution is flat).
	Bonus []float64
	// K is the audited selection fraction, in (0, 1].
	K float64
	// Margins is how many objects on each side of the cutoff receive
	// counterfactual margin lines (0 = none); the window is clamped to
	// the population.
	Margins int
	// IncludeFPR adds the per-group false-positive-rate differences; the
	// dataset must carry ground-truth outcomes.
	IncludeFPR bool
	// IncludeExposure adds the per-capita exposure rows and DDP scalars for
	// both the compensated and the uncompensated selection; every fairness
	// attribute must be binary (see Evaluator.Exposure).
	IncludeExposure bool
}

// BundleStats is every fixed-(bonus, k) audit quantity of one bonus
// policy, computed from shared ranked orders by Evaluator.BundleStats.
// It is the data layer of report.BuildBundle; the service layer also
// reuses its Margins to answer per-object counterfactual requests.
type BundleStats struct {
	// Explanation is the selection side, the report Explain publishes:
	// K, Selected, the cutoffs, the (copied, NumFair-long) Bonus with its
	// FairNames, the group counts and the beneficiary sets. Every
	// per-dimension slice below is aligned with Bonus.
	Explanation

	// NormBefore/NormAfter are the disparity norms without and with the
	// policy; Reduction their difference. LeaveOneOut[j] is the norm with
	// attribute j's bonus withdrawn and Contribution[j] how much worse
	// that is than NormAfter — the leave-one-attribute-out attribution.
	NormBefore   float64
	NormAfter    float64
	Reduction    float64
	LeaveOneOut  []float64
	Contribution []float64

	// NDCG is the utility retained relative to the uncompensated ranking.
	NDCG float64

	// FPRDiff carries the per-group false-positive-rate differences under
	// the policy when the config asked for them; nil otherwise.
	FPRDiff []float64

	// Exposure/BaseExposure carry the per-capita exposure rows (NumFair
	// named groups plus the unprotected rest, so one entry wider than the
	// other per-dimension slices) of the compensated and uncompensated
	// selections when the config asked for them; nil otherwise.
	// ExposureDDP/BaseExposureDDP are the matching maximum pairwise
	// per-capita gaps.
	Exposure        []float64
	ExposureDDP     float64
	BaseExposure    []float64
	BaseExposureDDP float64

	// Margins are exact counterfactuals for the boundary window — the
	// Margins last selected and Margins first excluded objects, in rank
	// order.
	Margins []Counterfactual
}

// BundleStats computes every audit-bundle quantity for a bonus vector at
// selection fraction k in one shared-order pass: the compensated prefix,
// the cached base order, and one leave-one-out prefix per attribute with
// a non-zero bonus, fanned over the engine worker pool. It is the batch
// pass (AnswerBatchCtx) answering a single bundle query, so batched and
// unbatched bundles are the same code. See the package comment above for
// the cost model and the bit-identity contract.
func (e *Evaluator) BundleStats(cfg BundleStatsConfig) (*BundleStats, error) {
	return e.BundleStatsCtx(context.Background(), cfg)
}

// BundleStatsCtx is BundleStats with cooperative cancellation: once ctx
// is done, no further ranking task is dispatched, in-flight tasks stop at
// their next checkpoint, and the context's error is returned — no partial
// bundle escapes. The config is checked by the batch pass's own query
// validator, and its errors come back unwrapped rather than with the
// batch's per-query location.
func (e *Evaluator) BundleStatsCtx(ctx context.Context, cfg BundleStatsConfig) (*BundleStats, error) {
	a, err := e.answerOne(ctx, cfg.Bonus, BatchQuery{Kind: BatchBundle, Bundle: &cfg})
	return a.Bundle, err
}
