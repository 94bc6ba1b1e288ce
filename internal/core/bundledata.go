package core

import (
	"context"
	"fmt"
	"math"

	"fairrank/internal/metrics"
	"fairrank/internal/rank"
)

// BundleData pass. Because bonus points enter the effective score
// additively (Definition 2), every fixed-(bonus, k) audit quantity — the
// published cutoff, per-group selection counts, disparity norms, nDCG,
// FPR differences, the beneficiary and displaced sets, and the
// counterfactual margin window — is a deterministic function of one
// ranked order per score vector. BundleStats therefore ranks the
// compensated order once, reuses the cached uncompensated order for the
// base side, folds the leave-one-attribute-out attribution's extra
// vectors into the same fan-out, and answers everything else from prefix
// aggregates of those shared orders (metrics.PrefixCentroid /
// PrefixGroupCounts / PrefixFPCounts / PrefixDCG): a cold audit bundle
// costs at most dims+1 ranking passes instead of the ~dims+5 the
// one-metric-at-a-time evaluators pay, and — since only the leading
// cnt+margins positions of each order are ever read — each pass is a
// bounded-heap prefix selection (O(n log p)), not a full sort.
//
// Results are bit-identical to the independent pointwise evaluators
// (Explain, AttributeDisparity, NDCG, FPRDiff, CounterfactualWindow):
// the prefix aggregates resume the same left-to-right folds, the prefix
// selection reproduces the full sort's leading segment exactly (the
// comparator is a total order), and the scalar finishers share their
// formulas with the pointwise implementations. See
// TestBundleStatsDifferential and TestBundleStatsProperty.

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
	// K is the audited selection fraction; Selected the resulting count.
	K        float64
	Selected int

	// Cutoff is the effective score of the last selected object under the
	// policy; BaseCutoff the same for the uncompensated ranking.
	Cutoff     float64
	BaseCutoff float64

	// FairNames are the fairness attribute names; Bonus the audited vector
	// (copied), aligned with every per-dimension slice below.
	FairNames []string
	Bonus     []float64

	// GroupCounts[j] counts selected members of binary fairness attribute
	// j (value > 0.5) under the policy; BaseGroupCounts is the same for
	// the uncompensated selection.
	GroupCounts     []int
	BaseGroupCounts []int

	// AdmittedByBonus lists objects selected under the policy but not in
	// the uncompensated selection, ascending; DisplacedByBonus the
	// reverse.
	AdmittedByBonus  []int
	DisplacedByBonus []int

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
// bundle escapes. Validation runs here first, so its errors keep their
// pointwise wording rather than the batch's per-query wrapping.
func (e *Evaluator) BundleStatsCtx(ctx context.Context, cfg BundleStatsConfig) (*BundleStats, error) {
	if err := e.checkBonusDims(cfg.Bonus); err != nil {
		return nil, err
	}
	n := e.d.N()
	if n == 0 {
		return nil, fmt.Errorf("core: cannot audit an empty dataset")
	}
	if cfg.Margins < 0 {
		return nil, fmt.Errorf("core: margin window %d is negative", cfg.Margins)
	}
	if cfg.IncludeFPR && !e.d.HasOutcomes() {
		return nil, fmt.Errorf("core: FPR evaluation requires outcomes")
	}
	if cfg.IncludeExposure {
		if err := e.exposureGuard(); err != nil {
			return nil, err
		}
	}
	cnt, err := rank.SelectCount(n, cfg.K)
	if err != nil {
		return nil, err
	}
	// The nDCG cut resolves through the metric package's own fraction
	// arithmetic, exactly as the pointwise NDCG does. (Both round
	// half-up and clamp to [1, n], so the cuts coincide; going through
	// metrics.PrefixCount keeps that an implementation detail of the
	// metric, not an assumption of this pass.)
	ndcgCut, err := metrics.PrefixCount(n, cfg.K)
	if err != nil {
		return nil, err
	}
	q := BatchQuery{Kind: BatchBundle, Bundle: &cfg}
	answers, err := e.answerBatch(ctx, canonBonus(cfg.Bonus), []BatchQuery{q}, []batchGeom{e.bundleGeom(cnt, ndcgCut, cfg.Margins)})
	if err != nil {
		return nil, err
	}
	return answers[0].Bundle, answers[0].Err
}

// normAgainst returns the L2 norm of (cent - ref), the disparity norm of
// a selection centroid against the population centroid. The fold —
// ascending dimension, square-accumulate, one final sqrt — is exactly
// metrics.Norm over the subtracted vector, so the value is bit-identical
// to the pointwise Disparity+Norm path.
func normAgainst(cent, ref []float64) float64 {
	var s float64
	for j := range cent {
		x := cent[j] - ref[j]
		s += x * x
	}
	return math.Sqrt(s)
}
