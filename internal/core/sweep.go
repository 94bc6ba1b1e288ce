package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"fairrank/internal/engine"
	"fairrank/internal/metrics"
)

// Prefix-sweep engine. A metric sweep is a set of (bonus, k) points; in
// the common interactive shape — "how does this trained vector behave
// across selection sizes?" — every point shares one bonus vector and only
// k varies. The ranking under a bonus vector does not depend on k, so the
// engine groups points by distinct bonus vector, ranks each group once,
// and answers every k in the group from prefix aggregates of that single
// sorted order. Only the leading maxCut positions are ever read, so each
// group's order comes from one rankedPassWS prefix: the combo-run merge
// when eligible (O(maxCut·log g), no population-wide pass at all), the
// bounded-heap prefix otherwise — an S-point sweep costs one prefix
// ranking plus O(maxCut·f + S·f) per group instead of
// S × O(n log n + n·f). Every metric kind answers its cuts through one
// fold table (foldWS), which the batch pass shares, so a kind's fold is
// written exactly once. The pointwise Disparity, DisparateImpact and
// FPRDiff stay on the pointwise metric code, the independent reference
// the sweep and batch harnesses check the folds against.
//
// Heterogeneous sweeps (every point its own bonus) degenerate to singleton
// groups: a prefix over one cut performs exactly the pointwise
// computation, and the groups fan over the worker pool just as the points
// themselves used to — the per-point path is the prefix path at S=1.
//
// Results are bit-identical to the pointwise metrics (metrics.Centroid,
// NDCGAtFrac, DisparateImpactWithin, FPRDiffWithin): the prefix
// aggregates resume the same left-to-right folds the pointwise metrics
// compute (see metrics/prefix.go), and the closed-form finishers share
// their scalar formulas with the pointwise implementations.

// SweepPoint is one (bonus vector, selection fraction) evaluation of a
// parallel sweep.
type SweepPoint struct {
	Bonus []float64
	K     float64
}

// sweepGroup is the unit of fold work: points answered from one ranked
// order, with their cuts deduplicated into an ascending grid. A sweep
// groups the points that share one canonical bonus vector; a batch groups
// its queries of one metric kind.
type sweepGroup struct {
	bonus  []float64 // canonical: nil means the uncompensated ranking
	pts    []int     // indices into the points (or queries) slice, in order
	cuts   []int     // ascending unique cuts
	cutPos []int     // cutPos[r] locates pts[r]'s cut within cuts
}

// canonBonus maps every all-zero (or nil) bonus to nil, so that the
// uncompensated ranking forms a single group regardless of how callers
// spell "no bonus".
func canonBonus(b []float64) []float64 {
	if isZero(b) {
		return nil
	}
	return b
}

// bonusKey builds a map key from the exact bit pattern of a canonical
// bonus vector. Only the slow heterogeneous-grouping path needs it.
func bonusKey(b []float64) string {
	buf := make([]byte, 8*len(b))
	for j, v := range b {
		bits := math.Float64bits(v)
		for o := 0; o < 8; o++ {
			buf[8*j+o] = byte(bits >> (8 * o))
		}
	}
	return string(buf)
}

// groupPoints partitions the points into sweepGroups in first-appearance
// order; cuts holds each point's validated cut. The all-points-share-one-
// bonus fast path is a single comparison scan with no map in sight.
func groupPoints(points []SweepPoint, cuts []int) []sweepGroup {
	if len(points) == 0 {
		return nil
	}
	var groups []sweepGroup
	first := canonBonus(points[0].Bonus)
	homogeneous := true
	for i := 1; i < len(points); i++ {
		if !slices.Equal(first, canonBonus(points[i].Bonus)) {
			homogeneous = false
			break
		}
	}
	if homogeneous {
		pts := make([]int, len(points))
		for i := range pts {
			pts[i] = i
		}
		groups = []sweepGroup{{bonus: first, pts: pts}}
	} else {
		byKey := make(map[string]int, len(points))
		for i, pt := range points {
			b := canonBonus(pt.Bonus)
			key := bonusKey(b)
			g, ok := byKey[key]
			if !ok {
				g = len(groups)
				byKey[key] = g
				groups = append(groups, sweepGroup{bonus: b})
			}
			groups[g].pts = append(groups[g].pts, i)
		}
	}
	for gi := range groups {
		groups[gi].setGrid(cuts)
	}
	return groups
}

// setGrid deduplicates the cuts of the group's points into its ascending
// grid and locates each point's cut within it. cutOf is indexed like the
// group's point indices (a sweep's points, a batch's queries).
func (g *sweepGroup) setGrid(cutOf []int) {
	cuts := make([]int, len(g.pts))
	for r, i := range g.pts {
		cuts[r] = cutOf[i]
	}
	sort.Ints(cuts)
	g.cuts = slices.Compact(cuts)
	g.cutPos = make([]int, len(g.pts))
	for r, i := range g.pts {
		g.cutPos[r], _ = slices.BinarySearch(g.cuts, cutOf[i])
	}
}

// vectorRows carves n result rows of width w from a single backing slice,
// so a sweep or batch performs two row allocations total instead of one
// per point.
func vectorRows(n, w int) [][]float64 {
	backing := make([]float64, n*w)
	out := make([][]float64, n)
	for i := range out {
		out[i] = backing[i*w : (i+1)*w : (i+1)*w]
	}
	return out
}

// metricKinds lists the kinds the fold table answers.
var metricKinds = []BatchKind{
	BatchDisparity, BatchNDCG, BatchDisparateImpact, BatchFPRDiff,
	BatchExposure, BatchExpRatio, BatchTopK,
}

// metricWidth is the row width of a metric kind's vector answers: one
// entry per fairness dimension, one more for exposure (the unprotected
// rest), and none for the scalar nDCG.
func (e *Evaluator) metricWidth(kind BatchKind) int {
	switch kind {
	case BatchNDCG:
		return 0
	case BatchExposure:
		return e.d.NumFair() + 1
	}
	return e.d.NumFair()
}

// foldWS is the fold table. It answers every point of group g for one
// metric kind from a single ranked order, resuming the kind's prefix fold
// over g's ascending cut grid. Point i = g.pts[r] is written to vecs[i]
// (a zeroed row of metricWidth, carved by the caller), vals[i] (the nDCG,
// or the exposure DDP) and errs[i] (the data-dependent failures: a zero
// ideal DCG, degenerate exposure groups). A fold's value at a cut does
// not depend on the other cuts in the grid or on how far order runs past
// the last one, so sweeps, batches and pointwise calls answer
// bit-identically from any shared pass.
func (e *Evaluator) foldWS(ws *engine.Workspace, kind BatchKind, order []int, g *sweepGroup, vecs [][]float64, vals []float64, errs []error) {
	n, dims := e.d.N(), e.d.NumFair()
	cuts := g.cuts
	nc := len(cuts)
	switch kind {
	case BatchDisparity:
		cent := metrics.PrefixCentroidInto(e.d, order, cuts, ws.Pop(), ws.Agg(nc*dims))
		for r, i := range g.pts {
			row := cent[g.cutPos[r]*dims:]
			for j := range vecs[i] {
				vecs[i][j] = row[j] - e.centroid[j]
			}
		}
	case BatchNDCG:
		agg := ws.Agg(2 * nc)
		corrected := metrics.PrefixDCGInto(e.base, order, cuts, agg[:nc])
		ideal := metrics.PrefixDCGInto(e.base, e.origOrd, cuts, agg[nc:])
		for r, i := range g.pts {
			c := g.cutPos[r]
			if ideal[c] == 0 {
				errs[i] = metrics.ErrZeroIdealDCG
				continue
			}
			vals[i] = corrected[c] / ideal[c]
		}
	case BatchDisparateImpact:
		counts := metrics.PrefixGroupCountsInto(e.d, order, cuts, ws.Cnts(nc*dims))
		for r, i := range g.pts {
			c := g.cutPos[r]
			row, sel := counts[c*dims:], cuts[c]
			for j := range vecs[i] {
				vecs[i][j] = metrics.ImpactFromCounts(row[j], e.groupTot[j], sel-row[j], n-e.groupTot[j])
			}
		}
	case BatchFPRDiff:
		cnts := ws.Cnts(nc*dims + nc)
		rows, all := cnts[:nc*dims], cnts[nc*dims:]
		metrics.PrefixFPCountsInto(e.d, order, cuts, rows, all)
		if e.negAll == 0 {
			return // every row stays zero
		}
		for r, i := range g.pts {
			c := g.cutPos[r]
			overall := float64(all[c]) / float64(e.negAll)
			row := rows[c*dims:]
			for j := range vecs[i] {
				if e.negTot[j] != 0 {
					vecs[i][j] = float64(row[j])/float64(e.negTot[j]) - overall
				}
			}
		}
	case BatchExposure:
		gw := dims + 1
		expo := metrics.PrefixExposureInto(e.d, order, cuts, ws.PopN(gw), ws.Agg(nc*gw))
		sizes := metrics.PrefixExposureCountsInto(e.d, order, cuts, ws.Cnts(nc*gw))
		for r, i := range g.pts {
			c := g.cutPos[r]
			row, szs := expo[c*gw:(c+1)*gw], sizes[c*gw:(c+1)*gw]
			ddp, err := metrics.DDPFromExposure(row, szs)
			if err != nil {
				errs[i] = err
				continue
			}
			metrics.ExposurePerCapitaInto(row, szs, vecs[i])
			vals[i] = ddp
		}
	case BatchExpRatio:
		gw := dims + 1
		expo := metrics.PrefixExposureInto(e.d, order, cuts, ws.PopN(gw), ws.Agg(nc*gw))
		counts := metrics.PrefixGroupCountsInto(e.d, order, cuts, ws.Cnts(nc*dims))
		for r, i := range g.pts {
			c := g.cutPos[r]
			erow, crow := expo[c*gw:], counts[c*dims:]
			for j := range vecs[i] {
				vecs[i][j] = metrics.ExpRatioFromCounts(erow[j], crow[j], e.groupTot[j]-e.negTot[j], e.groupTot[j])
			}
		}
	case BatchTopK:
		counts := metrics.PrefixGroupCountsInto(e.d, order, cuts, ws.Cnts(nc*dims))
		for r, i := range g.pts {
			c := g.cutPos[r]
			row, sel := counts[c*dims:], cuts[c]
			for j := range vecs[i] {
				vecs[i][j] = metrics.TopKFromCounts(row[j], sel, e.groupTot[j], n)
			}
		}
	}
}

// Sweep evaluates one metric kind at every sweep point and returns the
// answers in point order: vecs holds the vector rows (nil for the scalar
// BatchNDCG), vals the nDCG values or, for BatchExposure, each row's DDP
// (nil for the other kinds). Points sharing a canonical bonus vector are
// ranked once and answered from prefix aggregates of that one order;
// distinct bonus vectors fan over the worker pool. Every point is checked
// by the batch pass's query validator (checkQuery); a point it refuses,
// or whose fold fails (a zero ideal DCG, degenerate exposure groups),
// fails the sweep, wrapped with the point's index and fraction. Once ctx
// is done no further bonus group is ranked and the context's error is
// returned; no partial result escapes.
func (e *Evaluator) Sweep(ctx context.Context, kind BatchKind, points []SweepPoint) (vecs [][]float64, vals []float64, err error) {
	if !slices.Contains(metricKinds, kind) {
		return nil, nil, fmt.Errorf("core: kind %d is not a sweep metric", kind)
	}
	cuts := make([]int, len(points))
	for i, pt := range points {
		g, err := e.checkQuery(nil, BatchQuery{Kind: kind, K: pt.K})
		if err != nil {
			return nil, nil, fmt.Errorf("core: sweep point %d (k=%g): %w", i, pt.K, err)
		}
		cuts[i] = g.cut
	}
	groups := groupPoints(points, cuts)
	if w := e.metricWidth(kind); w > 0 {
		vecs = vectorRows(len(points), w)
	}
	if kind == BatchNDCG || kind == BatchExposure {
		vals = make([]float64, len(points))
	}
	errs := make([]error, len(points))
	gerrs := make([]error, len(groups))
	perr := e.parallelCtx(ctx, len(groups), func(ws *engine.Workspace, gi int) {
		gr := &groups[gi]
		ps, err := e.rankedPassWS(ctx, ws, gr.bonus, gr.cuts[len(gr.cuts)-1], false)
		if err != nil {
			gerrs[gi] = err
			return
		}
		e.foldWS(ws, kind, ps.order, gr, vecs, vals, errs)
	})
	if err := firstErr(perr, gerrs); err != nil {
		return nil, nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("core: sweep point %d (k=%g): %w", i, points[i].K, err)
		}
	}
	return vecs, vals, nil
}

// point answers one (bonus, k) point of a metric kind as a one-query
// batch (answerOne), failing with unwrapped errors. NDCG and the exposure
// family, whose pointwise form is a one-cut prefix fold, answer through
// it.
func (e *Evaluator) point(ctx context.Context, kind BatchKind, bonus []float64, k float64) ([]float64, float64, error) {
	a, err := e.answerOne(ctx, bonus, BatchQuery{Kind: kind, K: k})
	return a.Vector, a.Value, err
}

// vecsOf and valsOf project Sweep's answers for the named sweeps.
func vecsOf(vecs [][]float64, _ []float64, err error) ([][]float64, error) { return vecs, err }
func valsOf(_ [][]float64, vals []float64, err error) ([]float64, error)   { return vals, err }

// DisparitySweep evaluates the full-population disparity of every sweep
// point and returns the vectors in point order. Points sharing a bonus
// vector are ranked once and answered from prefix centroids; distinct
// bonus vectors fan over the worker pool.
func (e *Evaluator) DisparitySweep(points []SweepPoint) ([][]float64, error) {
	return e.DisparitySweepCtx(context.Background(), points)
}

// DisparitySweepCtx is DisparitySweep with cooperative cancellation: once
// ctx is done, no further bonus group is ranked and the context's error is
// returned; no partial result escapes.
func (e *Evaluator) DisparitySweepCtx(ctx context.Context, points []SweepPoint) ([][]float64, error) {
	return vecsOf(e.Sweep(ctx, BatchDisparity, points))
}

// NDCGSweep evaluates the nDCG of every sweep point and returns the values
// in point order. Points sharing a bonus vector are ranked once and
// answered from prefix DCG sums over the compensated and original orders.
func (e *Evaluator) NDCGSweep(points []SweepPoint) ([]float64, error) {
	return e.NDCGSweepCtx(context.Background(), points)
}

// NDCGSweepCtx is NDCGSweep with cooperative cancellation.
func (e *Evaluator) NDCGSweepCtx(ctx context.Context, points []SweepPoint) ([]float64, error) {
	return valsOf(e.Sweep(ctx, BatchNDCG, points))
}

// DisparateImpactSweep evaluates the scaled disparate impact of every
// sweep point and returns the vectors in point order. Points sharing a
// bonus vector are ranked once and answered from prefix group counts; the
// population group sizes are evaluator constants.
func (e *Evaluator) DisparateImpactSweep(points []SweepPoint) ([][]float64, error) {
	return e.DisparateImpactSweepCtx(context.Background(), points)
}

// DisparateImpactSweepCtx is DisparateImpactSweep with cooperative
// cancellation.
func (e *Evaluator) DisparateImpactSweepCtx(ctx context.Context, points []SweepPoint) ([][]float64, error) {
	return vecsOf(e.Sweep(ctx, BatchDisparateImpact, points))
}

// FPRDiffSweep evaluates the per-group false-positive-rate difference of
// every sweep point and returns the vectors in point order. The dataset
// must carry outcomes. Points sharing a bonus vector are ranked once and
// answered from prefix false-positive counts; the ground-truth-negative
// totals are evaluator constants.
func (e *Evaluator) FPRDiffSweep(points []SweepPoint) ([][]float64, error) {
	return e.FPRDiffSweepCtx(context.Background(), points)
}

// FPRDiffSweepCtx is FPRDiffSweep with cooperative cancellation.
func (e *Evaluator) FPRDiffSweepCtx(ctx context.Context, points []SweepPoint) ([][]float64, error) {
	return vecsOf(e.Sweep(ctx, BatchFPRDiff, points))
}

// firstErr merges the pool-level cancellation error with the per-group
// worker errors. Group errors win: they carry the site that actually
// failed (the pool error is the same context error one dispatch later).
func firstErr(poolErr error, gerrs []error) error {
	for _, err := range gerrs {
		if err != nil {
			return err
		}
	}
	return poolErr
}
