package core

import (
	"context"
	"fmt"
	"sort"

	"fairrank/internal/engine"
	"fairrank/internal/metrics"
	"fairrank/internal/rank"
)

// Explanation is the transparency report the paper argues bonus points make
// possible (Section III-C): a published cutoff, per-attribute participation,
// and per-object score breakdowns, so that "applicants can easily assess
// their chances" and "know their score and fairness adjustments at the time
// of application".
type Explanation struct {
	// K is the selection fraction explained.
	K float64
	// Selected is the number of selected objects.
	Selected int
	// Cutoff is the effective score of the last selected object: with the
	// bonus vector published, any applicant can compare their own adjusted
	// score against it.
	Cutoff float64
	// BaseCutoff is the cutoff of the uncompensated ranking, for contrast.
	BaseCutoff float64
	// Bonus is the bonus vector the report explains (copied).
	Bonus []float64
	// FairNames are the fairness attribute names, aligned with Bonus.
	FairNames []string
	// AdmittedByBonus lists objects selected under the bonus but not in
	// the uncompensated selection (the beneficiaries).
	AdmittedByBonus []int
	// DisplacedByBonus lists objects selected without the bonus but not
	// under it.
	DisplacedByBonus []int
	// GroupCounts[j] counts selected members of binary fairness attribute
	// j (value > 0.5) under the bonus; BaseGroupCounts is the same for the
	// uncompensated selection.
	GroupCounts     []int
	BaseGroupCounts []int

	// last is the id of the last selected object. With the cutoff it
	// places any object tied at the cutoff, by the ranking's own rule.
	last int
}

// ObjectExplanation breaks one object's effective score into its published
// components.
type ObjectExplanation struct {
	Object     int
	BaseScore  float64
	BonusTotal float64 // signed contribution: negative under Adverse polarity
	// PerAttribute lists each fairness attribute's contribution
	// (attribute value x bonus points, signed by polarity).
	PerAttribute []float64
	Effective    float64
	Selected     bool
	// Margin is Effective - Cutoff: how far above (positive) or below
	// (negative) the published threshold the object lands.
	Margin float64
}

// Explain produces the transparency report for a bonus vector at selection
// fraction k.
func (e *Evaluator) Explain(bonus []float64, k float64) (*Explanation, error) {
	return e.ExplainCtx(context.Background(), bonus, k)
}

// ExplainCtx is Explain with cooperative cancellation. The report costs
// one ranked prefix of the selection's length, which observes ctx as
// rankedPassWS does; the uncompensated side reads the cached base order.
func (e *Evaluator) ExplainCtx(ctx context.Context, bonus []float64, k float64) (*Explanation, error) {
	if err := e.checkBonusDims(bonus); err != nil {
		return nil, err
	}
	if e.d.N() == 0 {
		return nil, fmt.Errorf("core: cannot explain an empty dataset")
	}
	cnt, err := rank.SelectCount(e.d.N(), k)
	if err != nil {
		return nil, err
	}
	ws := e.ws()
	defer e.put(ws)
	ps, err := e.rankedPassWS(ctx, ws, bonus, cnt, false)
	if err != nil {
		return nil, err
	}
	exp := e.explainWS(ws, ps, bonus, k, cnt)
	return &exp, nil
}

// explainWS is the selection-side finisher Explain and BundleStats share:
// the cutoffs, group counts and beneficiary sets of the top-cnt prefix of
// ps against the cached uncompensated order. The pass must cover cnt
// positions. bonus is only copied, into a NumFair-long slice (nil means
// the zero vector), so every per-dimension slice is aligned — consumers
// like Summary and report.FromStats index them in lockstep. Nothing in
// the result aliases ws.
func (e *Evaluator) explainWS(ws *engine.Workspace, ps rankPass, bonus []float64, k float64, cnt int) Explanation {
	dims := e.d.NumFair()
	order, base := ps.order[:cnt], e.origOrd[:cnt]
	exp := Explanation{
		K:               k,
		Selected:        cnt,
		Cutoff:          ps.eff[order[cnt-1]],
		BaseCutoff:      e.base[base[cnt-1]],
		Bonus:           make([]float64, dims),
		FairNames:       e.d.FairNames(),
		GroupCounts:     make([]int, dims),
		BaseGroupCounts: make([]int, dims),
		last:            order[cnt-1],
	}
	copy(exp.Bonus, bonus)
	cuts := []int{cnt}
	copy(exp.GroupCounts, metrics.PrefixGroupCountsInto(e.d, order, cuts, ws.Cnts(dims)))
	copy(exp.BaseGroupCounts, metrics.PrefixGroupCountsInto(e.d, base, cuts, ws.Cnts(dims)))

	// Beneficiary sets: symmetric difference of the two selections via
	// the membership-mark buffer (reset to all-false on every path).
	marks := ws.Marks(e.d.N())
	for _, o := range base {
		marks[o] = true
	}
	for _, o := range order {
		if marks[o] {
			marks[o] = false
		} else {
			exp.AdmittedByBonus = append(exp.AdmittedByBonus, o)
		}
	}
	for _, o := range base {
		if marks[o] {
			exp.DisplacedByBonus = append(exp.DisplacedByBonus, o)
			marks[o] = false
		}
	}
	sort.Ints(exp.AdmittedByBonus)
	sort.Ints(exp.DisplacedByBonus)
	return exp
}

// ExplainObject breaks down one object's score against the report's
// published cutoff. exp must come from Explain (or BundleStats) on this
// evaluator: an object exactly at the cutoff is resolved with the
// report's last selected object, not by ranking again.
func (e *Evaluator) ExplainObject(exp *Explanation, obj int) (ObjectExplanation, error) {
	if obj < 0 || obj >= e.d.N() {
		return ObjectExplanation{}, fmt.Errorf("core: object %d outside [0,%d)", obj, e.d.N())
	}
	sign := e.pol.Sign()
	oe := ObjectExplanation{
		Object:       obj,
		BaseScore:    e.base[obj],
		PerAttribute: make([]float64, e.d.NumFair()),
	}
	for j := range oe.PerAttribute {
		c := sign * e.d.Fair(obj, j) * exp.Bonus[j]
		oe.PerAttribute[j] = c
		oe.BonusTotal += c
	}
	oe.Effective = oe.BaseScore + oe.BonusTotal
	oe.Margin = oe.Effective - exp.Cutoff
	// A zero margin ties the last selected object; equal scores rank the
	// lower id first, so the object is in unless its id comes later.
	oe.Selected = oe.Margin > 0 || (oe.Margin == 0 && obj <= exp.last)
	return oe, nil
}

// Summary renders the report as human-readable lines.
func (exp *Explanation) Summary() []string {
	lines := []string{
		fmt.Sprintf("selection: top %.1f%% = %d objects", exp.K*100, exp.Selected),
		fmt.Sprintf("published cutoff: %.3f (uncompensated cutoff: %.3f)", exp.Cutoff, exp.BaseCutoff),
	}
	for j, name := range exp.FairNames {
		lines = append(lines, fmt.Sprintf("%s: %g bonus points; selected members %d (was %d)",
			name, exp.Bonus[j], exp.GroupCounts[j], exp.BaseGroupCounts[j]))
	}
	lines = append(lines, fmt.Sprintf("admitted through bonus points: %d; displaced: %d",
		len(exp.AdmittedByBonus), len(exp.DisplacedByBonus)))
	return lines
}
