// Fixture for the rankonce seam rule: inside Evaluator methods only
// rankedPassWS may call the internal/rank ranking routes.
package core

import "example.com/internal/rank"

type Evaluator struct {
	base []float64
	runs *rank.ComboRuns
}

// NewEvaluator is a plain function: its cached base order is legal.
func NewEvaluator(base []float64) *Evaluator {
	_ = rank.Order(base)
	return &Evaluator{base: base, runs: &rank.ComboRuns{}}
}

// The seam itself picks the route.
func (e *Evaluator) rankedPassWS(eff []float64, p int, ord []int) []int {
	if pre := e.runs.MergeTopKInto(p, ord); pre != nil {
		return pre
	}
	pre := rank.TopKHeapInto(eff, p, ord)
	rank.SortRanked(eff, pre)
	return rank.OrderInto(eff, ord)
}

func (e *Evaluator) sweep(eff []float64, ord []int) []int {
	return e.rankedPassWS(eff, 3, ord)
}

func (e *Evaluator) adHocRoute(eff []float64, ord []int) []int {
	pre := rank.TopKHeapInto(eff, 3, ord) // want `rank\.TopKHeapInto in Evaluator\.adHocRoute`
	rank.SortRanked(eff, pre)             // want `rank\.SortRanked in Evaluator\.adHocRoute`
	go func() {
		_ = rank.Order(eff) // want `rank\.Order in Evaluator\.adHocRoute`
	}()
	return e.runs.MergeTopKInto(3, ord) // want `rank\.MergeTopKInto in Evaluator\.adHocRoute`
}

// Scoring without ranking stays legal.
func (e *Evaluator) scores() []float64 {
	return rank.EffectiveScoresAll(e.base)
}

type sampler struct{}

// Sample-level rankings outside the Evaluator stay legal.
func (sampler) rank(eff []float64) []int { return rank.Order(eff) }

func (e *Evaluator) crossCheck(eff []float64) []int {
	//fairlint:allow rankonce -- differential reference order for a debugging aid
	return rank.Order(eff)
}
