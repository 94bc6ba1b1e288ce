// Fixture for the wsalias analyzer: consumers of the pooled workspace.
package core

import "example.com/engine"

// Result stands in for a response struct that outlives the workspace.
type Result struct{ Scores []float64 }

var leaked []float64

// orderWS follows the *WS naming convention: returning
// workspace-aliasing data is its documented contract.
func orderWS(ws *engine.Workspace, n int) []int {
	return ws.Ord(n)
}

// pass stands in for the evaluator's ranked pass, returned with an error
// by the *WS seams below.
type pass struct {
	order []int
	eff   []float64
}

func rankedPassWS(ws *engine.Workspace, p int) (pass, error) {
	return pass{order: ws.Ord(p), eff: ws.Eff(p)}, nil
}

func selectWS(ws *engine.Workspace, p int) ([]int, error) {
	ps, err := rankedPassWS(ws, p)
	return ps.order, err
}

// fillRanked stands in for rank.OrderInto: it fills and returns the
// caller's index buffer.
func fillRanked(eff []float64, idx []int) []int {
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func returnsScratch(ws *engine.Workspace) []float64 {
	eff := ws.Eff(8)
	return eff // want `returnsScratch returns a slice aliasing pooled workspace scratch`
}

func returnsScratchSlice(ws *engine.Workspace) []float64 {
	return ws.Eff(8)[:4] // want `returnsScratchSlice returns a slice aliasing pooled workspace scratch`
}

func returnsSeamResult(ws *engine.Workspace) []int {
	order := orderWS(ws, 8)
	return order // want `returnsSeamResult returns a slice aliasing pooled workspace scratch`
}

func returnsPassOrder(ws *engine.Workspace) []int {
	ps, _ := rankedPassWS(ws, 8)
	return ps.order // want `returnsPassOrder returns a slice aliasing pooled workspace scratch`
}

func returnsPassScores(ws *engine.Workspace) []float64 {
	ps, _ := rankedPassWS(ws, 8)
	return ps.eff // want `returnsPassScores returns a slice aliasing pooled workspace scratch`
}

func returnsTupleSeamResult(ws *engine.Workspace) []int {
	sel, _ := selectWS(ws, 8)
	return sel // want `returnsTupleSeamResult returns a slice aliasing pooled workspace scratch`
}

func returnsFilledBuffer(ws *engine.Workspace) []int {
	return fillRanked(ws.Eff(8), ws.Ord(8)) // want `returnsFilledBuffer returns a slice aliasing pooled workspace scratch`
}

func returnsInStruct(ws *engine.Workspace) Result {
	return Result{Scores: ws.Eff(8)} // want `returnsInStruct returns a slice aliasing pooled workspace scratch`
}

func storesScratch(ws *engine.Workspace, out *Result) {
	out.Scores = ws.Eff(8) // want `storesScratch stores a slice aliasing pooled workspace scratch into out\.Scores`
}

func storesScratchGlobal(ws *engine.Workspace) {
	leaked = ws.Eff(8) // want `storesScratchGlobal stores a slice aliasing pooled workspace scratch into package variable leaked`
}

// copies returns caller-owned memory: copying out of scratch is the
// documented fix.
func copies(ws *engine.Workspace) []float64 {
	eff := ws.Eff(8)
	out := make([]float64, len(eff))
	copy(out, eff)
	return out
}

// copiesAppend copies via the append-to-nil idiom.
func copiesAppend(ws *engine.Workspace) []int {
	return append([]int(nil), orderWS(ws, 8)...)
}

// consumesLocally hands scratch to an in-function consumer through a
// closure; nothing escapes.
func consumesLocally(ws *engine.Workspace, visit func(func() []float64)) {
	visit(func() []float64 { return ws.Eff(8) })
}

// pinned carries a justified suppression: the caller is documented to
// copy before releasing the workspace.
func pinned(ws *engine.Workspace) []float64 {
	//fairlint:allow wsalias -- caller holds the workspace and copies before release; measured hot path
	return ws.Eff(8)
}

// unjustified shows a directive without a reason: it suppresses
// nothing and is itself reported.
func unjustified(ws *engine.Workspace) []float64 {
	return ws.Eff(8) //fairlint:allow wsalias
	// want^ `no justification` `unjustified returns a slice aliasing pooled workspace scratch`
}
