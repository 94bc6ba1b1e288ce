// Package rankonce enforces the rank-once invariant: exactness-pinned
// engine packages must not sort or heap-select cohort-sized score data
// themselves. Every ranking flows through the single
// Evaluator.rankedPassWS seam (internal/rank does the actual sorting),
// so sweeps, bundles, and counterfactuals provably share ranked passes —
// the property the differential harnesses and the ranking-count budget
// assertions pin.
//
// Flagged in matching packages (non-test files): sort.Slice,
// sort.SliceStable, sort.Sort, sort.Stable, the slices.Sort* family,
// and container/heap operations. sort.Ints / sort.Float64s /
// sort.Strings stay legal: the engine uses them to canonicalize small
// id lists for stable output, never to rank scores.
//
// Also flagged: inside methods on the Evaluator type, calls to the
// internal/rank ranking routes (Order, OrderInto, TopKHeap,
// TopKHeapInto, SortRanked, and ComboRuns.MergeTopKInto /
// MergeTopKIntoCtx) anywhere but the seam method itself, so exactly one
// function picks the route. Plain functions (the evaluator constructor's
// cached base order, the sample-level rankings of the DCA objectives)
// and scoring without ranking (EffectiveScoresAll) stay legal.
package rankonce

import (
	"go/ast"
	"go/types"

	"fairrank/tools/fairlint/internal/directive"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"
)

var Analyzer = &analysis.Analyzer{
	Name:     "rankonce",
	Doc:      "forbid ad-hoc sorting/heap selection in exactness-pinned packages; rankings must flow through internal/rank (Evaluator.rankedPassWS)",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

var packagesFlag *string

func init() {
	packagesFlag = Analyzer.Flags.String("packages", "internal/core,internal/service,internal/report,internal/metrics",
		"comma-separated package path patterns the invariant applies to")
}

// banned maps package path -> function names whose call sites violate
// the invariant.
var banned = map[string]map[string]bool{
	"sort": {
		"Slice": true, "SliceStable": true, "SliceIsSorted": false,
		"Sort": true, "Stable": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
		"Sorted": true, "SortedFunc": true, "SortedStableFunc": true,
	},
	"container/heap": {
		"Init": true, "Push": true, "Pop": true, "Fix": true,
	},
}

// seam is the one Evaluator method allowed to call the ranking routes.
const seam = "rankedPassWS"

// routes lists the internal/rank functions and ComboRuns methods that
// produce a ranked order; within Evaluator methods only the seam may
// call them.
var routes = map[string]bool{
	"Order": true, "OrderInto": true, "TopKHeap": true, "TopKHeapInto": true,
	"SortRanked": true, "MergeTopKInto": true, "MergeTopKIntoCtx": true,
}

func run(pass *analysis.Pass) (any, error) {
	if !directive.PackageMatch(pass.Pkg.Path(), *packagesFlag) {
		return nil, nil
	}
	sup := directive.New(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		call := n.(*ast.CallExpr)
		if !push || directive.TestFile(pass, call.Pos()) {
			return true
		}
		fn := typeutil.Callee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if banned[fn.Pkg().Path()][fn.Name()] {
			sup.Reportf(pass, call.Pos(),
				"%s.%s in exactness-pinned package %s: rankings must flow through internal/rank (Evaluator.%s); annotate //fairlint:allow rankonce -- <reason> if this provably does not rank score data",
				fn.Pkg().Name(), fn.Name(), pass.Pkg.Path(), seam)
		}
		if routes[fn.Name()] && directive.PackageMatch(fn.Pkg().Path(), "internal/rank") {
			if m := evaluatorMethod(pass, stack); m != "" && m != seam {
				sup.Reportf(pass, call.Pos(),
					"rank.%s in Evaluator.%s: the ranking route is chosen only in Evaluator.%s; take a pass from it instead",
					fn.Name(), m, seam)
			}
		}
		return true
	})
	return nil, nil
}

// evaluatorMethod returns the name of the Evaluator method enclosing the
// innermost node of stack, or "" when it is not inside one.
func evaluatorMethod(pass *analysis.Pass, stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		fd, ok := stack[i].(*ast.FuncDecl)
		if !ok {
			continue
		}
		if fd.Recv == nil || len(fd.Recv.List) != 1 {
			return ""
		}
		t := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok && n.Obj().Name() == "Evaluator" {
			return fd.Name.Name
		}
		return ""
	}
	return ""
}
