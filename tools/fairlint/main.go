// Command fairlint is the project's custom static-analysis suite. It
// mechanically enforces the invariants six PRs of speedups rely on:
//
//	rankonce    — no ad-hoc sorting/heap selection in exactness-pinned
//	              packages; rankings flow through internal/rank via the
//	              single Evaluator.rankedPassWS seam.
//	intoalloc   — *Into functions allocate nothing (the zero-allocation
//	              naming contract behind the AllocsPerRun assertions).
//	determinism — exactness-pinned packages stay bit-reproducible: no
//	              map-iteration-order-dependent results, no math/rand,
//	              no time.Now.
//	wsalias     — no slice aliasing pooled engine.Workspace scratch
//	              escapes outside the documented *WS seams.
//
// fairlint is a go/analysis unitchecker, so it plugs into the build
// exactly like vet:
//
//	cd tools/fairlint && go build -o fairlint .
//	go vet -vettool=tools/fairlint/fairlint ./...
//
// Justified exceptions carry //fairlint:allow <analyzer> -- <reason>
// directives; a directive without a reason suppresses nothing and is
// itself a diagnostic. The module vendors the golang.org/x/tools
// analysis framework so the root module stays dependency-free.
package main

import (
	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/unitchecker"

	"fairrank/tools/fairlint/determinism"
	"fairrank/tools/fairlint/intoalloc"
	"fairrank/tools/fairlint/rankonce"
	"fairrank/tools/fairlint/wsalias"
)

// Suite lists every registered analyzer. scripts/checkdocs.sh requires
// each one to be documented in the "Enforced invariants" table of
// docs/ARCHITECTURE.md.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		rankonce.Analyzer,
		intoalloc.Analyzer,
		determinism.Analyzer,
		wsalias.Analyzer,
	}
}

func main() { unitchecker.Main(Suite()...) }
