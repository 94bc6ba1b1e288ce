package service

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fairrank/internal/core"
	"fairrank/internal/faultinject"
	"fairrank/internal/report"
)

// Cross-request micro-batching. Singleflight coalesces byte-identical
// requests; the batcher goes one step further and coalesces concurrent
// DISTINCT requests that share a (dataset, canonical bonus bits) pair —
// the exact sharing unit of the paper's additive design, under which any
// k, object list, or metric is answerable from one ranked pass. Requests
// joining a window wait for companions up to BatchMaxWait (or until
// BatchSize of them have gathered), then one core.AnswerBatchCtx pass
// sized to the batch's max-cut union answers everyone, and the answers
// fan out over per-caller channels. Each caller's response is
// byte-identical to the unbatched path; the cost per request drops with
// load instead of rising.

// DefaultBatchSize is the size threshold applied when batching is
// enabled (BatchMaxWait set) without an explicit BatchSize.
const DefaultBatchSize = 16

// DefaultBatchWait is the window applied when batching is enabled
// (BatchSize set) without an explicit BatchMaxWait. Two milliseconds is
// far below any ranked pass on a population worth batching, so the
// added latency is noise, while a concurrent burst lands well within it.
const DefaultBatchWait = 2 * time.Millisecond

// batcher collects concurrent same-bonus requests into windows and runs
// one shared pass per window. It sits UNDER the per-request cache probes
// and singleflight (only cache-missing work joins a window) and ABOVE
// the core entry point.
type batcher struct {
	size    int
	wait    time.Duration
	onPanic func()

	mu     sync.Mutex
	groups map[string]*batchGroup

	// Gauges for /healthz: windows flushed, member requests served
	// through a batch, and the high-water batch size.
	flushes atomic.Int64
	batched atomic.Int64
	largest atomic.Int64
}

func newBatcher(size int, wait time.Duration, onPanic func()) *batcher {
	return &batcher{size: size, wait: wait, onPanic: onPanic, groups: make(map[string]*batchGroup)}
}

// batchGroup is one open window: every call that joined, the entry and
// bonus they share, and the timer that flushes the window if the size
// threshold never arrives.
type batchGroup struct {
	key     string
	entry   *Entry
	bonus   []float64
	timer   *time.Timer
	calls   []*batchCall
	fired   bool // a size-threshold flush goroutine has been spawned
	flushed bool // a flush has claimed the group (idempotency latch)
}

type batchCall struct {
	ctx     context.Context
	queries []core.BatchQuery
	done    chan batchOutcome // buffered: a flush never blocks on a gone caller
}

type batchOutcome struct {
	answers []core.BatchAnswer
	err     error
}

// batchKey is the window identity: dataset plus the canonical bonus-bits
// signature — the same canonicalization the cache keys use, so "0" and
// an all-zero vector share a window just as they share cache rows.
func batchKey(dataset string, bonus []float64) string {
	b := make([]byte, 0, 64)
	b = append(b, "batch|"...)
	b = append(b, dataset...)
	b = append(b, '|')
	b = appendBonusSig(b, bonus)
	return string(b)
}

// stats snapshots the gauges plus the number of currently open windows.
func (b *batcher) stats() (flushes, batched, largest int64, windows int) {
	b.mu.Lock()
	windows = len(b.groups)
	b.mu.Unlock()
	return b.flushes.Load(), b.batched.Load(), b.largest.Load(), windows
}

// submit enqueues queries under the (dataset, bonus) window and blocks
// until the batch answers or the caller's own ctx dies. The returned
// answers are the caller's sub-range of the batch, in query order. A
// caller whose ctx dies mid-window returns its raw context error
// immediately (the handler maps it to 499/504) without stalling the
// window: the flush skips members whose context is already dead.
func (b *batcher) submit(ctx context.Context, e *Entry, bonus []float64, queries []core.BatchQuery) ([]core.BatchAnswer, error) {
	call := &batchCall{ctx: ctx, queries: queries, done: make(chan batchOutcome, 1)}
	key := batchKey(e.name, bonus)
	b.mu.Lock()
	g, ok := b.groups[key]
	if !ok {
		g = &batchGroup{key: key, entry: e, bonus: append([]float64(nil), bonus...)}
		b.groups[key] = g
		g.timer = time.AfterFunc(b.wait, func() { b.flush(g) })
	}
	g.calls = append(g.calls, call)
	trigger := !g.fired && len(g.calls) >= b.size
	if trigger {
		g.fired = true
	}
	b.mu.Unlock()
	if trigger {
		g.timer.Stop()
		go b.flush(g)
	}
	select {
	case out := <-call.done:
		return out.answers, out.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// flush claims the group (idempotent: the timer and the size trigger can
// both arrive), drops it from the window map so late arrivals open a new
// window, and runs one shared pass for every caller still listening.
func (b *batcher) flush(g *batchGroup) {
	b.mu.Lock()
	if g.flushed {
		b.mu.Unlock()
		return
	}
	g.flushed = true
	delete(b.groups, g.key)
	calls := g.calls
	b.mu.Unlock()

	live := make([]*batchCall, 0, len(calls))
	for _, c := range calls {
		if c.ctx.Err() != nil {
			continue // the caller already answered from its own context error
		}
		live = append(live, c)
	}
	if len(live) == 0 {
		return
	}
	b.flushes.Add(1)
	b.batched.Add(int64(len(live)))
	for {
		old := b.largest.Load()
		if int64(len(live)) <= old || b.largest.CompareAndSwap(old, int64(len(live))) {
			break
		}
	}
	g.entry.batchFlushes.Add(1)
	g.entry.batchedRequests.Add(int64(len(live)))

	// The pass runs under the BATCH's context, canceled only when every
	// member has gone: one caller's disconnect never poisons the answers
	// of the rest, while a fully abandoned batch stops at the engine's
	// next cancellation checkpoint instead of computing for nobody. The
	// watcher goroutines exit through finished once the pass returns.
	bctx, cancel := context.WithCancel(context.Background())
	finished := make(chan struct{})
	var gone atomic.Int64
	for _, c := range live {
		go func(c *batchCall) {
			select {
			case <-c.ctx.Done():
				if gone.Add(1) == int64(len(live)) {
					cancel()
				}
			case <-finished:
			}
		}(c)
	}

	answers, err := b.run(bctx, g, live)
	close(finished)
	cancel()

	off := 0
	for _, c := range live {
		out := batchOutcome{err: err}
		if err == nil {
			out.answers = answers[off : off+len(c.queries)]
		}
		off += len(c.queries)
		c.done <- out
	}
}

// run executes the shared pass behind a panic shield: a panic (injected
// at batcher.flush or real) is converted to the same 500 the recovery
// middleware answers, every waiter is released with it, and the panic
// counter ticks exactly once per batch. Nothing reaches any cache from
// here — members cache their own rows only after their submit returns
// success, so a failed batch leaves every member's keys cold.
func (b *batcher) run(ctx context.Context, g *batchGroup, live []*batchCall) (answers []core.BatchAnswer, err error) {
	defer func() {
		if v := recover(); v != nil {
			b.onPanic()
			answers, err = nil, errBatchPanic
		}
	}()
	if err := faultinject.Fire(ctx, faultinject.SiteBatcherFlush); err != nil {
		return nil, err
	}
	total := 0
	for _, c := range live {
		total += len(c.queries)
	}
	qs := make([]core.BatchQuery, 0, total)
	for _, c := range live {
		qs = append(qs, c.queries...)
	}
	return g.entry.eval.AnswerBatchCtx(ctx, g.bonus, qs)
}

// errBatchPanic mirrors the recovery middleware's panic answer. Batch
// members wait on a channel rather than in the frame that panicked, so
// the conversion to a response happens here instead of in recovered.
var errBatchPanic = &httpError{status: http.StatusInternalServerError, msg: "internal error"}

// answer is the one place the service chooses between the micro-batch
// window and an inline call; the counterfactual, report and single-bonus
// evaluate pipelines all reach the engine through it. Queries sharing a
// bonus ride the window when batching is on and the bonus is non-zero,
// and otherwise run inline through the same AnswerBatchCtx pass: a zero
// bonus is answered from the cached base order for free, so there is
// nothing to share.
func (s *Server) answer(ctx context.Context, e *Entry, bonus []float64, qs []core.BatchQuery) ([]core.BatchAnswer, error) {
	if s.batch != nil && !isZeroBonus(bonus) {
		return s.batch.submit(ctx, e, bonus, qs)
	}
	return e.eval.AnswerBatchCtx(ctx, bonus, qs)
}

// batchableSweep reports whether every point of a sweep shares one bonus
// vector, so that the sweep is one batch of queries for answer. A
// multi-bonus sweep stays on Evaluator.Sweep, which already fans its
// per-bonus groups over the engine worker pool.
func batchableSweep(pts []core.SweepPoint) ([]float64, bool) {
	if len(pts) == 0 {
		return nil, false
	}
	first := pts[0].Bonus
	for _, pt := range pts[1:] {
		if !slices.Equal(first, pt.Bonus) {
			return nil, false
		}
	}
	return first, true
}

// batchSweep answers one single-bonus sweep through answer: each point
// becomes one query of the metric's kind, and the shared pass returns rows
// bit-identical to the sweep engine, since both resume the same prefix
// folds over the same ranked prefix.
func (s *Server) batchSweep(ctx context.Context, e *Entry, spec metricSpec, bonus []float64, pts []core.SweepPoint) ([][]float64, []float64, error) {
	qs := make([]core.BatchQuery, len(pts))
	for i, pt := range pts {
		qs[i] = core.BatchQuery{Kind: spec.kind, K: pt.K}
	}
	answers, err := s.answer(ctx, e, bonus, qs)
	if err != nil {
		return nil, nil, err
	}
	// Per-query errors (ndcg's missing outcomes at a cut, exposure's
	// degenerate prefixes) fail the whole sweep in the exact shape the
	// sweep engine reports: missing-local point index plus fraction.
	for i, a := range answers {
		if a.Err != nil {
			return nil, nil, fmt.Errorf("core: sweep point %d (k=%g): %w", i, pts[i].K, a.Err)
		}
	}
	if spec.scalar {
		vals := make([]float64, len(pts))
		for i, a := range answers {
			vals[i] = a.Value
		}
		return nil, vals, nil
	}
	vecs := make([][]float64, len(pts))
	for i, a := range answers {
		vecs[i] = a.Vector
	}
	return vecs, nil, nil
}

// reportStats builds one audit bundle's stats through answer.
// Validation is the report layer's own, run before any window, so a
// malformed request is rejected with the library's wording and never
// joins a batch, and the margin normalization matches BuildBundleStats'
// (zero maps to the default).
func (s *Server) reportStats(ctx context.Context, e *Entry, cfg report.BundleConfig) (*core.BundleStats, error) {
	margins, err := report.ValidateBundleConfig(e.eval, cfg)
	if err != nil {
		return nil, err
	}
	bcfg := &core.BundleStatsConfig{
		Bonus:           cfg.Bonus,
		K:               cfg.K,
		Margins:         margins,
		IncludeFPR:      cfg.IncludeFPR,
		IncludeExposure: cfg.IncludeExposure,
	}
	answers, err := s.answer(ctx, e, cfg.Bonus, []core.BatchQuery{
		{Kind: core.BatchBundle, Bundle: bcfg},
	})
	if err != nil {
		return nil, err
	}
	return answers[0].Bundle, answers[0].Err
}
