package service

import (
	"context"
	"fmt"
	"sync"
)

// flightGroup coalesces concurrent duplicate work: while one caller (the
// leader) runs fn for a key, every other caller with the same key blocks
// and shares the leader's result instead of re-running the pipeline. The
// server wraps the cold path of every /v1 endpoint but explain in it
// (train and report through Server.cachedFlight), so a thundering herd of
// identical what-if requests — N dashboards refreshing the same query —
// costs one computation, not N.
//
// Unlike a cache, a flight lives only as long as its computation: the
// result itself is stored in the LRU by fn, and late arrivals find it
// there. fn must therefore populate the cache before returning, or
// re-check it first (cachedFlight does both), so the delete-after-done
// window cannot duplicate work.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

type flight struct {
	done chan struct{}
	val  any
	err  error
}

// Do runs fn once per key among concurrent callers. It reports whether the
// result was shared from another caller's execution.
//
// ctx governs only the *waiting*: a follower whose own request is
// canceled or times out stops waiting and gets its context error back,
// while the leader keeps running for everyone else. The leader's fn sees
// cancellation through whatever context fn itself captured.
func (g *flightGroup) Do(ctx context.Context, key string, fn func() (any, error)) (val any, shared bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flight)
	}
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		select {
		case <-f.done:
			return f.val, true, f.err
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	g.m[key] = f
	g.mu.Unlock()

	committed := false
	defer func() {
		if !committed { // fn panicked: release waiters, then let it propagate
			f.err = fmt.Errorf("service: coalesced request failed")
			close(f.done)
		}
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
	}()
	f.val, f.err = fn()
	committed = true
	close(f.done)
	return f.val, false, f.err
}
