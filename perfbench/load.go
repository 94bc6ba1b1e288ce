package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// phase is the outcome of one closed-loop phase.
type phase struct {
	attempted, ok, failed int
	lats                  []time.Duration // latencies of the 200 responses
	elapsed               time.Duration   // phase start to last completion
	bodies                map[int][]byte  // 200 bodies kept by request index
	firstErrs             []string
	next                  int // index of the first request not sent
}

// loopSpec bounds one closed-loop phase. The phase sends requests
// gen(from), gen(from+1), ... and stops starting new ones once limit
// requests have been sent (limit > 0), or else once dur has passed.
type loopSpec struct {
	from    int
	limit   int
	dur     time.Duration
	keep    func(i int) bool // keep the 200 body of request i
	clients int
}

// runLoop drives fairrankd in a closed loop: each client sends its next
// request only after the previous answer's last body byte arrived.
func runLoop(cl *http.Client, base string, gen func(int) request, spec loopSpec) phase {
	var next atomic.Int64
	next.Store(int64(spec.from))
	start := time.Now()
	stop := func() bool {
		if spec.limit > 0 {
			return next.Load() >= int64(spec.from+spec.limit)
		}
		return time.Since(start) >= spec.dur
	}

	parts := make([]phase, spec.clients)
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(p *phase) {
			defer wg.Done()
			p.bodies = map[int][]byte{}
			for !stop() {
				i := int(next.Add(1) - 1)
				if spec.limit > 0 && i >= spec.from+spec.limit {
					break
				}
				r := gen(i)
				t0 := time.Now()
				status, body, err := send(cl, base, r)
				lat := time.Since(t0)
				p.attempted++
				if err != nil || status != http.StatusOK {
					p.failed++
					if len(p.firstErrs) < 3 {
						p.firstErrs = append(p.firstErrs, fmt.Sprintf("%s %s: status %d err %v body %.200s", r.Method, r.Path, status, err, body))
					}
				} else {
					p.ok++
					p.lats = append(p.lats, lat)
					if spec.keep != nil && spec.keep(i) {
						p.bodies[i] = body
					}
				}
				if el := time.Since(start); el > p.elapsed {
					p.elapsed = el
				}
			}
		}(&parts[c])
	}
	wg.Wait()

	out := phase{bodies: map[int][]byte{}, next: int(next.Load())}
	if spec.limit > 0 && out.next > spec.from+spec.limit {
		out.next = spec.from + spec.limit
	}
	for _, p := range parts {
		out.attempted += p.attempted
		out.ok += p.ok
		out.failed += p.failed
		out.lats = append(out.lats, p.lats...)
		out.firstErrs = append(out.firstErrs, p.firstErrs...)
		for i, b := range p.bodies {
			out.bodies[i] = b
		}
		out.elapsed = max(out.elapsed, p.elapsed)
	}
	return out
}

// send performs one request and reads the whole body.
func send(cl *http.Client, base string, r request) (int, []byte, error) {
	var body io.Reader
	if r.Body != nil {
		body = bytes.NewReader(r.Body)
	}
	hr, err := http.NewRequest(r.Method, base+r.Path, body)
	if err != nil {
		return 0, nil, err
	}
	if r.Body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	resp, err := cl.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}
