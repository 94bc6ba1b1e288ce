//go:build faultinject

package service

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fairrank/internal/faultinject"
	"fairrank/internal/rank"
	"fairrank/internal/synth"
)

// chaosServer builds a Server for fault-injection runs and guarantees a
// clean injection registry before and after each test.
func chaosServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	school, err := synth.GenerateSchool(schoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := New(cfg)
	if err := s.Register("school", school, rank.WeightedSum{Weights: synth.SchoolScoreWeights()}, rank.Beneficial); err != nil {
		t.Fatal(err)
	}
	s.MarkReady()
	return s
}

// TestFaultTrainerAcquireSheds: an injected pool-exhaustion fault at
// trainer.acquire surfaces as the real 503 + Retry-After answer.
func TestFaultTrainerAcquireSheds(t *testing.T) {
	s := chaosServer(t, Config{})
	faultinject.Set(faultinject.SiteTrainerAcquire, faultinject.Fault{Err: errTrainersBusy, Count: 1})
	w := doRequest(s.Handler(), httptest.NewRequest("POST", "/v1/train",
		bytes.NewReader([]byte(`{"dataset":"school","k":0.05}`))))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("injected exhaustion answered %d (%s), want 503", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if got := faultinject.Fired(faultinject.SiteTrainerAcquire); got != 1 {
		t.Fatalf("fault fired %d times, want 1", got)
	}
	// Count=1: the fault is spent, the next train succeeds.
	w = doRequest(s.Handler(), httptest.NewRequest("POST", "/v1/train",
		bytes.NewReader([]byte(`{"dataset":"school","k":0.05}`))))
	if w.Code != http.StatusOK {
		t.Fatalf("train after the fault spent = %d (%s)", w.Code, w.Body)
	}
}

// TestFaultSlowRankHitsDeadline: an injected delay at rank.prefix pushes
// the request past its endpoint deadline and the client sees 504 within a
// bounded wall-clock.
func TestFaultSlowRankHitsDeadline(t *testing.T) {
	s := chaosServer(t, Config{Timeouts: Timeouts{Explain: 50 * time.Millisecond}})
	faultinject.Set(faultinject.SiteRankPrefix, faultinject.Fault{Delay: 10 * time.Second})
	start := time.Now()
	w := doRequest(s.Handler(), httptest.NewRequest("GET", "/v1/explain?dataset=school&k=0.05&bonus=1,1,1,1", nil))
	elapsed := time.Since(start)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("slow-rank explain answered %d (%s), want 504", w.Code, w.Body)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("504 took %v; the deadline must cut the injected 10s delay short", elapsed)
	}
}

// TestFaultRankPrefixFailsUnbatchedCounterfactual: with batching off, a
// counterfactual request ranks through the same seam as every other
// workload, so an error injected at rank.prefix fails it with the
// declared status and leaves every per-object cache key cold; once the
// fault is spent the same request computes and caches its objects.
func TestFaultRankPrefixFailsUnbatchedCounterfactual(t *testing.T) {
	s := chaosServer(t, Config{})
	h := s.Handler()
	body := []byte(`{"dataset":"school","k":0.05,"bonus":[1,11.5,12,12],"objects":[0,7,99]}`)
	faultinject.Set(faultinject.SiteRankPrefix, faultinject.Fault{Err: errors.New("injected rank failure"), Count: 1})
	w := doRequest(h, httptest.NewRequest("POST", "/v1/counterfactual", bytes.NewReader(body)))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("counterfactual under an injected rank.prefix error answered %d (%s), want 400", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "injected rank failure") {
		t.Errorf("error body %q does not carry the injected error", w.Body)
	}
	if got := faultinject.Fired(faultinject.SiteRankPrefix); got != 1 {
		t.Fatalf("rank.prefix fired %d times, want 1", got)
	}
	if got := s.cache.len(); got != 0 {
		t.Fatalf("failed counterfactual left %d cache entries; every object key must stay cold", got)
	}
	w = doRequest(h, httptest.NewRequest("POST", "/v1/counterfactual", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("counterfactual after the fault spent = %d (%s)", w.Code, w.Body)
	}
	if got := s.cache.len(); got != 3 {
		t.Errorf("clean retry cached %d objects, want 3", got)
	}
}

// TestFaultReportPanicRecovered: a panic injected at report.start answers
// 500 through the recovery middleware, the server stays alive, and the
// same report succeeds once the fault is cleared.
func TestFaultReportPanicRecovered(t *testing.T) {
	s := chaosServer(t, Config{})
	h := s.Handler()
	const url = "/v1/report?dataset=school&k=0.05&bonus=1,11.5,12,12"
	faultinject.Set(faultinject.SiteReportStart, faultinject.Fault{Panic: "audit pipeline blew up", Count: 1})
	w := doRequest(h, httptest.NewRequest("GET", url, nil))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("panicking report answered %d (%s), want 500", w.Code, w.Body)
	}
	if s.panics.Load() != 1 {
		t.Errorf("panic counter = %d, want 1", s.panics.Load())
	}
	if w := doRequest(h, httptest.NewRequest("GET", "/healthz", nil)); w.Code != http.StatusOK {
		t.Fatal("healthz failed after a recovered panic")
	}
	if got := s.cache.len(); got != 0 {
		t.Fatalf("panicked report build left %d cache entries", got)
	}
	if w := doRequest(h, httptest.NewRequest("GET", url, nil)); w.Code != http.StatusOK {
		t.Fatalf("report after the fault spent = %d (%s)", w.Code, w.Body)
	}
}

// TestFaultEvaluateErrorDoesNotPoisonCache: an error injected at
// evaluate.start fails the sweep without caching anything.
func TestFaultEvaluateErrorDoesNotPoisonCache(t *testing.T) {
	s := chaosServer(t, Config{})
	h := s.Handler()
	faultinject.Set(faultinject.SiteEvaluateStart, faultinject.Fault{Err: errors.New("injected storage failure"), Count: 1})
	w := doRequest(h, httptest.NewRequest("POST", "/v1/evaluate", sweepBody(t, 16)))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("injected evaluate failure answered %d (%s), want 500", w.Code, w.Body)
	}
	if got := s.cache.len(); got != 0 {
		t.Fatalf("failed sweep cached %d entries", got)
	}
	w = doRequest(h, httptest.NewRequest("POST", "/v1/evaluate", sweepBody(t, 16)))
	if w.Code != http.StatusOK {
		t.Fatalf("sweep after the fault spent = %d (%s)", w.Code, w.Body)
	}
}

// TestChaosStorm is the chaos suite's centerpiece: a concurrent storm of
// requests while faults (delays, errors, panics) flicker on and off.
// Invariants: bounded wall-clock, every response is one of the declared
// statuses, surviving 200 responses are byte-identical to the clean
// answer, and the goroutine count returns to baseline.
func TestChaosStorm(t *testing.T) {
	s := chaosServer(t, Config{
		MaxInFlight: 32,
		AdmitWait:   5 * time.Millisecond,
		Timeouts: Timeouts{
			Explain:  2 * time.Second,
			Evaluate: 2 * time.Second,
			Report:   2 * time.Second,
			Train:    2 * time.Second,
		},
	})
	h := s.Handler()
	const explainURL = "/v1/explain?dataset=school&k=0.05&bonus=1,11.5,12,12"

	// Reference body from a clean run, for byte-identity of survivors.
	clean := doRequest(h, httptest.NewRequest("GET", explainURL, nil))
	if clean.Code != http.StatusOK {
		t.Fatalf("clean explain = %d (%s)", clean.Code, clean.Body)
	}
	want := clean.Body.Bytes()

	runtime.GC()
	baseline := runtime.NumGoroutine()

	stop := make(chan struct{})
	var flicker sync.WaitGroup
	flicker.Add(1)
	go func() { // fault flickerer: arm/disarm sites while the storm runs
		defer flicker.Done()
		sites := []struct {
			site string
			f    faultinject.Fault
		}{
			{faultinject.SiteExplainStart, faultinject.Fault{Delay: 3 * time.Millisecond}},
			{faultinject.SiteRankPrefix, faultinject.Fault{Err: context.DeadlineExceeded}},
			{faultinject.SiteExplainStart, faultinject.Fault{Panic: "storm panic"}},
			{faultinject.SiteTrainerAcquire, faultinject.Fault{Err: errTrainersBusy}},
		}
		i := 0
		for {
			select {
			case <-stop:
				faultinject.Reset()
				return
			default:
			}
			sc := sites[i%len(sites)]
			faultinject.Set(sc.site, sc.f)
			time.Sleep(2 * time.Millisecond)
			faultinject.Clear(sc.site)
			i++
		}
	}()

	const workers = 16
	const perWorker = 25
	statuses := make([]map[int]int, workers)
	bodies := make([][]byte, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			statuses[w] = make(map[int]int)
			for i := 0; i < perWorker; i++ {
				rec := doRequest(h, httptest.NewRequest("GET", explainURL, nil))
				statuses[w][rec.Code]++
				if rec.Code == http.StatusOK && bodies[w] == nil {
					bodies[w] = append([]byte(nil), rec.Body.Bytes()...)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	flicker.Wait()
	if elapsed := time.Since(start); elapsed > 90*time.Second {
		t.Fatalf("storm took %v; latency is unbounded under faults", elapsed)
	}

	allowed := map[int]bool{
		http.StatusOK:                  true,
		http.StatusInternalServerError: true, // injected panics and generic injected errors
		http.StatusServiceUnavailable:  true, // injected exhaustion, leader-ctx faults
		http.StatusTooManyRequests:     true, // admission under the storm
		http.StatusGatewayTimeout:      true, // injected deadline overruns
	}
	total, okCount := 0, 0
	for w := range statuses {
		for code, n := range statuses[w] {
			total += n
			if code == http.StatusOK {
				okCount += n
			}
			if !allowed[code] {
				t.Errorf("storm produced status %d (%d times)", code, n)
			}
		}
	}
	if total != workers*perWorker {
		t.Errorf("storm answered %d of %d requests", total, workers*perWorker)
	}
	if okCount == 0 {
		t.Error("storm produced zero successful responses; faults were supposed to flicker, not saturate")
	}
	for w := range bodies {
		if bodies[w] != nil && !bytes.Equal(bodies[w], want) {
			t.Fatalf("surviving response diverged from the clean answer:\n got %s\nwant %s", bodies[w], want)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle after the storm: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
