package service

import (
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"testing"

	"fairrank/internal/rank"
	"fairrank/internal/synth"
)

// These tests pin the order-independence of the scatter/gather loops in
// handlers.go (cachedRows, behind evaluateSweep and runCounterfactual):
// the `missing` gather lists are index-ordered []int slices — NOT maps, so
// Go's randomized map iteration order cannot reach them — and the
// response must be invariant under every way the cache could have
// partitioned the batch. Each trial pre-warms a random subset of the
// request in random order (randomizing both the contents and the
// batching of `missing`) and asserts the final response is
// byte-identical to the cold one modulo the cache counters. If a
// future change routes the gather through a map or makes row values
// depend on batch composition, these trials fail.

// newSchoolServer registers only the school cohort: the trials below
// create many servers, and one dataset keeps them cheap.
func newSchoolServer(t *testing.T) *httptest.Server {
	t.Helper()
	school, err := synth.GenerateSchool(schoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	if err := s.Register("school", school, rank.WeightedSum{Weights: synth.SchoolScoreWeights()}, rank.Beneficial); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// canonical re-marshals a response with its cache counter zeroed, so
// cold and warmed responses compare byte-for-byte.
func canonical(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestEvaluateGatherOrderIndependent(t *testing.T) {
	points := []SweepPointRequest{
		{Bonus: []float64{1, 2, 3, 4}, K: 0.05},
		{Bonus: []float64{1, 2, 3, 4}, K: 0.1},
		{Bonus: []float64{1, 2, 3, 4}, K: 0.2},
		{Bonus: []float64{2, 1, 0.5, 3}, K: 0.05},
		{Bonus: []float64{2, 1, 0.5, 3}, K: 0.15},
		{Bonus: []float64{0, 0, 0, 0}, K: 0.1},
		{Bonus: []float64{4, 4, 4, 4}, K: 0.25},
		{Bonus: []float64{1, 0, 0, 2}, K: 0.3},
	}
	full := EvaluateRequest{Dataset: "school", Metric: "disparity", Points: points}

	cold := func() string {
		ts := newSchoolServer(t)
		var resp EvaluateResponse
		if code, body := postJSON(t, ts.URL+"/v1/evaluate", full, &resp); code != 200 {
			t.Fatalf("cold evaluate: %d %s", code, body)
		}
		if resp.CachedPoints != 0 {
			t.Fatalf("cold evaluate reports %d cached points", resp.CachedPoints)
		}
		resp.CachedPoints = 0
		return canonical(t, resp)
	}()

	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		ts := newSchoolServer(t)
		// Pre-warm a random subset in random order, in random batch
		// sizes: the full request's `missing` list then holds an
		// arbitrary subset of the points.
		perm := rng.Perm(len(points))
		warm := perm[:rng.Intn(len(points)+1)]
		for len(warm) > 0 {
			n := 1 + rng.Intn(len(warm))
			batch := make([]SweepPointRequest, 0, n)
			for _, i := range warm[:n] {
				batch = append(batch, points[i])
			}
			warm = warm[n:]
			if code, body := postJSON(t, ts.URL+"/v1/evaluate",
				EvaluateRequest{Dataset: "school", Metric: "disparity", Points: batch}, nil); code != 200 {
				t.Fatalf("trial %d warmup: %d %s", trial, code, body)
			}
		}
		var resp EvaluateResponse
		if code, body := postJSON(t, ts.URL+"/v1/evaluate", full, &resp); code != 200 {
			t.Fatalf("trial %d: %d %s", trial, code, body)
		}
		resp.CachedPoints = 0
		if got := canonical(t, resp); got != cold {
			t.Errorf("trial %d: response depends on cache state\ncold: %s\ngot:  %s", trial, cold, got)
		}
	}
}

func TestCounterfactualGatherOrderIndependent(t *testing.T) {
	objects := []int{3, 17, 42, 111, 256, 777, 1234, 2400}
	bonus := []float64{1.5, 0.5, 2, 1}
	full := CounterfactualRequest{Dataset: "school", Bonus: bonus, K: 0.1, Objects: objects}

	cold := func() string {
		ts := newSchoolServer(t)
		var resp CounterfactualResponse
		if code, body := postJSON(t, ts.URL+"/v1/counterfactual", full, &resp); code != 200 {
			t.Fatalf("cold counterfactual: %d %s", code, body)
		}
		if resp.CachedObjects != 0 {
			t.Fatalf("cold counterfactual reports %d cached objects", resp.CachedObjects)
		}
		resp.CachedObjects = 0
		return canonical(t, resp)
	}()

	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(2000 + trial)))
		ts := newSchoolServer(t)
		perm := rng.Perm(len(objects))
		warm := perm[:rng.Intn(len(objects)+1)]
		for len(warm) > 0 {
			n := 1 + rng.Intn(len(warm))
			batch := make([]int, 0, n)
			for _, i := range warm[:n] {
				batch = append(batch, objects[i])
			}
			warm = warm[n:]
			if code, body := postJSON(t, ts.URL+"/v1/counterfactual",
				CounterfactualRequest{Dataset: "school", Bonus: bonus, K: 0.1, Objects: batch}, nil); code != 200 {
				t.Fatalf("trial %d warmup: %d %s", trial, code, body)
			}
		}
		var resp CounterfactualResponse
		if code, body := postJSON(t, ts.URL+"/v1/counterfactual", full, &resp); code != 200 {
			t.Fatalf("trial %d: %d %s", trial, code, body)
		}
		resp.CachedObjects = 0
		if got := canonical(t, resp); got != cold {
			t.Errorf("trial %d: response depends on cache state\ncold: %s\ngot:  %s", trial, cold, got)
		}
	}
}
