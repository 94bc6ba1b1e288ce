package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestOverflowingBonusRejected is the regression test for bonuses that
// are finite and non-negative yet drive effective scores to +Inf: every
// endpoint taking a bonus must refuse them with a 400 before anything is
// computed or cached. (They used to answer 200 with an empty body, since
// JSON cannot encode the Inf-bearing answer, and to leave the answer in
// the LRU; csv reports printed "cutoff,+Inf".)
func TestOverflowingBonusRejected(t *testing.T) {
	for _, cfg := range []Config{{}, {BatchSize: 4, BatchMaxWait: time.Millisecond}} {
		s, ts := newDiffServer(t, cfg)
		huge := []float64{1e308, 1e308, 1e308, 1e308}
		gets := []string{
			"/v1/explain?dataset=school&k=0.1&bonus=1e308,1e308,1e308,1e308",
			"/v1/report?dataset=school&k=0.1&bonus=1e308,1e308,1e308,1e308",
			"/v1/report?dataset=school&k=0.1&bonus=1e308,1e308,1e308,1e308&format=csv",
			"/v1/report?dataset=school&k=0.1&bonus=0,0,0,1e308",
		}
		for _, path := range gets {
			if code, body := getJSON(t, ts.URL+path, nil); code != http.StatusBadRequest || !strings.Contains(body, "overflows") {
				t.Errorf("GET %s: %d %s, want 400 naming the overflow", path, code, body)
			}
		}
		posts := []struct {
			path string
			body any
		}{
			{"/v1/counterfactual", CounterfactualRequest{Dataset: "school", Bonus: huge, K: 0.1, Objects: []int{0, 1}}},
			{"/v1/evaluate", EvaluateRequest{Dataset: "school", Metric: "disparity", Points: []SweepPointRequest{{Bonus: huge, K: 0.1}}}},
			{"/v1/evaluate", EvaluateRequest{Dataset: "school", Metric: "ndcg", Points: []SweepPointRequest{{K: 0.1}, {Bonus: huge, K: 0.2}}}},
		}
		for _, p := range posts {
			if code, body := postJSON(t, ts.URL+p.path, p.body, nil); code != http.StatusBadRequest || !strings.Contains(body, "overflows") {
				t.Errorf("POST %s: %d %s, want 400 naming the overflow", p.path, code, body)
			}
		}
		if n := s.cache.len(); n != 0 {
			t.Errorf("rejected requests left %d cache entries", n)
		}
		// A large but representable policy still answers.
		if code, body := getJSON(t, ts.URL+"/v1/report?dataset=school&k=0.1&bonus=1e300,0,0,1e300&format=csv", nil); code != http.StatusOK || strings.Contains(body, "Inf") {
			t.Errorf("large finite policy: %d %s", code, body)
		}
	}
}

// TestColdTrainOneRankedPass pins the diagnostics of a cold train: the
// baseline reads the cached uncompensated order, and the trained vector's
// disparity and nDCG share one ranked pass.
func TestColdTrainOneRankedPass(t *testing.T) {
	s, ts := newTestServer(t)
	e, _ := s.reg.Get("school")
	before := e.eval.RankingCount() + e.eval.MergeCount()
	var tr TrainResponse
	if code, body := postJSON(t, ts.URL+"/v1/train", TrainRequest{Dataset: "school", K: 0.05}, &tr); code != http.StatusOK {
		t.Fatalf("train: %d %s", code, body)
	}
	if isZeroBonus(tr.Bonus) {
		t.Fatalf("trained bonus is zero; the pass count needs a non-zero one")
	}
	if got := e.eval.RankingCount() + e.eval.MergeCount() - before; got != 1 {
		t.Errorf("cold train spent %d ranked passes, want 1", got)
	}
}

// FuzzReportQuery drives arbitrary query strings through GET /v1/explain
// and /v1/report in process. Whatever the query, the answer is a declared
// status (never a 5xx), and a 200 carries a body — one that decodes when
// it is JSON.
func FuzzReportQuery(f *testing.F) {
	_, ts := newTestServer(f)
	h := ts.Config.Handler
	for _, q := range []string{
		"dataset=school&k=0.1&bonus=1,2,3,4",
		"dataset=school&k=0.1&bonus=1,2,3,4&object=17",
		"dataset=compas&k=1&bonus=1,1,1,1,1,1&format=csv&margins=3",
		"dataset=school&k=0.0004&bonus=0,0,0,1&format=md&fpr=0&exposure=1",
		"dataset=school&k=0.1&bonus=1e308,1e308,1e308,1e308",
		"dataset=school&k=0.1&bonus=1e308,1e308,1e308,1e308&format=csv",
		"dataset=school&k=0.1}&bonus=1,2,3,4]",
		"dataset=school&k=0.1&bonus=1,2,3,4]]]",
		"dataset=school&k=NaN&bonus=-0,0x1p-1074,+Inf,4&margins=-1",
	} {
		f.Add(false, q)
		f.Add(true, q)
	}
	f.Fuzz(func(t *testing.T, explain bool, query string) {
		path := "/v1/report"
		if explain {
			path = "/v1/explain"
		}
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.URL.RawQuery = query
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		body := rec.Body.Bytes()
		switch rec.Code {
		case http.StatusOK:
			if len(body) == 0 {
				t.Fatalf("%s?%s: 200 with an empty body", path, query)
			}
			if strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") && !json.Valid(body) {
				t.Fatalf("%s?%s: 200 body is not JSON: %q", path, query, body)
			}
		case http.StatusBadRequest, http.StatusNotFound:
			var e ErrorResponse
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("%s?%s: %d body is not an ErrorResponse: %q", path, query, rec.Code, body)
			}
		default:
			t.Fatalf("%s?%s: undeclared status %d: %q", path, query, rec.Code, body)
		}
	})
}
