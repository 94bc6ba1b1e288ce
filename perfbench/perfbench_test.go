package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

func TestSameSeedSameRequests(t *testing.T) {
	for _, w := range workloads {
		a, b, other := w.newGen(7), w.newGen(7), w.newGen(8)
		differs := false
		for i := 0; i < 2*auditEpoch+50; i++ {
			ra, rb, ro := a(i), b(i), other(i)
			if ra.Method != rb.Method || ra.Path != rb.Path || !bytes.Equal(ra.Body, rb.Body) {
				t.Fatalf("%s: request %d differs under the same seed:\n%s %s %s\n%s %s %s",
					w.name, i, ra.Method, ra.Path, ra.Body, rb.Method, rb.Path, rb.Body)
			}
			differs = differs || ra.Path != ro.Path || !bytes.Equal(ra.Body, ro.Body)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 produced the same requests", w.name)
		}
	}
}

func TestAttemptedIsOKPlusFailed(t *testing.T) {
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%3 == 0 {
			http.Error(w, "no", http.StatusTooManyRequests)
			return
		}
		w.Write([]byte("{}"))
	}))
	defer ts.Close()
	gen := workloads[1].newGen(1)
	for _, spec := range []loopSpec{
		{limit: 90, clients: clients},
		{dur: 50 * time.Millisecond, clients: clients},
	} {
		p := runLoop(newClient(clients), ts.URL, gen, spec)
		if p.attempted != p.ok+p.failed || p.ok != len(p.lats) || p.attempted == 0 || p.failed == 0 {
			t.Errorf("attempted %d, ok %d, failed %d, latencies %d", p.attempted, p.ok, p.failed, len(p.lats))
		}
		if spec.limit > 0 && (p.attempted != spec.limit || p.next != spec.limit) {
			t.Errorf("limit %d: attempted %d, next %d", spec.limit, p.attempted, p.next)
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	// http 0–10 ms; its handler 11–17; the handler's core 18–22 with a
	// merge 23–24 and a fold 24–26; the handler's render 27–28.
	spans := []span{
		{ID: 1, Name: "http", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "service.handler.report", Start: 11 * ms, End: 17 * ms, Batched: true},
		{ID: 3, Parent: 2, Name: "core.bundle", Start: 18 * ms, End: 22 * ms, Batched: true},
		{ID: 4, Parent: 3, Name: "rank.merge", Start: 23 * ms, End: 24 * ms},
		{ID: 5, Parent: 3, Name: "metrics.fold.centroid", Start: 24 * ms, End: 26 * ms},
		{ID: 6, Parent: 2, Name: "report.render.json", Start: 27 * ms, End: 28 * ms},
	}
	want := map[int]time.Duration{1: 4 * ms, 2: 1 * ms, 3: 1 * ms, 4: 1 * ms, 5: 2 * ms, 6: 1 * ms}
	got := selfTimes(spans)
	for id, d := range want {
		if got[id] != d {
			t.Errorf("span %d self time %v, want %v", id, got[id], d)
		}
	}
	v := layerValues(spans)
	for name, w := range map[string]float64{
		"http.self_ms": 4, "service.self_ms": 1, "service.batch_wait_ms": 1, "core.self_ms": 1,
		"core.bundle_ms": 4, "core.batch_ms": 4, "service.handler_ms.report": 6, "report.render_ms.json": 1,
		"rank.merge_ms": 1, "metrics.fold_ms.centroid": 2, "core.train_ms": 0,
	} {
		if v[name] != w {
			t.Errorf("%s = %v, want %v", name, v[name], w)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the program
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, program has %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		json []metric
		defs []metricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("%d metrics in BENCHMARK.json, %d in the program", len(c.json), len(c.defs))
		}
		for i, d := range c.defs {
			if m := c.json[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
				t.Errorf("metric %d: BENCHMARK.json has %+v, program has %+v", i, m, d)
			}
		}
	}
}

func TestEnvDiffs(t *testing.T) {
	a := env{CPU: "x", NProc: 2, ServerGOMAXPROCS: 2, GeneratorGOMAXPROCS: 2, GoVersion: "go1.24.0", Commit: "abc", Seed: 1}
	if d := envDiffs(a, a); len(d) != 0 {
		t.Errorf("identical environments differ: %v", d)
	}
	b := a
	b.ServerGOMAXPROCS, b.Commit = 4, "def"
	if d := envDiffs(a, b); len(d) != 2 {
		t.Errorf("want 2 differences, got %v", d)
	}
}
