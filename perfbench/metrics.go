package main

import (
	"math"
	"slices"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd are printed by the untraced run (--trace 0).
var endToEnd = []metricDef{
	{"throughput_rps", "req/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"ok_ratio", "ratio", "higher", 0.01},
	{"setup_s", "s", "lower", 0.25},
	{"server_rss_mb", "MiB", "lower", 0.15},
	{"dca_norm_after", "score", "lower", 0.15},
	{"dca_ndcg", "score", "higher", 0.02},
}

var sweepMetrics = []string{"disparity", "ndcg", "di", "fpr", "exposure", "topk"}

// perLayer are printed by the traced run (--trace 1). Wall times are the
// median over the run's spans; a metric with no span on a workload reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{name: "http.self_ms", unit: "ms", better: "lower"},
		{name: "http.resp_kb", unit: "KiB", better: "lower"},
	}
	for _, k := range []string{"train", "evaluate", "counterfactual", "report", "explain"} {
		defs = append(defs, metricDef{name: "service.handler_ms." + k, unit: "ms", better: "lower"})
	}
	defs = append(defs,
		metricDef{name: "service.self_ms", unit: "ms", better: "lower"},
		metricDef{name: "service.cache_hit_ratio", unit: "ratio", better: "higher"},
		metricDef{name: "service.batch_coalesce", unit: "req/flush", better: "higher"},
		metricDef{name: "service.batch_wait_ms", unit: "ms", better: "lower"},
		metricDef{name: "service.shed_total", unit: "count", better: "lower"},
	)
	for _, f := range []string{"json", "csv", "md"} {
		defs = append(defs, metricDef{name: "report.render_ms." + f, unit: "ms", better: "lower"})
	}
	defs = append(defs,
		metricDef{name: "core.train_ms", unit: "ms", better: "lower"},
		metricDef{name: "core.train_steps", unit: "count", better: "lower"},
		metricDef{name: "core.diag_ms", unit: "ms", better: "lower"},
	)
	for _, m := range sweepMetrics {
		defs = append(defs, metricDef{name: "core.sweep_ms." + m, unit: "ms", better: "lower"})
	}
	defs = append(defs,
		metricDef{name: "core.bundle_ms", unit: "ms", better: "lower"},
		metricDef{name: "core.counterfactual_ms", unit: "ms", better: "lower"},
		metricDef{name: "core.explain_ms", unit: "ms", better: "lower"},
		metricDef{name: "core.batch_ms", unit: "ms", better: "lower"},
		metricDef{name: "core.rankings_per_req", unit: "count", better: "lower"},
		metricDef{name: "core.merges_per_req", unit: "count", better: "lower"},
		metricDef{name: "core.self_ms", unit: "ms", better: "lower"},
		metricDef{name: "rank.merge_ms", unit: "ms", better: "lower"},
		metricDef{name: "rank.effective_scores_ms", unit: "ms", better: "lower"},
		metricDef{name: "rank.topk_heap_ms", unit: "ms", better: "lower"},
	)
	for _, f := range []string{"centroid", "dcg", "groupcounts", "fpcounts", "exposure"} {
		defs = append(defs, metricDef{name: "metrics.fold_ms." + f, unit: "ms", better: "lower"})
	}
	return append(defs,
		metricDef{name: "sample.draw_us", unit: "us", better: "lower"},
		metricDef{name: "engine.step_us", unit: "us", better: "lower"},
		metricDef{name: "setup.synth_ms", unit: "ms", better: "lower"},
		metricDef{name: "setup.combo_runs_ms", unit: "ms", better: "lower"},
		metricDef{name: "setup.evaluator_ms", unit: "ms", better: "lower"},
		metricDef{name: "setup.register_ms", unit: "ms", better: "lower"},
		metricDef{name: "trace.overhead", unit: "ratio", better: "higher"},
	)
}()

// median returns the middle value (mean of the two middle values for an
// even count), or 0 for no values.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of ds in milliseconds and
// how many samples lie beyond it.
func percentile(ds []time.Duration, q float64) (ms float64, beyond int) {
	if len(ds) == 0 {
		return 0, 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	idx := max(int(math.Ceil(q*float64(len(s))))-1, 0)
	return ms64(s[idx]), len(s) - idx - 1
}

func ms64(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
