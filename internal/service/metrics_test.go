package service

import (
	"testing"

	"fairrank/internal/core"
)

// TestMetricSpecKindsDistinct guards the one-call sweep dispatch: the
// direct and batched paths both run Evaluator.Sweep on a row's kind, and
// the kind's zero value is core.BatchDisparity, so a row that forgot its
// kind would silently serve disparity answers. Every row must map to its
// own metric kind, only the disparity row may use BatchDisparity, and no
// row may name a kind the fold table does not answer.
func TestMetricSpecKindsDistinct(t *testing.T) {
	seen := map[core.BatchKind]string{}
	for _, s := range metricSpecs {
		if prev, dup := seen[s.kind]; dup {
			t.Errorf("metrics %q and %q share kind %d", prev, s.name, s.kind)
		}
		seen[s.kind] = s.name
		if s.kind == core.BatchDisparity && s.name != "disparity" {
			t.Errorf("metric %q has kind BatchDisparity (missing kind: field?)", s.name)
		}
		if s.kind == core.BatchCounterfactual || s.kind == core.BatchBundle {
			t.Errorf("metric %q maps to non-metric kind %d", s.name, s.kind)
		}
	}
	if _, ok := seen[core.BatchDisparity]; !ok {
		t.Error("no registry row serves BatchDisparity")
	}
}
