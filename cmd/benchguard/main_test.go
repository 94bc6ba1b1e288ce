package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

const benchOut = `goos: linux
goarch: amd64
pkg: fairrank
BenchmarkTrain-2     	      20	   9000000 ns/op	  20480 B/op	      13 allocs/op
BenchmarkTrain-2     	      20	   8000000 ns/op	  20992 B/op	      12 allocs/op
BenchmarkTrain-2     	      20	   8500000 ns/op	  19968 B/op	      14 allocs/op
BenchmarkSweep-2     	       5	   2000000 ns/op	   1.50 rankings/op
BenchmarkSweep-2     	       5	   1800000 ns/op	   1.50 rankings/op
PASS
`

func parse(t *testing.T, out string) map[string]measured {
	t.Helper()
	best, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	return best
}

func ceiling(v float64) *float64 { return &v }

// TestParseBenchMemoryCounts: B/op and allocs/op are parsed next to ns/op
// and each is minimized across runs on its own (the minima here come from
// three different runs); lines without -benchmem carry no memory figures,
// and custom metrics are ignored.
func TestParseBenchMemoryCounts(t *testing.T) {
	best := parse(t, benchOut)
	tr := best["BenchmarkTrain"]
	if tr != (measured{ns: 8000000, bytes: 19968, allocs: 12}) {
		t.Errorf("BenchmarkTrain = %+v, want ns 8000000, 19968 B/op, 12 allocs/op", tr)
	}
	sw := best["BenchmarkSweep"]
	if sw.ns != 1800000 || !math.IsInf(sw.bytes, 1) || !math.IsInf(sw.allocs, 1) {
		t.Errorf("BenchmarkSweep = %+v, want ns 1800000 and no memory figures", sw)
	}
	if _, err := parseBench(strings.NewReader("PASS\n")); err == nil {
		t.Error("input without benchmark lines parsed without error")
	}
}

func TestCheckCounts(t *testing.T) {
	best := parse(t, benchOut)
	for _, tc := range []struct {
		name   string
		g      guard
		pass   bool
		report string
	}{
		{"equal ceilings pass", guard{NsOp: 8000000, AllocsOp: ceiling(12), BytesOp: ceiling(19968)}, true,
			"ok   BenchmarkTrain: 19968 B/op within ceiling 19968"},
		{"one alloc above fails", guard{NsOp: 8000000, AllocsOp: ceiling(11), BytesOp: ceiling(19968)}, false,
			"FAIL BenchmarkTrain: 12 allocs/op exceeds ceiling 11"},
		{"one byte above fails", guard{NsOp: 8000000, AllocsOp: ceiling(12), BytesOp: ceiling(19967)}, false,
			"FAIL BenchmarkTrain: 19968 B/op exceeds ceiling 19967"},
		{"time still gated", guard{NsOp: 3000000, AllocsOp: ceiling(12)}, false,
			"FAIL BenchmarkTrain: 8000000 ns/op vs reference 3000000"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			ref := reference{Guard: map[string]guard{"BenchmarkTrain": tc.g}}
			if got := check(&out, ref, best, 2); got != tc.pass {
				t.Errorf("check = %v, want %v; output:\n%s", got, tc.pass, out.String())
			}
			if !strings.Contains(out.String(), tc.report) {
				t.Errorf("output lacks %q:\n%s", tc.report, out.String())
			}
		})
	}
}

// TestCheckNsOnlyUnchanged: an entry without count ceilings is checked on
// ns/op alone, prints exactly the one line it always did, and does not
// need -benchmem input; a count ceiling on such input fails loudly
// instead of passing unchecked.
func TestCheckNsOnlyUnchanged(t *testing.T) {
	best := parse(t, benchOut)
	var out bytes.Buffer
	ref := reference{Guard: map[string]guard{"BenchmarkSweep": {NsOp: 1000000}}}
	if !check(&out, ref, best, 2) {
		t.Errorf("ns-only entry within 2x failed:\n%s", out.String())
	}
	const want = "ok   BenchmarkSweep: 1800000 ns/op vs reference 1000000 (1.80x, limit 2x)\n"
	if out.String() != want {
		t.Errorf("ns-only output changed:\n got %q\nwant %q", out.String(), want)
	}

	out.Reset()
	ref = reference{Guard: map[string]guard{"BenchmarkSweep": {NsOp: 1000000, BytesOp: ceiling(4096)}}}
	if check(&out, ref, best, 2) {
		t.Errorf("B/op ceiling passed on input without -benchmem:\n%s", out.String())
	}

	out.Reset()
	ref = reference{Guard: map[string]guard{"BenchmarkMissing": {NsOp: 1}}}
	if check(&out, ref, best, 2) || !strings.Contains(out.String(), "not found") {
		t.Errorf("missing benchmark did not fail:\n%s", out.String())
	}
}
