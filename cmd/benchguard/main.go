// Command benchguard fails CI when a guarded benchmark regresses beyond a
// tolerance against a checked-in reference.
//
// It reads `go test -bench` output on stdin (or -in), takes the best
// (minimum) ns/op per benchmark across repeated runs — pass -count to the
// benchmark invocation for noise resistance — and compares each benchmark
// named in the reference file's "guard" section against its recorded
// ns/op. A benchmark slower than max-ratio × reference, or missing from
// the input entirely, fails the run; unlisted benchmarks are ignored.
//
// A guard entry may also carry "allocs_op" and "bytes_op". Those are exact
// work counts, not timings: benchguard takes the minimum allocs/op and
// B/op across runs (the input must come from -benchmem) and fails when
// either exceeds its recorded ceiling, with no tolerance. Entries without
// them are checked on ns/op alone.
//
// Usage:
//
//	go test -run '^$' -bench 'Sweep16' -benchtime=5x -count=3 ./internal/core/ |
//	    go run ./cmd/benchguard -ref BENCH_sweep.json -max-ratio 2
//
// The tolerance is deliberately loose (default 2x): the guard exists to
// catch "the sweep went quadratic again", not machine-to-machine drift.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// reference is the slice of the reference JSON benchguard reads: only the
// guard section matters here; the rest of the file documents the
// trajectory for humans.
type reference struct {
	Guard map[string]guard `json:"guard"`
}

// guard is one guarded benchmark: an ns/op reference checked at max-ratio,
// and optional exact ceilings on allocs/op and B/op.
type guard struct {
	NsOp     float64  `json:"ns_op"`
	AllocsOp *float64 `json:"allocs_op"`
	BytesOp  *float64 `json:"bytes_op"`
}

// measured is the best (minimum) of each figure across a benchmark's runs.
// A memory figure stays +Inf when the input did not come from -benchmem.
type measured struct {
	ns, bytes, allocs float64
}

func main() {
	var (
		refPath  = flag.String("ref", "BENCH_sweep.json", "reference JSON with a guard section")
		in       = flag.String("in", "", "benchmark output file (default: stdin)")
		maxRatio = flag.Float64("max-ratio", 2, "fail when ns/op exceeds this multiple of the reference")
	)
	flag.Parse()
	if *maxRatio <= 0 {
		fatal(fmt.Errorf("-max-ratio must be positive, got %v", *maxRatio))
	}

	raw, err := os.ReadFile(*refPath)
	if err != nil {
		fatal(err)
	}
	var ref reference
	if err := json.Unmarshal(raw, &ref); err != nil {
		fatal(fmt.Errorf("parsing %s: %w", *refPath, err))
	}
	if len(ref.Guard) == 0 {
		fatal(fmt.Errorf("%s has no guard section — nothing to check", *refPath))
	}

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	best, err := parseBench(r)
	if err != nil {
		fatal(err)
	}
	if !check(os.Stdout, ref, best, *maxRatio) {
		os.Exit(1)
	}
}

// check compares every guarded benchmark against best, printing one line
// per checked figure, and reports whether all of them passed.
func check(w io.Writer, ref reference, best map[string]measured, maxRatio float64) bool {
	names := make([]string, 0, len(ref.Guard))
	for name := range ref.Guard {
		names = append(names, name)
	}
	sort.Strings(names)
	ok := true
	for _, name := range names {
		g := ref.Guard[name]
		got, found := best[name]
		if !found {
			fmt.Fprintf(w, "FAIL %s: not found in benchmark output (was it run?)\n", name)
			ok = false
			continue
		}
		ratio := got.ns / g.NsOp
		status := "ok  "
		if ratio > maxRatio {
			status = "FAIL"
			ok = false
		}
		fmt.Fprintf(w, "%s %s: %.0f ns/op vs reference %.0f (%.2fx, limit %gx)\n",
			status, name, got.ns, g.NsOp, ratio, maxRatio)
		ok = checkCount(w, name, "allocs/op", g.AllocsOp, got.allocs) && ok
		ok = checkCount(w, name, "B/op", g.BytesOp, got.bytes) && ok
	}
	return ok
}

// checkCount gates one exact work count against its recorded ceiling; a
// nil ceiling means the guard entry does not gate this count.
func checkCount(w io.Writer, name, unit string, ceiling *float64, got float64) bool {
	switch {
	case ceiling == nil:
		return true
	case math.IsInf(got, 1):
		fmt.Fprintf(w, "FAIL %s: no %s in benchmark output (run it with -benchmem)\n", name, unit)
		return false
	case got > *ceiling:
		fmt.Fprintf(w, "FAIL %s: %.0f %s exceeds ceiling %.0f\n", name, got, unit, *ceiling)
		return false
	}
	fmt.Fprintf(w, "ok   %s: %.0f %s within ceiling %.0f\n", name, got, unit, *ceiling)
	return true
}

// parseBench extracts the minimum ns/op, B/op and allocs/op per benchmark
// name from `go test -bench` output, each minimized independently. The -N
// GOMAXPROCS suffix is stripped so names match the reference regardless
// of core count.
func parseBench(r io.Reader) (map[string]measured, error) {
	best := make(map[string]measured)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// Benchmark lines look like:
		// Name-8  10  12345 ns/op  [678 B/op  9 allocs/op  ...]
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		m := measured{bytes: math.Inf(1), allocs: math.Inf(1)}
		hasNs := false
		for i := 1; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				if !hasNs {
					m.ns, hasNs = v, true
				}
			case "B/op":
				m.bytes = v
			case "allocs/op":
				m.allocs = v
			}
		}
		if !hasNs {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		if prev, seen := best[name]; seen {
			m = measured{min(prev.ns, m.ns), min(prev.bytes, m.bytes), min(prev.allocs, m.allocs)}
		}
		best[name] = m
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(best) == 0 {
		return nil, fmt.Errorf("no benchmark lines found in input")
	}
	return best, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}
