// Command perfbench is fairrankd's end-to-end benchmark. It starts the
// freshly built fairrankd with the default cohorts, drives it from a closed
// loop of two keep-alive clients, checks a seed-chosen sample of the
// answers against the in-process library, and prints every metric with its
// unit. With --trace 1 it instead replays the requests one at a time at
// every layer boundary and prints the per-layer metrics.
//
// Run it from the repository root through the wrapper, which builds both
// binaries first:
//
//	bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --seed 1
//	bash perfbench/run.sh compare A.json B.json
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. Each run also writes its full record (environment
// included) to .bench_build/results/, and the traced run its spans.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"fairrank/internal/service"
)

const (
	clients     = 2                      // closed-loop clients, each with one keep-alive connection
	setupStarts = 7                      // fairrankd starts per untraced run; setup_s is their median
	setupReps   = 3                      // in-process set-up repetitions per traced run
	qualityN    = 96                     // train requests behind dca_norm_after and dca_ndcg
	checkEvery  = 16                     // one response in checkEvery is kept for the check
	maxChecks   = 48                     // checked responses per run
	minSamples  = 1000                   // latency samples per run, so p99 leaves 10 beyond it
	sliceDur    = 500 * time.Millisecond // closed-loop slice between calibration points
	maxStealPct = 2                      // a slice with more steal on fairrankd's CPU is not timed
	runLimit    = 170 * time.Second
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "all", "train-cold, sweep-cold, audit-mixed or all")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 30, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1 runs the traced replay and prints per-layer metrics")
		bin     = flag.String("bin", ".bench_build/fairrankd", "fairrankd binary")
		out     = flag.String("out", ".bench_build/results", "directory for result records and spans")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := workloadByName(*name); ok {
		ws = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	e := environment(*seed)
	if gen, srv, err := bindCPUs(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: generator and fairrankd share the CPUs:", err)
	} else {
		e.GeneratorCPU, e.ServerCPU = gen, srv
		e.ServerGOMAXPROCS, e.GeneratorGOMAXPROCS = 1, runtime.GOMAXPROCS(0)
	}
	code := 0
	for _, w := range ws {
		// A workload run must end within runLimit; past it the benchmark
		// exits, and Pdeathsig takes fairrankd down with it.
		watchdog := time.AfterFunc(runLimit, func() {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v\n", w.name, runLimit)
			os.Exit(1)
		})
		b := &bench{w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second, bin: *bin, out: *out, env: e}
		var res result
		var err error
		if *trace == 1 {
			res, err = b.traced()
		} else {
			res, err = b.untraced()
		}
		watchdog.Stop()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		rec := record{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Env: e, HostStealPct: b.stealPct, Uncalibrated: b.raw, Slices: b.slices, CalmSlices: b.calmSlices, CalibMs: b.calibMs, Result: res}
		path := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *trace))
		if err := os.WriteFile(path, append(encodeJSON(rec), '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Printf("workload %s seed %d trace %d: %s host_steal=%.1f%%\n", w.name, *seed, *trace, e, b.stealPct)
		names := make([]string, 0, len(res.Metrics))
		for n := range res.Metrics {
			names = append(names, n)
		}
		slices.Sort(names)
		for _, n := range names {
			fmt.Printf("  %-28s %14.6g %s", n, res.Metrics[n].Value, res.Metrics[n].Unit)
			if v, ok := b.raw[n]; ok {
				fmt.Printf(" (uncalibrated %.6g)", v)
			}
			fmt.Println()
		}
		fmt.Print(string(encodeJSON(res)))
		if !res.Correct {
			code = 1
		}
	}
	os.Exit(code)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run's file under --out.
type record struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Seconds      int                `json:"seconds"`
	Trace        bool               `json:"trace"`
	Env          env                `json:"env"`
	HostStealPct float64            `json:"host_steal_pct"`
	Uncalibrated map[string]float64 `json:"uncalibrated,omitempty"`
	Slices       int                `json:"slices,omitempty"`
	CalmSlices   int                `json:"calm_slices,omitempty"`
	CalibMs      float64            `json:"calib_point_ms,omitempty"`
	Result       result             `json:"result"`
}

// env is what two compared results must share.
type env struct {
	CPU                 string `json:"cpu"`
	NProc               int    `json:"nproc"`
	GeneratorCPU        int    `json:"generator_cpu"` // -1: not bound
	ServerCPU           int    `json:"server_cpu"`    // -1: not bound
	ServerGOMAXPROCS    int    `json:"server_gomaxprocs"`
	GeneratorGOMAXPROCS int    `json:"generator_gomaxprocs"`
	GoVersion           string `json:"go_version"`
	Commit              string `json:"commit"`
	Seed                int64  `json:"seed"`
}

func (e env) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d cpus generator=%d server=%d gomaxprocs server=%d generator=%d %s commit=%s seed=%d",
		e.CPU, e.NProc, e.GeneratorCPU, e.ServerCPU, e.ServerGOMAXPROCS, e.GeneratorGOMAXPROCS, e.GoVersion, e.Commit, e.Seed)
}

func environment(seed int64) env {
	e := env{
		CPU:                 "unknown",
		NProc:               runtime.NumCPU(),
		GeneratorCPU:        -1,
		ServerCPU:           -1,
		ServerGOMAXPROCS:    runtime.NumCPU(),
		GeneratorGOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:           runtime.Version(),
		Commit:              commit(),
		Seed:                seed,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// commit is the git revision when the checkout is a repository, and
// otherwise a hash of the Go sources and module files, so two results of
// the same tree still compare equal.
func commit() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := fnv.New64a()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod")) {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("tree-%016x", h.Sum64())
}

// bench is one workload's run.
type bench struct {
	w    workload
	seed int64
	dur  time.Duration
	bin  string
	out  string
	env  env
	// stealPct is the share of CPU time the hypervisor took from this
	// machine while the run measured: a noisy neighbour shows here.
	stealPct float64
	// raw holds the untraced timing metrics before calibration.
	raw map[string]float64
	// slices and calmSlices count the timed phase's slices, and those that
	// the timing metrics come from.
	slices, calmSlices int
	// calibMs is the median calibration point of the timed phase.
	calibMs float64
}

// calPoint takes a calibration point on fairrankd's CPU.
func (b *bench) calPoint(cal *calibrator) float64 {
	var p float64
	b.env.onServerCPU(func() { p = cal.point() })
	return p
}

// pick chooses the responses the check re-asks: a seed-chosen one in
// checkEvery.
func pick(seed int64, i int) bool {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d", seed, i)
	return h.Sum64()%checkEvery == 0
}

// startSetup starts fairrankd setupStarts times, stopping all but the
// last, and returns the running one with the median start-to-ready time
// and a calibration point taken before each start.
func (b *bench) startSetup(cal *calibrator) (c *child, setup float64, points []float64, err error) {
	var setups []float64
	for s := 0; s < setupStarts; s++ {
		points = append(points, b.calPoint(cal))
		if c, err = startChild(b.bin, b.w, b.env); err != nil {
			return nil, 0, nil, err
		}
		setups = append(setups, c.setup.Seconds())
		if s < setupStarts-1 {
			c.stop()
		}
	}
	return c, median(setups), points, nil
}

// untraced is the timed closed-loop run behind the end-to-end metrics.
func (b *bench) untraced() (result, error) {
	lib, _, err := newLibrary(nil)
	if err != nil {
		return result{}, err
	}
	cal := newCalibrator()
	runtime.GC() // settle the library build's garbage before timing set-up
	c, rawSetup, setupPoints, err := b.startSetup(cal)
	if err != nil {
		return result{}, err
	}
	defer c.stop()

	cl := newClient(clients)
	gen := b.w.newGen(b.seed)
	train := b.w.name == "train-cold"
	keep := func(i int) bool { return pick(b.seed, i) || (train && i < qualityN) }
	warm := runLoop(cl, c.base, gen, loopSpec{limit: b.w.warmup, clients: clients, keep: keep})
	// The timed phase is closed-loop slices of sliceDur continuing one
	// request sequence, with a calibration point before, between and after
	// them, taken with no request in flight; timings are scaled by
	// calibRefMs over the median point. A slice during which the
	// hypervisor took more than maxStealPct of fairrankd's CPU measured the
	// host, not fairrankd: the timing metrics come from the other slices,
	// unless fewer than minSamples answers are left.
	total0, steal0 := cpuStat("cpu")
	srvCPU := "cpu"
	if b.env.ServerCPU >= 0 {
		srvCPU = fmt.Sprintf("cpu%d", b.env.ServerCPU)
	}
	var attempted, failed, okTotal int
	var all, calm sliceSet
	bodies := warm.bodies
	next := warm.next
	points := []float64{b.calPoint(cal)}
	for t0 := time.Now(); time.Since(t0) < b.dur; {
		tot0, st0 := cpuStat(srvCPU)
		sub := runLoop(cl, c.base, gen, loopSpec{from: next, dur: sliceDur, clients: clients, keep: keep})
		tot1, st1 := cpuStat(srvCPU)
		points = append(points, b.calPoint(cal))
		next = sub.next
		attempted, failed, okTotal = attempted+sub.attempted, failed+sub.failed, okTotal+sub.ok
		for _, e := range sub.firstErrs {
			fmt.Fprintln(os.Stderr, "perfbench: failed request:", e)
		}
		for i, body := range sub.bodies {
			bodies[i] = body
		}
		all.add(sub)
		if 100*(st1-st0) <= maxStealPct*(tot1-tot0) {
			calm.add(sub)
		}
	}
	b.slices, b.calmSlices = all.n, calm.n
	timed := calm
	if len(calm.lats) < minSamples {
		fmt.Fprintf(os.Stderr, "perfbench: only %d of %d slices had steal at most %d%%; timing all of them\n", calm.n, all.n, maxStealPct)
		timed = all
	}
	if _, beyond := percentile(timed.lats, 0.99); beyond < 10 {
		return result{}, fmt.Errorf("only %d latency samples; p99 needs %d", len(timed.lats), minSamples)
	}
	rawP50, _ := percentile(timed.lats, 0.50)
	rawP99, _ := percentile(timed.lats, 0.99)
	b.raw = map[string]float64{
		"throughput_rps": float64(timed.ok) / timed.elapsed.Seconds(),
		"latency_p50_ms": rawP50,
		"latency_p99_ms": rawP99,
		"setup_s":        rawSetup,
	}
	b.calibMs = median(points)
	scale := calibRefMs / b.calibMs
	if total1, steal1 := cpuStat("cpu"); total1 > total0 {
		b.stealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	for _, e := range warm.firstErrs {
		fmt.Fprintln(os.Stderr, "perfbench: failed warm-up request:", e)
	}
	rss, err := c.peakRSSMiB()
	if err != nil {
		return result{}, err
	}
	health, err := c.health(cl)
	if err != nil {
		return result{}, err
	}
	correct := true
	if health.ShedTotal != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: fairrankd shed %d requests\n", health.ShedTotal)
		correct = false
	}

	// The quality set is the first qualityN requests of the seed's train
	// sequence: on train-cold they open the run, elsewhere they are sent
	// after the timed phase.
	qbodies := bodies
	if !train {
		qgen := func(i int) request { return genTrain(b.seed, i) }
		qbodies = runLoop(cl, c.base, qgen, loopSpec{limit: qualityN, clients: clients, keep: func(int) bool { return true }}).bodies
	}
	quality := make([][]byte, qualityN)
	for i := range quality {
		if quality[i] = qbodies[i]; quality[i] == nil {
			return result{}, fmt.Errorf("quality train request %d failed", i)
		}
	}
	var norms, ndcgs []float64
	for i, body := range quality {
		var tr service.TrainResponse
		if err := json.Unmarshal(body, &tr); err != nil {
			return result{}, err
		}
		norms = append(norms, tr.NormAfter)
		ndcgs = append(ndcgs, tr.NDCG)
		if !train && i%8 == 0 {
			if err := lib.verify(genTrain(b.seed, i), body); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: quality train %d: %v\n", i, err)
				correct = false
			}
		}
	}
	correct = b.check(lib, gen, bodies, maxChecks) && correct

	return result{
		Correct:   correct,
		Attempted: attempted,
		Failed:    failed,
		Metrics: metricSet(endToEnd, map[string]float64{
			"throughput_rps": b.raw["throughput_rps"] / scale,
			"latency_p50_ms": rawP50 * scale,
			"latency_p99_ms": rawP99 * scale,
			"ok_ratio":       float64(okTotal) / float64(attempted),
			"setup_s":        rawSetup * calibRefMs / median(setupPoints),
			"server_rss_mb":  rss,
			"dca_norm_after": median(norms),
			"dca_ndcg":       median(ndcgs),
		}),
	}, nil
}

// check re-asks up to limit of the seed-picked responses in-process and
// reports whether every one matched.
func (b *bench) check(lib *library, gen func(int) request, bodies map[int][]byte, limit int) bool {
	var idx []int
	for i := range bodies {
		if pick(b.seed, i) {
			idx = append(idx, i)
		}
	}
	slices.Sort(idx)
	ok := true
	for _, i := range idx[:min(limit, len(idx))] {
		if err := lib.verify(gen(i), bodies[i]); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: request %d disagrees with the library: %v\n", i, err)
			ok = false
		}
	}
	return ok
}

// traced measures a short untraced closed-loop phase for reference, then
// restarts fairrankd and replays the sequence from the start, serially, at
// every layer boundary.
func (b *bench) traced() (result, error) {
	var synthT, comboT, evalT, regT []float64
	var lib *library
	var srv *service.Server
	for r := 0; r < setupReps; r++ {
		srv = service.New(serverConfig(b.w))
		var st setupTimes
		var err error
		if lib, st, err = newLibrary(srv); err != nil {
			return result{}, err
		}
		synthT = append(synthT, ms64(st.synth))
		comboT = append(comboT, ms64(st.comboRuns))
		evalT = append(evalT, ms64(st.evaluator))
		regT = append(regT, ms64(st.register))
	}

	refDur := max(b.dur/3, 2*time.Second)
	total0, steal0 := cpuStat("cpu")
	defer func() {
		if total1, steal1 := cpuStat("cpu"); total1 > total0 {
			b.stealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
		}
	}()
	c, err := startChild(b.bin, b.w, b.env)
	if err != nil {
		return result{}, err
	}
	cl := newClient(clients)
	gen := b.w.newGen(b.seed)
	warm := runLoop(cl, c.base, gen, loopSpec{limit: b.w.warmup, clients: clients})
	h0, err0 := c.health(cl)
	ref := runLoop(cl, c.base, gen, loopSpec{from: warm.next, dur: refDur, clients: clients})
	h1, err1 := c.health(cl)
	c.stop()
	if err := errors.Join(err0, err1); err != nil {
		return result{}, err
	}
	coalesce := 0.0
	if f := h1.BatchFlushes - h0.BatchFlushes; f > 0 {
		coalesce = float64(h1.BatchedRequests-h0.BatchedRequests) / float64(f)
	}

	c, err = startChild(b.bin, b.w, b.env)
	if err != nil {
		return result{}, err
	}
	defer c.stop()
	one := newClient(1)
	rank0, merge0, err := c.passCounts(one)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	rp := newReplayer(tr, lib, b.w, srv.Handler(), one, c.base)
	rp.keep = func(i int) bool { return pick(b.seed, i) }
	start := time.Now()
	for i := 0; time.Since(start) < b.dur-refDur; i++ {
		if err := rp.replay(i, gen(i)); err != nil {
			return result{}, fmt.Errorf("replay %d: %w", i, err)
		}
	}
	elapsed := time.Since(start)
	correct := b.check(lib, gen, rp.kept, maxChecks/3)
	for _, e := range append(ref.firstErrs, rp.firstErrs...) {
		fmt.Fprintln(os.Stderr, "perfbench: failed request:", e)
	}
	rank1, merge1, err := c.passCounts(one)
	if err != nil {
		return result{}, err
	}
	h2, err := c.health(one)
	if err != nil {
		return result{}, err
	}
	if err := writeSpans(filepath.Join(b.out, fmt.Sprintf("%s-seed%d.spans.jsonl", b.w.name, b.seed)), tr.spans); err != nil {
		return result{}, err
	}

	vals := layerValues(tr.spans)
	steps := make([]float64, len(rp.steps))
	for i, s := range rp.steps {
		steps[i] = float64(s)
	}
	vals["core.train_steps"] = median(steps)
	if vals["core.train_steps"] > 0 {
		vals["engine.step_us"] = 1000 * vals["core.train_ms"] / vals["core.train_steps"]
	}
	if rp.ok > 0 {
		vals["core.rankings_per_req"] = float64(rank1-rank0) / float64(rp.ok)
		vals["core.merges_per_req"] = float64(merge1-merge0) / float64(rp.ok)
	}
	if rp.lookups > 0 {
		vals["service.cache_hit_ratio"] = float64(rp.hits) / float64(rp.lookups)
	}
	sizes := make([]float64, len(rp.respBytes))
	for i, n := range rp.respBytes {
		sizes[i] = float64(n) / 1024
	}
	vals["http.resp_kb"] = median(sizes)
	vals["service.batch_coalesce"] = coalesce
	shed := h1.ShedTotal + h2.ShedTotal
	vals["service.shed_total"] = float64(shed)
	vals["setup.synth_ms"] = median(synthT)
	vals["setup.combo_runs_ms"] = median(comboT)
	vals["setup.evaluator_ms"] = median(evalT)
	vals["setup.register_ms"] = median(regT)
	if ref.ok > 0 {
		vals["trace.overhead"] = (float64(rp.ok) / elapsed.Seconds()) / (float64(ref.ok) / ref.elapsed.Seconds())
	}
	if shed != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: fairrankd shed %d requests\n", shed)
	}
	return result{
		Correct:   correct && shed == 0,
		Attempted: ref.attempted + rp.ok + rp.failed,
		Failed:    ref.failed + rp.failed,
		Metrics:   metricSet(perLayer, vals),
	}, nil
}

// layerValues turns spans into the per-layer wall-time metrics.
func layerValues(spans []span) map[string]float64 {
	self := selfTimes(spans)
	by := map[string][]float64{}
	add := func(name string, d time.Duration) { by[name] = append(by[name], ms64(d)) }
	for _, s := range spans {
		add(s.Name, s.dur())
		switch {
		case s.Name == "http":
			add("http.self", self[s.ID])
		case strings.HasPrefix(s.Name, "service.handler."):
			add("service.self", self[s.ID])
			if s.Batched {
				add("service.batch_wait", self[s.ID])
			}
		case strings.HasPrefix(s.Name, "core."):
			add("core.self", self[s.ID])
			if s.Batched {
				add("core.batch", s.dur())
			}
		}
	}
	p50 := func(name string) float64 { return median(by[name]) }
	vals := map[string]float64{
		"http.self_ms":             p50("http.self"),
		"service.self_ms":          p50("service.self"),
		"service.batch_wait_ms":    p50("service.batch_wait"),
		"core.train_ms":            p50("core.train"),
		"core.diag_ms":             p50("core.diag"),
		"core.bundle_ms":           p50("core.bundle"),
		"core.counterfactual_ms":   p50("core.counterfactual"),
		"core.explain_ms":          p50("core.explain"),
		"core.batch_ms":            p50("core.batch"),
		"core.self_ms":             p50("core.self"),
		"rank.merge_ms":            p50("rank.merge"),
		"rank.effective_scores_ms": p50("rank.effective_scores"),
		"rank.topk_heap_ms":        p50("rank.topk_heap"),
		"sample.draw_us":           1000 * p50("sample.draw"),
	}
	for _, k := range []string{"train", "evaluate", "counterfactual", "report", "explain"} {
		vals["service.handler_ms."+k] = p50("service.handler." + k)
	}
	for _, f := range []string{"json", "csv", "md"} {
		vals["report.render_ms."+f] = p50("report.render." + f)
	}
	for _, m := range sweepMetrics {
		vals["core.sweep_ms."+m] = p50("core.sweep." + m)
	}
	for _, f := range []string{"centroid", "dcg", "groupcounts", "fpcounts", "exposure"} {
		vals["metrics.fold_ms."+f] = p50("metrics.fold." + f)
	}
	return vals
}

// metricSet attaches units to exactly the metrics defs names; a name with
// no value reads 0.
func metricSet(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out
}

// compare prints two result records side by side and warns when their
// environments differ.
func compare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare A.json B.json")
		return 2
	}
	var recs [2]record
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &recs[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	a, b := recs[0], recs[1]
	if a.Workload != b.Workload || a.Trace != b.Trace || a.Seconds != b.Seconds {
		fmt.Printf("WARNING: different runs: %s/trace=%v/%ds vs %s/trace=%v/%ds\n",
			a.Workload, a.Trace, a.Seconds, b.Workload, b.Trace, b.Seconds)
	}
	for _, d := range envDiffs(a.Env, b.Env) {
		fmt.Println("WARNING: environment differs:", d)
	}
	names := make([]string, 0, len(a.Result.Metrics))
	for n := range a.Result.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	fmt.Printf("%-28s %14s %14s %8s\n", "metric", "A", "B", "B/A")
	for _, n := range names {
		va, vb := a.Result.Metrics[n].Value, b.Result.Metrics[n].Value
		ratio := math.NaN()
		if va != 0 {
			ratio = vb / va
		}
		fmt.Printf("%-28s %14.6g %14.6g %8.3f %s\n", n, va, vb, ratio, a.Result.Metrics[n].Unit)
	}
	return 0
}

// envDiffs lists the environment fields two results disagree on.
func envDiffs(a, b env) []string {
	var out []string
	diff := func(name string, x, y any) {
		if x != y {
			out = append(out, fmt.Sprintf("%s: %v vs %v", name, x, y))
		}
	}
	diff("cpu", a.CPU, b.CPU)
	diff("nproc", a.NProc, b.NProc)
	diff("generator_cpu", a.GeneratorCPU, b.GeneratorCPU)
	diff("server_cpu", a.ServerCPU, b.ServerCPU)
	diff("server_gomaxprocs", a.ServerGOMAXPROCS, b.ServerGOMAXPROCS)
	diff("generator_gomaxprocs", a.GeneratorGOMAXPROCS, b.GeneratorGOMAXPROCS)
	diff("go_version", a.GoVersion, b.GoVersion)
	diff("commit", a.Commit, b.Commit)
	diff("seed", a.Seed, b.Seed)
	return out
}

// cpuStat reads the total and stolen time, in clock ticks, of one line of
// /proc/stat: "cpu" for the machine, "cpu<N>" for one CPU; zeros when it
// cannot.
func cpuStat(name string) (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 9 || fields[0] != name {
			continue
		}
		for i, f := range fields[1:] {
			v, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				return 0, 0
			}
			total += v
			if i == 7 {
				steal = v
			}
		}
		return total, steal
	}
	return 0, 0
}

// sliceSet accumulates closed-loop slices.
type sliceSet struct {
	n       int
	ok      int
	elapsed time.Duration
	lats    []time.Duration
}

func (s *sliceSet) add(p phase) {
	s.n++
	s.ok += p.ok
	s.elapsed += p.elapsed
	s.lats = append(s.lats, p.lats...)
}
