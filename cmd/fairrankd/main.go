// Command fairrankd serves what-if DCA training, evaluation sweeps, and
// transparency reports over HTTP — the interactive deployment surface of
// the paper's "fast enough for what-if iteration" claim.
//
// Datasets are loaded once at startup, either synthesized (-synth) or read
// from CSV in the csvio convention (-csv, repeatable). Each dataset gets a
// shared concurrent evaluator and a pool of trainers; train results are
// cached, so repeating a what-if query is a map lookup.
//
// Usage:
//
//	fairrankd -synth school,compas -addr :8080
//	fairrankd -csv nyc=students.csv -weights nyc=0.55,0.45 -adverse risk -csv risk=risk.csv
//	fairrankd -synth school -pprof 127.0.0.1:6060   # profiling in anger
//
// Endpoints:
//
//	POST /v1/train     {"dataset":"school","k":0.05,"objective":"disparity",...}
//	POST /v1/evaluate  {"dataset":"school","metric":"ndcg","points":[{"bonus":[...],"k":0.05}]}
//	GET  /v1/explain   ?dataset=school&k=0.05&bonus=1,11.5,12,12[&object=17]
//	GET  /v1/datasets
//	GET  /healthz      liveness + gauges (goroutines, in-flight, shed)
//	GET  /readyz       readiness: registration done and not draining
//
// Every /v1 endpoint runs behind the service's resilience chain: a
// per-endpoint deadline (-timeout and overrides), admission control
// (-max-inflight, -admit-wait; excess load answers 429 with Retry-After),
// and drain-aware rejection during shutdown. SIGTERM/SIGINT triggers a
// graceful drain: /readyz flips to 503, in-flight requests finish (up to
// -drain-timeout), new ones get 503, and the pprof listener shuts down
// with the main one.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fairrank"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		synthList = flag.String("synth", "", "synthetic datasets to load: comma-separated subset of school,compas")
		synthN    = flag.Int("synth-n", 0, "synthetic population size (0 = paper default)")
		synthSeed = flag.Int64("synth-seed", 0, "synthetic generator seed (0 = paper default)")
		cacheSize = flag.Int("cache", 0, "result cache entries: train responses, sweep and counterfactual rows, audit bundles (0 = default, negative disables)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty disables)")

		timeout   = flag.Duration("timeout", 60*time.Second, "default per-request deadline for /v1 endpoints (0 disables)")
		trainTO   = flag.Duration("train-timeout", 0, "deadline for POST /v1/train (0 = -timeout)")
		evalTO    = flag.Duration("evaluate-timeout", 0, "deadline for POST /v1/evaluate (0 = -timeout)")
		cfTO      = flag.Duration("counterfactual-timeout", 0, "deadline for POST /v1/counterfactual (0 = -timeout)")
		reportTO  = flag.Duration("report-timeout", 0, "deadline for GET /v1/report (0 = -timeout)")
		explainTO = flag.Duration("explain-timeout", 0, "deadline for GET /v1/explain (0 = -timeout)")
		maxInFl   = flag.Int("max-inflight", 0, "max concurrently admitted /v1 requests (0 = default, negative disables admission control)")
		admitWait = flag.Duration("admit-wait", 0, "how long an over-limit request queues before a 429 (0 = default, negative sheds immediately)")
		batchSize = flag.Int("batch-size", 0, "micro-batch size threshold for concurrent same-bonus requests (0 = disabled unless -batch-wait is set)")
		batchWait = flag.Duration("batch-wait", 0, "micro-batch window: how long a request waits for same-bonus companions (0 = disabled unless -batch-size is set)")
		drainTO   = flag.Duration("drain-timeout", 15*time.Second, "graceful-shutdown budget for in-flight requests")
		csvs      = make(map[string]string)
		csvOrder  []string // flag order, so registration and listings are stable
		weights   = make(map[string]string)
		adverse   = flag.String("adverse", "", "comma-separated CSV dataset names with adverse polarity (bonus subtracted)")
	)
	flag.Func("csv", "load a CSV dataset as name=path (repeatable)", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("want name=path, got %q", v)
		}
		if _, dup := csvs[name]; dup {
			return fmt.Errorf("dataset %q given twice", name)
		}
		csvs[name] = path
		csvOrder = append(csvOrder, name)
		return nil
	})
	flag.Func("weights", "score weights for a CSV dataset as name=w1,w2,... (repeatable; default equal)", func(v string) error {
		name, spec, ok := strings.Cut(v, "=")
		if !ok || name == "" || spec == "" {
			return fmt.Errorf("want name=w1,w2,..., got %q", v)
		}
		weights[name] = spec
		return nil
	})
	flag.Parse()

	if *synthList == "" && len(csvs) == 0 {
		fmt.Fprintln(os.Stderr, "fairrankd: no datasets: pass -synth and/or -csv")
		flag.Usage()
		os.Exit(2)
	}

	adverseSet := make(map[string]bool)
	if *adverse != "" {
		for _, n := range strings.Split(*adverse, ",") {
			adverseSet[strings.TrimSpace(n)] = true
		}
	}

	// Per-endpoint deadlines: -timeout is the default, the endpoint flags
	// override it. An explicit negative override disables the deadline for
	// that endpoint only.
	endpointTO := func(override time.Duration) time.Duration {
		if override != 0 {
			if override < 0 {
				return 0
			}
			return override
		}
		return *timeout
	}
	s := fairrank.NewService(fairrank.ServiceConfig{
		CacheSize:    *cacheSize,
		MaxInFlight:  *maxInFl,
		AdmitWait:    *admitWait,
		BatchSize:    *batchSize,
		BatchMaxWait: *batchWait,
		Timeouts: fairrank.ServiceTimeouts{
			Train:          endpointTO(*trainTO),
			Evaluate:       endpointTO(*evalTO),
			Counterfactual: endpointTO(*cfTO),
			Report:         endpointTO(*reportTO),
			Explain:        endpointTO(*explainTO),
		},
	})

	if *synthList != "" {
		for _, name := range strings.Split(*synthList, ",") {
			switch strings.TrimSpace(name) {
			case "school":
				cfg := fairrank.DefaultSchoolConfig()
				if *synthN > 0 {
					cfg.N = *synthN
				}
				if *synthSeed != 0 {
					cfg.Seed = *synthSeed
				}
				d, err := fairrank.GenerateSchool(cfg)
				if err != nil {
					fatal(err)
				}
				scorer := fairrank.WeightedSum{Weights: fairrank.SchoolScoreWeights()}
				if err := s.Register("school", d, scorer, fairrank.Beneficial); err != nil {
					fatal(err)
				}
				log.Printf("registered synth dataset school (%d objects, beneficial)", d.N())
				logRankStats(s, "school")
			case "compas":
				cfg := fairrank.DefaultCompasConfig()
				if *synthN > 0 {
					cfg.N = *synthN
				}
				if *synthSeed != 0 {
					cfg.Seed = *synthSeed
				}
				d, err := fairrank.GenerateCompas(cfg)
				if err != nil {
					fatal(err)
				}
				scorer := fairrank.WeightedSum{Weights: fairrank.CompasScoreWeights()}
				if err := s.Register("compas", d, scorer, fairrank.Adverse); err != nil {
					fatal(err)
				}
				log.Printf("registered synth dataset compas (%d objects, adverse)", d.N())
				logRankStats(s, "compas")
			default:
				fmt.Fprintf(os.Stderr, "fairrankd: unknown synth dataset %q (want school or compas)\n", name)
				os.Exit(2)
			}
		}
	}

	for _, name := range csvOrder {
		path := csvs[name]
		d, err := fairrank.ReadCSVFile(path)
		if err != nil {
			fatal(fmt.Errorf("dataset %q: %w", name, err))
		}
		w, err := fairrank.ParseWeights(weights[name])
		if err != nil {
			fatal(fmt.Errorf("dataset %q: %w", name, err))
		}
		if w == nil {
			w = fairrank.EqualWeights(d.NumScore())
		} else if len(w) != d.NumScore() {
			fatal(fmt.Errorf("dataset %q: %d weights for %d score columns", name, len(w), d.NumScore()))
		}
		pol := fairrank.Beneficial
		if adverseSet[name] {
			pol = fairrank.Adverse
		}
		if err := s.Register(name, d, fairrank.WeightedSum{Weights: w}, pol); err != nil {
			fatal(err)
		}
		log.Printf("registered CSV dataset %s (%d objects, %d score + %d fairness attributes)",
			name, d.N(), d.NumScore(), d.NumFair())
		logRankStats(s, name)
	}
	for name := range weights {
		if _, ok := csvs[name]; !ok {
			fatal(fmt.Errorf("-weights for unknown dataset %q", name))
		}
	}
	for name := range adverseSet {
		if _, ok := csvs[name]; !ok {
			fatal(fmt.Errorf("-adverse for unknown dataset %q", name))
		}
	}

	// Registration is complete: let /readyz start answering 200 before the
	// listener opens, so the first probe a load balancer sends is honest.
	s.MarkReady()

	// Profiling in anger: pprof stays off the service handler and listens
	// on its own (ideally loopback-only) address, so profiles are never
	// one misconfigured reverse proxy away from the public surface. The
	// server handle outlives the goroutine so shutdown can close it.
	var psrv *http.Server
	if *pprofAddr != "" {
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv = &http.Server{Addr: *pprofAddr, Handler: pm, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := psrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() {
		log.Printf("fairrankd listening on %s", *addr)
		done <- srv.ListenAndServe()
	}()
	select {
	case err := <-done:
		fatal(err)
	case <-ctx.Done():
		// Graceful drain: flip /readyz to 503 and shed new /v1 work first,
		// then let Shutdown wait for requests already admitted. The pprof
		// listener goes down in the same budget — a forgotten debug port
		// must not outlive the service.
		log.Print("draining: readyz now 503, waiting for in-flight requests")
		s.StartDrain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
		defer cancel()
		if psrv != nil {
			if err := psrv.Shutdown(shutdownCtx); err != nil {
				log.Printf("pprof shutdown: %v", err)
			}
		}
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fatal(err)
		}
		log.Print("drained cleanly")
	}
}

// logRankStats appends the ranking posture to the registration log: with
// combo runs, every cold top-k request is a g-way merge off the
// registration-time pre-sort; without them the dataset rides the
// full-scan path. The same numbers are served per dataset by
// GET /v1/datasets (rank_stats).
func logRankStats(s *fairrank.Service, name string) {
	st, ok := s.RankStats(name)
	if !ok {
		log.Printf("dataset %s: full-sort ranking path (no combo runs)", name)
		return
	}
	log.Printf("dataset %s: combo runs g=%d, run len min/med/max=%d/%d/%d, pre-sorted in %s",
		name, st.Runs, st.MinLen, st.MedianLen, st.MaxLen, st.BuildCost)
}

func fatal(err error) {
	if errors.Is(err, http.ErrServerClosed) {
		return
	}
	fmt.Fprintln(os.Stderr, "fairrankd:", err)
	os.Exit(1)
}
