package main

import (
	"fmt"
	"time"

	"fairrank/internal/core"
	"fairrank/internal/dataset"
	"fairrank/internal/rank"
	"fairrank/internal/service"
	"fairrank/internal/synth"
)

// cohort is one of fairrankd's default datasets rebuilt in-process, with
// the library objects the correctness check and the traced replay call.
type cohort struct {
	name    string
	d       *dataset.Dataset
	scorer  rank.Scorer
	pol     rank.Polarity
	eval    *core.Evaluator
	trainer *core.Trainer
	runs    *rank.ComboRuns
}

// library is the benchmark's in-process copy of what `fairrankd -synth
// school,compas` registers.
type library struct {
	cohorts map[string]*cohort
}

// setupTimes are the traced set-up spans of one library build.
type setupTimes struct {
	synth, comboRuns, evaluator, register time.Duration
}

// newLibrary generates both cohorts with fairrankd's default synth
// configs, scorers and polarities, and builds their evaluators, trainers
// and combo runs. With srv non-nil the cohorts are also registered there,
// the way fairrankd registers them.
func newLibrary(srv *service.Server) (*library, setupTimes, error) {
	var st setupTimes
	lib := &library{cohorts: map[string]*cohort{}}

	t0 := time.Now()
	school, err := synth.GenerateSchool(synth.DefaultSchoolConfig())
	if err != nil {
		return nil, st, fmt.Errorf("synth school: %w", err)
	}
	compas, err := synth.GenerateCompas(synth.DefaultCompasConfig())
	if err != nil {
		return nil, st, fmt.Errorf("synth compas: %w", err)
	}
	st.synth = time.Since(t0)

	for _, c := range []*cohort{
		{name: "school", d: school, scorer: rank.WeightedSum{Weights: synth.SchoolScoreWeights()}, pol: rank.Beneficial},
		{name: "compas", d: compas, scorer: rank.WeightedSum{Weights: synth.CompasScoreWeights()}, pol: rank.Adverse},
	} {
		t := time.Now()
		c.eval = core.NewEvaluator(c.d, c.scorer, c.pol)
		st.evaluator += time.Since(t)
		t = time.Now()
		c.runs = rank.NewComboRuns(c.d, c.eval.BaseScores(), 0)
		st.comboRuns += time.Since(t)
		c.trainer = core.NewTrainer(c.d, c.scorer)
		if srv != nil {
			t = time.Now()
			if err := srv.Register(c.name, c.d, c.scorer, c.pol); err != nil {
				return nil, st, err
			}
			st.register += time.Since(t)
		}
		lib.cohorts[c.name] = c
	}
	if srv != nil {
		srv.MarkReady()
	}
	return lib, st, nil
}

// serverConfig is the service configuration fairrankd builds from the
// flags the benchmark passes it.
func serverConfig(w workload) service.Config {
	cfg := service.Config{Timeouts: service.Timeouts{
		Train: time.Minute, Evaluate: time.Minute, Counterfactual: time.Minute,
		Report: time.Minute, Explain: time.Minute,
	}}
	if w.batching {
		cfg.BatchSize, cfg.BatchMaxWait = 2, 2*time.Millisecond
	}
	return cfg
}
