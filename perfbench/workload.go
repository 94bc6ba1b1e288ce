package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/url"
	"strconv"
	"strings"

	"fairrank/internal/service"
)

// request is one generated HTTP request together with the parameters the
// correctness check and the traced replay need to re-ask it in-process.
type request struct {
	Kind    string // train | evaluate | counterfactual | report | explain
	Method  string
	Path    string // path plus query string
	Body    []byte // nil for GET
	Dataset string

	Seed      int64  // train
	Objective string // train
	K         float64
	Metric    string                      // evaluate
	Points    []service.SweepPointRequest // evaluate
	Bonus     []float64                   // counterfactual, report, explain
	Objects   []int                       // counterfactual
	Object    int                         // explain: the ?object= id
	Format    string                      // report
}

// workload is one traffic mix. Requests are a pure function of (seed,
// index), so a closed loop can draw them lazily for as long as it runs and
// the same seed always yields the same sequence.
type workload struct {
	name string
	why  string
	// batching starts fairrankd with -batch-size 2 -batch-wait 2ms.
	batching bool
	// warmup requests are sent before the timed phase, from the same
	// sequence, so pools and heaps are sized and audit-mixed's cache is
	// in its steady state when timing starts.
	warmup int
	// newGen returns the run's request sequence for a seed.
	newGen func(seed int64) func(i int) request
}

var workloads = []workload{
	{
		name:   "train-cold",
		why:    "every request is a fresh-seed DCA train, so the descent in core/engine/sample/optimize dominates and every cache lookup misses",
		warmup: 40,
		newGen: func(seed int64) func(int) request { return func(i int) request { return genTrain(seed, i) } },
	},
	{
		name:   "sweep-cold",
		why:    "16-point evaluate sweeps under fresh bonus vectors: rank merges and prefix folds dominate, DCA is untouched, the LRU only inserts",
		warmup: 200,
		newGen: func(seed int64) func(int) request { return func(i int) request { return genSweep(seed, i) } },
	},
	{
		name:     "audit-mixed",
		why:      "reports, counterfactuals, explains and point evaluates over a few shared policies with batching on: a read-heavy LRU and the batch window",
		batching: true,
		warmup:   1500,
		newGen:   func(seed int64) func(int) request { return newAuditGen(seed).gen },
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Stream ids keep the per-request generators of different purposes
// independent even under the same seed.
const (
	streamTrain uint64 = iota + 1
	streamSweep
	streamAuditReq
	streamAuditEpoch
	streamAuditPool
)

// rngFor returns the generator of item i of one stream under seed.
func rngFor(seed int64, stream uint64, i int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream<<40^uint64(i)))
}

// Dataset shapes of the default cohorts (-synth school,compas).
const (
	schoolN    = 80000
	compasN    = 7214
	schoolDims = 4
	compasDims = 6
)

// Bonus ranges follow the vectors DCA trains on each cohort (school
// ≈ 2–12 points, compas ≈ 0–3). Compas stays at or below 0.8 points: when
// every other race gets about a point more than African-American
// defendants, the adverse bonus can leave a 10% prefix holding only
// African-American defendants, and the exposure family then answers the
// declared 400 for a degenerate group split. A scan of 15,000 seeded
// compas sweeps found six such vectors at 1.5 points and none at 0.8.
const (
	schoolMaxCents = 1200
	compasMaxCents = 80
)

// randBonus draws a non-zero bonus vector in 0.01-point steps.
func randBonus(r *rand.Rand, dataset string) []float64 {
	dims, maxCents := schoolDims, schoolMaxCents
	if dataset == "compas" {
		dims, maxCents = compasDims, compasMaxCents
	}
	b := make([]float64, dims)
	zero := true
	for j := range b {
		c := r.IntN(maxCents + 1)
		b[j] = float64(c) / 100
		zero = zero && c == 0
	}
	if zero {
		b[0] = 0.5
	}
	return b
}

// pct returns n/100 exactly as strconv.ParseFloat reads "0.nn".
func pct(n int) float64 { return float64(n) / 100 }

var trainKs = []float64{0.05, 0.10, 0.20}

// genTrain: three in four requests are school/disparity, one in four is
// compas/fpr (adverse polarity), at k ∈ {0.05, 0.10, 0.20}, each with a
// fresh training seed. The mix rotates with the index rather than being
// drawn, so every seed sends the same mix and only the training seeds
// differ.
func genTrain(seed int64, i int) request {
	r := rngFor(seed, streamTrain, i)
	req := request{Kind: "train", Dataset: "school", Objective: "disparity", K: trainKs[i%4%3]}
	if i%4 == 3 {
		req.Dataset, req.Objective, req.K = "compas", "fpr", trainKs[i/4%3]
	}
	req.Seed = int64(r.Uint64()>>2) + 1
	req.Method, req.Path = "POST", "/v1/train"
	req.Body = mustJSON(service.TrainRequest{Dataset: req.Dataset, Objective: req.Objective, K: req.K, Seed: req.Seed})
	return req
}

var (
	schoolMetrics = []string{"disparity", "ndcg", "di"}
	compasMetrics = []string{"exposure", "topk", "fpr"}
)

// sweepGrid is the 16-point k grid of a sweep: school 0.01–0.31, compas
// 0.10–0.40 (shorter compas prefixes can hold a single race group).
func sweepGrid(dataset string) []float64 {
	start := 1
	if dataset == "compas" {
		start = 10
	}
	ks := make([]float64, 16)
	for i := range ks {
		ks[i] = pct(start + 2*i)
	}
	return ks
}

// genSweep: a 16-point evaluate under a fresh bonus vector; three in four
// on school, one in four on compas, the dataset and metric rotating with
// the index like genTrain's mix.
func genSweep(seed int64, i int) request {
	r := rngFor(seed, streamSweep, i)
	req := request{Kind: "evaluate", Dataset: "school", Metric: schoolMetrics[i%4%3]}
	if i%4 == 3 {
		req.Dataset, req.Metric = "compas", compasMetrics[i/4%3]
	}
	bonus := randBonus(r, req.Dataset)
	for _, k := range sweepGrid(req.Dataset) {
		req.Points = append(req.Points, service.SweepPointRequest{Bonus: bonus, K: k})
	}
	req.Method, req.Path = "POST", "/v1/evaluate"
	req.Body = mustJSON(service.EvaluateRequest{Dataset: req.Dataset, Metric: req.Metric, Points: req.Points})
	return req
}

// audit-mixed geometry: 4 published policies per epoch, a new epoch every
// auditEpoch requests, counterfactual and explain ids from a fixed pool per
// dataset. Per epoch the distinct cache keys are about 4 bundles + 40
// margin seeds + 4×auditPool objects + 4×3×20 points ≈ 2× the 1024-entry
// LRU.
const (
	auditPolicies = 4
	auditEpoch    = 1000
	auditPool     = 480
	auditObjects  = 8
	auditKs       = 20
)

type policy struct {
	dataset string
	bonus   []float64
	k       float64
}

// auditPolicy returns policy p of an epoch: three school policies, one at
// each of trainKs, and one compas policy at k 0.10 or 0.20 in alternate
// epochs. Only the bonus vectors depend on the seed.
func auditPolicy(seed int64, epoch, p int) policy {
	r := rngFor(seed, streamAuditEpoch, epoch*auditPolicies+p)
	if p == auditPolicies-1 {
		return policy{dataset: "compas", bonus: randBonus(r, "compas"), k: []float64{0.10, 0.20}[epoch%2]}
	}
	return policy{dataset: "school", bonus: randBonus(r, "school"), k: trainKs[(p+epoch)%len(trainKs)]}
}

// auditPoolIDs is the fixed per-dataset pool of object ids the audit
// traffic asks about.
func auditPoolIDs(seed int64, dataset string) []int {
	n, stream := schoolN, 0
	if dataset == "compas" {
		n, stream = compasN, 1
	}
	r := rngFor(seed, streamAuditPool, stream)
	return r.Perm(n)[:auditPool]
}

// auditGen caches the object pools, which are the same for every request
// of a run.
type auditGen struct {
	seed  int64
	pools map[string][]int
}

func newAuditGen(seed int64) *auditGen {
	return &auditGen{seed: seed, pools: map[string][]int{
		"school": auditPoolIDs(seed, "school"),
		"compas": auditPoolIDs(seed, "compas"),
	}}
}

// gen draws request i: equal parts report (json, csv or md),
// counterfactual for 8 pool ids, explain of one pool id, and a
// single-point evaluate at one of 20 k values, each under a random one of
// the epoch's policies. Kinds, formats and metrics rotate with the index,
// so every seed sends the same mix.
func (g *auditGen) gen(i int) request {
	r := rngFor(g.seed, streamAuditReq, i)
	pol := auditPolicy(g.seed, i/auditEpoch, r.IntN(auditPolicies))
	pool := g.pools[pol.dataset]
	req := request{Dataset: pol.dataset, Bonus: pol.bonus, K: pol.k}
	q := url.Values{"dataset": {pol.dataset}, "k": {fmtFloat(pol.k)}, "bonus": {joinFloats(pol.bonus)}}
	switch i % 4 {
	case 0:
		req.Kind, req.Method = "report", "GET"
		req.Format = []string{"json", "csv", "md"}[i/4%3]
		q.Set("format", req.Format)
		req.Path = "/v1/report?" + q.Encode()
	case 1:
		req.Kind, req.Method, req.Path = "counterfactual", "POST", "/v1/counterfactual"
		for _, j := range r.Perm(auditPool)[:auditObjects] {
			req.Objects = append(req.Objects, pool[j])
		}
		req.Body = mustJSON(service.CounterfactualRequest{Dataset: pol.dataset, Bonus: pol.bonus, K: pol.k, Objects: req.Objects})
	case 2:
		req.Kind, req.Method = "explain", "GET"
		req.Object = pool[r.IntN(auditPool)]
		q.Set("object", strconv.Itoa(req.Object))
		req.Path = "/v1/explain?" + q.Encode()
	default:
		req.Kind, req.Method, req.Path = "evaluate", "POST", "/v1/evaluate"
		start, metrics := 1, schoolMetrics
		if pol.dataset == "compas" {
			start, metrics = 10, compasMetrics
		}
		req.Metric = metrics[i/4%3]
		req.Points = []service.SweepPointRequest{{Bonus: pol.bonus, K: pct(start + 2*r.IntN(auditKs))}}
		req.Bonus, req.K = nil, 0
		req.Body = mustJSON(service.EvaluateRequest{Dataset: pol.dataset, Metric: req.Metric, Points: req.Points})
	}
	return req
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal %T: %v", v, err))
	}
	return b
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func joinFloats(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmtFloat(v)
	}
	return strings.Join(parts, ",")
}
