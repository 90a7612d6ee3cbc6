package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"mpress"
	"mpress/internal/chaos"
	"mpress/internal/ckpt"
	"mpress/internal/cluster"
	"mpress/internal/experiments"
	"mpress/internal/hw"
	"mpress/internal/pipeline"
	"mpress/internal/plan"
	"mpress/internal/runner"
	"mpress/internal/search"
	"mpress/internal/units"
)

// workload is one set of inputs the benchmark runs. setup builds the
// inputs (and, for serve-hits, the server and its warm cache); the
// returned instance is then measured.
type workload struct {
	name  string
	setup func(e *env, ph *phase) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// measure runs ops into ph until d has elapsed (at least one
	// pass).
	measure(ph *phase, d time.Duration) error
	// planned lists the workload's distinct planned jobs with the plan
	// its runner computed, for the per-layer decomposition.
	planned() ([]plannedJob, error)
	close()
}

type plannedJob struct {
	name string
	job  *runner.Job
	plan *plan.Plan
}

var workloads = []workload{
	{"plan-cold", setupPlanCold},
	{"autosearch", setupAutosearch},
	{"sweep", setupSweep},
	{"serve-hits", setupServe},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (plan-cold, autosearch, sweep, serve-hits)", name)
}

// env is what every workload shares: the seeded generator, the digest
// checker and the load limits.
type env struct {
	ctx     context.Context
	rng     *rand.Rand
	dig     *digests
	smoke   bool // one op per workload and no warm-up, for the smoke test
	workers int  // runner and search workers, and HTTP connections
	opSeq   atomic.Int64
}

func (e *env) nextOp() int64 { return e.opSeq.Add(1) }

// namedJob is one op input: the config as a caller writes it, its
// validated job, and the name its digest is committed under.
type namedJob struct {
	name string
	cfg  runner.Config
	job  *runner.Job
}

func newJobs(cfgs []namedConfig) ([]namedJob, error) {
	jobs := make([]namedJob, len(cfgs))
	for i, c := range cfgs {
		j, err := runner.NewJob(c.cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		jobs[i] = namedJob{c.name, c.cfg, j}
	}
	return jobs, nil
}

type namedConfig struct {
	name string
	cfg  runner.Config
}

// presets returns the planner presets with the given names, in that
// order.
func presets(names ...string) []namedConfig {
	var out []namedConfig
	for _, n := range names {
		for _, p := range experiments.PlannerPresets() {
			if p.Name == n {
				out = append(out, namedConfig{p.Name, p.Cfg})
			}
		}
	}
	return out
}

// checkJob verifies a finished job against its committed digest.
func (e *env) checkJob(name string, res runner.JobResult) error {
	if res.Err != nil {
		return fmt.Errorf("%s: %w", name, res.Err)
	}
	js, pl, err := jobOutput(res.Job, res.Report)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return e.dig.check(name, js, pl)
}

// cachedPlan looks up the plan r computed for j.
func cachedPlan(r *runner.Runner, name string, j *runner.Job) (plannedJob, error) {
	pl, ok := r.CachedPlan(j.PlanKey())
	if !ok {
		return plannedJob{}, fmt.Errorf("%s: the runner cached no plan", name)
	}
	return plannedJob{name, j, pl}, nil
}

// distinctPlans looks up the plan r computed for each distinct plan key
// among jobs, named after the first job with that key.
func distinctPlans(r *runner.Runner, jobs []namedJob) ([]plannedJob, error) {
	var out []plannedJob
	seen := map[string]bool{}
	for _, nj := range jobs {
		if seen[nj.job.PlanKey()] {
			continue
		}
		seen[nj.job.PlanKey()] = true
		pj, err := cachedPlan(r, nj.name, nj.job)
		if err != nil {
			return nil, err
		}
		out = append(out, pj)
	}
	return out, nil
}

// ---- plan-cold ----------------------------------------------------

// planCold runs each planner preset as one cold planning request, the
// way mpress-plan does: a fresh single-worker runner, no plan cache.
type planCold struct {
	e       *env
	jobs    []namedJob
	runners map[string]*runner.Runner // latest runner per preset
}

func setupPlanCold(e *env, ph *phase) (instance, error) {
	names := []string{"gptxdgx2", "gptxdgx1", "bertxdgx1", "bertxdgx2"}
	if e.smoke {
		names = names[:1]
	}
	jobs, err := newJobs(presets(names...))
	if err != nil {
		return nil, err
	}
	w := &planCold{e: e, jobs: jobs, runners: map[string]*runner.Runner{}}
	if !e.smoke {
		// Warm-up: the cheapest preset, so lazy runtime set-up is not
		// charged to the first measured request.
		w.run(ph, jobs[0], -1)
	}
	return w, nil
}

func (w *planCold) run(ph *phase, nj namedJob, parent int) {
	op := w.e.nextOp()
	r := runner.New(runner.Options{Workers: 1, OnJobDone: ph.jobDone(parent, op)})
	t0 := time.Now()
	res := r.Run(w.e.ctx, nj.job)
	lat := time.Since(t0)
	ph.op(lat, w.e.checkJob(nj.name, res))
	ph.addRate(res.Report)
	ph.addRunnerStats(r.Stats())
	w.runners[nj.name] = r
}

func (w *planCold) measure(ph *phase, d time.Duration) error {
	return ph.runPasses(d, func(sp int) error {
		for _, i := range w.e.rng.Perm(len(w.jobs)) {
			w.run(ph, w.jobs[i], sp)
		}
		return nil
	})
}

func (w *planCold) planned() ([]plannedJob, error) {
	var out []plannedJob
	for _, nj := range w.jobs {
		pj, err := cachedPlan(w.runners[nj.name], nj.name, nj.job)
		if err != nil {
			return nil, err
		}
		out = append(out, pj)
	}
	return out, nil
}

func (w *planCold) close() {}

// ---- autosearch ---------------------------------------------------

// autosearchW runs search.Run over the default space with a fresh
// transposition table per search.
type autosearchW struct {
	e       *env
	bases   []namedJob
	runners map[string]*runner.Runner
}

func setupAutosearch(e *env, ph *phase) (instance, error) {
	names := []string{"gptxdgx2", "gptxdgx1", "bertxdgx1"}
	if e.smoke {
		names = names[:1]
	}
	bases, err := newJobs(presets(names...))
	if err != nil {
		return nil, err
	}
	w := &autosearchW{e: e, bases: bases, runners: map[string]*runner.Runner{}}
	if !e.smoke {
		w.run(ph, bases[0], -1) // warm-up, as in plan-cold
	}
	return w, nil
}

func (w *autosearchW) run(ph *phase, nj namedJob, parent int) {
	op := w.e.nextOp()
	sp := ph.tr.begin("search.Run", parent, op)
	r := runner.New(runner.Options{Workers: w.e.workers, OnJobDone: ph.jobDone(sp, op)})
	t0 := time.Now()
	res, err := search.Run(w.e.ctx, nj.cfg, search.DefaultSpace(nj.cfg), search.Options{Runner: r})
	lat := time.Since(t0)
	ph.tr.end(sp)
	if err == nil {
		var buf bytes.Buffer
		search.WriteReport(&buf, res)
		err = w.e.dig.check(nj.name, buf.Bytes())
		ph.addSearch(res)
		ph.addRate(res.WinnerReport)
	}
	ph.op(lat, err)
	ph.addRunnerStats(r.Stats())
	w.runners[nj.name] = r
}

func (w *autosearchW) measure(ph *phase, d time.Duration) error {
	return ph.runPasses(d, func(sp int) error {
		for _, i := range w.e.rng.Perm(len(w.bases)) {
			w.run(ph, w.bases[i], sp)
		}
		return nil
	})
}

func (w *autosearchW) planned() ([]plannedJob, error) {
	var out []plannedJob
	for _, nj := range w.bases {
		// The base strategy is the search's first candidate, which is
		// always simulated, so its plan is in the search's runner.
		pj, err := cachedPlan(w.runners[nj.name], nj.name, nj.job)
		if err != nil {
			return nil, err
		}
		out = append(out, pj)
	}
	return out, nil
}

func (w *autosearchW) close() {}

// ---- sweep --------------------------------------------------------

// Resilience-grid constants: each workload's fault-free iteration time
// D at Minibatches 8 (in ns), with MTBF D and D/2 and checkpoint
// intervals Young–Daly, D/4 and D/64 — the resilience experiment's grid,
// fixed here so the inputs do not depend on a simulation result.
const (
	bertIdealNS = 541326047063
	gptIdealNS  = 13502860384
)

// sweepConfigs is the sweep workload: the scale-out grid (two models ×
// two fabrics × 1/2/4/8 nodes × minibatches 8/32) and the resilience
// grid (two models × two MTBFs × three checkpoint intervals, seed 2023).
func sweepConfigs() []namedConfig {
	bert := func() runner.Config {
		return runner.Config{Model: mpress.MustBert("1.67B"), Schedule: pipeline.PipeDream,
			System: runner.SystemMPress, MicrobatchSize: 12}
	}
	gpt := func() runner.Config {
		return runner.Config{Model: mpress.MustGPT("5.3B"), Schedule: pipeline.DAPPLE,
			System: runner.SystemMPress, MicrobatchSize: 2}
	}
	var out []namedConfig
	models := []struct {
		label string
		cfg   func() runner.Config
	}{{"bert1.67b", bert}, {"gpt5.3b", gpt}}
	fabrics := []struct {
		label string
		fab   cluster.Fabric
	}{{"ib4x100", cluster.InfiniBand4x100()}, {"10gbe", cluster.Ethernet10G()}}
	for _, m := range models {
		for _, f := range fabrics {
			for _, n := range []int{1, 2, 4, 8} {
				for _, mb := range []int{8, 32} {
					c := m.cfg()
					c.Cluster = cluster.MustNew(n, hw.DGX1(), f.fab)
					c.Minibatches = mb
					out = append(out, namedConfig{fmt.Sprintf("scale/%s/%s/n%d/mb%d", m.label, f.label, n, mb), c})
				}
			}
		}
	}
	resil := []struct {
		label string
		cfg   runner.Config
		ideal units.Duration
	}{
		{"bert1.67b", func() runner.Config { c := bert(); c.Topology = hw.DGX1(); return c }(), bertIdealNS},
		{"gpt5.3b", func() runner.Config { c := gpt(); c.Topology = hw.DGX2FastNVMe(); return c }(), gptIdealNS},
	}
	for _, r := range resil {
		for mi, mtbf := range []units.Duration{r.ideal, r.ideal / 2} {
			for ii, iv := range []units.Duration{0, r.ideal / 4, r.ideal / 64} {
				c := r.cfg
				c.Minibatches = 8
				c.Faults = &chaos.Config{Seed: 2023, MTBF: mtbf}
				c.Checkpoint = &ckpt.Policy{Interval: iv}
				out = append(out, namedConfig{fmt.Sprintf("resil/%s/mtbf%d/ckpt%d", r.label, mi, ii), c})
			}
		}
	}
	return out
}

// sweepW runs every sweep job on one shared runner per pass, so plans
// are computed once per pass and reused across node counts,
// minibatch counts and fault schedules.
type sweepW struct {
	e    *env
	jobs []namedJob
	last *runner.Runner
}

// sweepWarmup is the cheapest sweep job; set-up runs it once.
const sweepWarmup = "scale/gpt5.3b/ib4x100/n1/mb8"

func setupSweep(e *env, ph *phase) (instance, error) {
	cfgs := sweepConfigs()
	if e.smoke {
		cfgs = only(cfgs, "scale/gpt5.3b/ib4x100/n2/mb8", "resil/gpt5.3b/mtbf0/ckpt0")
	}
	jobs, err := newJobs(cfgs)
	if err != nil {
		return nil, err
	}
	if !e.smoke {
		warm, err := newJobs(only(sweepConfigs(), sweepWarmup))
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		res := runner.New(runner.Options{Workers: 1}).Run(e.ctx, warm[0].job)
		ph.op(time.Since(t0), e.checkJob(warm[0].name, res))
	}
	return &sweepW{e: e, jobs: jobs}, nil
}

// only keeps the named configs.
func only(cfgs []namedConfig, names ...string) []namedConfig {
	var out []namedConfig
	for _, c := range cfgs {
		for _, n := range names {
			if c.name == n {
				out = append(out, c)
			}
		}
	}
	return out
}

func (w *sweepW) measure(ph *phase, d time.Duration) error {
	return ph.runPasses(d, func(sp int) error {
		perm := w.e.rng.Perm(len(w.jobs))
		jobs := make([]*runner.Job, len(perm))
		for i, p := range perm {
			jobs[i] = w.jobs[p].job
		}
		op := w.e.nextOp()
		rs := ph.tr.begin("runner.RunAll", sp, op)
		r := runner.New(runner.Options{Workers: w.e.workers, OnJobDone: ph.jobDone(rs, op)})
		results := r.RunAll(w.e.ctx, jobs)
		ph.tr.end(rs)
		for i, res := range results {
			ph.op(res.Elapsed, w.e.checkJob(w.jobs[perm[i]].name, res))
			ph.addRate(res.Report)
		}
		ph.addRunnerStats(r.Stats())
		w.last = r
		return nil
	})
}

func (w *sweepW) planned() ([]plannedJob, error) { return distinctPlans(w.last, w.jobs) }

func (w *sweepW) close() {}
