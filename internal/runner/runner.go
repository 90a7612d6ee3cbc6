package runner

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"mpress/internal/plan"
	"mpress/internal/units"
)

// Options configures a Runner.
type Options struct {
	// Workers bounds how many jobs simulate concurrently; 0 means
	// GOMAXPROCS. Each job runs on an isolated simulator instance, so
	// results are independent of the interleaving.
	Workers int
	// KeepArtifacts retains each job's full pipeline State (lowered
	// graph, executor options, raw exec.Result) on its JobResult.
	// Off by default so multi-gigabyte sweep intermediates are
	// collected as soon as the report is assembled.
	KeepArtifacts bool
	// OnJobDone, when set, is called after every job completes — from
	// the worker goroutine that ran it, so it must be safe for
	// concurrent use. Progress meters hang off this.
	OnJobDone func(JobResult)
	// planCacheEntries caps how many settled plans the runner's LRU
	// cache retains; zero or less means defaultPlanCacheEntries. Only
	// tests set it.
	planCacheEntries int
}

// JobResult pairs a job with its outcome.
type JobResult struct {
	Job *Job
	// Report is the job's outcome (nil when Err is set).
	Report *Report
	Err    error
	// Elapsed is the real time the job occupied a worker; StageTimes
	// breaks it down by stage name.
	Elapsed    time.Duration
	StageTimes map[string]time.Duration
	// PlanCacheHit reports the job reused a plan computed by another
	// job (or an earlier run) instead of searching itself.
	PlanCacheHit bool
	// State holds the job's intermediates; only populated when
	// Options.KeepArtifacts is set.
	State *State
}

// Stats aggregates a runner's lifetime counters.
type Stats struct {
	// Jobs completed (successfully or not).
	Jobs int64
	// PlanComputes counts planner searches actually run;
	// PlanCacheHits and PlanCacheMisses count lookups. Hits include
	// waiting on another worker's in-flight computation — the work
	// was shared either way.
	PlanComputes    int64
	PlanCacheHits   int64
	PlanCacheMisses int64
	// PlanCacheEvictions counts settled plans dropped by the LRU
	// bound; PlanCacheEntries and PlanCacheBytes are the cache's
	// current retained size.
	PlanCacheEvictions int64
	PlanCacheEntries   int
	PlanCacheBytes     units.Bytes
	// LoweringBuilds counts pipeline.Build calls: one per distinct
	// lowering among the jobs needing it at once. LoweringShared counts
	// fetches answered by another job's lowering, built or in flight.
	LoweringBuilds int64
	LoweringShared int64
	// LoweringEntries is how many lowerings the runner holds now: zero
	// whenever no batch, job or Hold needs one.
	LoweringEntries int
	// PlannerBases counts the planner's per-plane bases: each is one
	// profiler run and one device-mapping step (mapping.Search, or the
	// identity when the search is off or the plane is switched), made
	// once per distinct (lowering, plane, mapping switch) while the
	// lowering is held, however many plans read it.
	PlannerBases int64
	// PlanTime and ExecTime accumulate real time across jobs in the
	// planning and execution stages respectively.
	PlanTime time.Duration
	ExecTime time.Duration
}

// Runner executes jobs through a bounded worker pool over a shared
// plan cache and shared frozen lowerings. The zero value is not
// usable; call New.
type Runner struct {
	opts   Options
	cache  *planCache
	lowers *lowerings

	mu       sync.Mutex
	jobs     int64
	planTime time.Duration
	execTime time.Duration
}

// New returns a Runner with the given options.
func New(opts Options) *Runner {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{opts: opts, cache: newPlanCache(opts.planCacheEntries), lowers: newLowerings()}
}

// Workers returns the pool size jobs run at.
func (r *Runner) Workers() int { return r.opts.Workers }

// CachedPlan returns the settled plan cached under key (a Job.PlanKey)
// without blocking: an in-flight computation reports a miss, and the
// lookup counts as neither a hit nor a miss.
func (r *Runner) CachedPlan(key string) (*plan.Plan, bool) {
	if key == "" {
		return nil, false
	}
	return r.cache.peek(key)
}

// Run executes one job through its stage pipeline. Invalid
// configuration and cancellation surface as JobResult.Err; OOM is
// reported inside the Report, matching how the paper's figures show
// failed runs.
func (r *Runner) Run(ctx context.Context, j *Job) JobResult {
	return r.run(ctx, j, r.opts.KeepArtifacts, r.lowers.lease(nil), nil)
}

// RunKeep is Run with the job's State retained on the result
// regardless of Options.KeepArtifacts — for callers (like the serving
// layer's trace endpoint) that need one job's intermediates without
// paying for artifact retention across a whole sweep.
func (r *Runner) RunKeep(ctx context.Context, j *Job) JobResult {
	return r.run(ctx, j, true, r.lowers.lease(nil), nil)
}

// RunPlan is RunKeep with a plan the caller already holds — typically
// one computed offline and read back with Job.LoadPlan (paper
// Sec. III-B). The Plan stage adopts pl as is: no planner, no plan
// cache and no rebase, so pl must have been computed for this job's
// own lowering (a nil pl plans as RunKeep does). Systems that do not
// plan (SystemPlain and ZeRO) return an error.
func (r *Runner) RunPlan(ctx context.Context, j *Job, pl *plan.Plan) JobResult {
	if s := j.Config.System; !s.Planned() {
		return JobResult{Job: j, Err: fmt.Errorf("runner: %v does not plan; run it without a plan", s)}
	}
	return r.run(ctx, j, true, r.lowers.lease(nil), pl)
}

// run executes j holding the lowerings lease l, released once the job
// is done. A non-nil adopt is the plan the Plan stage takes instead of
// planning.
func (r *Runner) run(ctx context.Context, j *Job, keep bool, l *lease, adopt *plan.Plan) JobResult {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	st := &State{Job: j, cache: r.cache, lowers: l, adopt: adopt, workers: r.opts.Workers}
	res := JobResult{Job: j, StageTimes: make(map[string]time.Duration)}
	for _, s := range stagesFor(j) {
		if err := ctx.Err(); err != nil {
			res.Err = err
			break
		}
		s0 := time.Now()
		err := s.run(ctx, st)
		d := time.Since(s0)
		res.StageTimes[s.name] = d
		r.account(s.name, d)
		if err != nil {
			res.Err = err
			break
		}
	}
	l.release()
	res.Report = st.Report
	res.PlanCacheHit = st.PlanCacheHit
	res.Elapsed = time.Since(start)
	if keep {
		res.State = st
	}
	r.mu.Lock()
	r.jobs++
	r.mu.Unlock()
	if r.opts.OnJobDone != nil {
		r.opts.OnJobDone(res)
	}
	return res
}

// RunAll executes the jobs through the worker pool and returns their
// results in input order. Jobs that lower identically share one frozen
// lowering: every job's lowerings are reserved before dispatch, jobs
// are dispatched grouped by lowering (groups in first-appearance
// order), and each lowering is dropped once no pending or running job
// needs it, so the runner retains none after RunAll returns.
// Cancelling ctx stops in-flight simulations at their next interrupt
// poll; jobs not yet finished report ctx's error.
func (r *Runner) RunAll(ctx context.Context, jobs []*Job) []JobResult {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]JobResult, len(jobs))
	if len(jobs) == 0 {
		return results
	}
	leases, order := r.reserve(jobs)
	workers := r.opts.Workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = r.run(ctx, jobs[i], r.opts.KeepArtifacts, leases[i], nil)
			}
		}()
	}
	for _, i := range order {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// reserve leases every job's lowerings and returns the dispatch order:
// job indices sorted stably by their lowering keys' first-appearance
// ranks, so jobs sharing a canonical lowering run together and, within
// that, jobs sharing their own lowering do too.
func (r *Runner) reserve(jobs []*Job) ([]*lease, []int) {
	leases := make([]*lease, len(jobs))
	ranks := make([][]int, len(jobs))
	first := make(map[string]int)
	order := make([]int, len(jobs))
	for i, j := range jobs {
		keys := lowerKeys(j)
		for _, k := range keys {
			if _, ok := first[k]; !ok {
				first[k] = len(first)
			}
			ranks[i] = append(ranks[i], first[k])
		}
		leases[i] = r.lowers.lease(keys)
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return slices.Compare(ranks[a], ranks[b]) })
	return leases, order
}

// Hold reserves the lowerings of jobs until release is called, so the
// jobs' runs share them across batches as RunAll's share them within
// one: a lowering and the planner bases on it are made once while held.
// The search holds its candidates' lowerings this way across its
// waves. Call release exactly once.
func (r *Runner) Hold(jobs []*Job) (release func()) {
	var keys []string
	for _, j := range jobs {
		keys = append(keys, lowerKeys(j)...)
	}
	return r.lowers.lease(keys).release
}

// RunConfigs validates the configs into jobs and runs them all. A
// config that fails validation surfaces as its result's Err without
// blocking the rest of the batch.
func (r *Runner) RunConfigs(ctx context.Context, cfgs []Config) []JobResult {
	jobs := make([]*Job, len(cfgs))
	errs := make([]error, len(cfgs))
	for i, cfg := range cfgs {
		jobs[i], errs[i] = NewJob(cfg)
	}
	// Run the valid jobs; slot validation errors into place after.
	valid := make([]*Job, 0, len(jobs))
	for _, j := range jobs {
		if j != nil {
			valid = append(valid, j)
		}
	}
	ran := r.RunAll(ctx, valid)
	results := make([]JobResult, len(cfgs))
	next := 0
	for i := range cfgs {
		if jobs[i] == nil {
			results[i] = JobResult{Err: errs[i]}
			continue
		}
		results[i] = ran[next]
		next++
	}
	return results
}

// Stats returns the runner's aggregate counters.
func (r *Runner) Stats() Stats {
	hits, misses, computes, evictions, entries, bytes := r.cache.stats()
	builds, shared, bases, lowerings := r.lowers.stats()
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		Jobs:               r.jobs,
		PlanComputes:       computes,
		PlanCacheHits:      hits,
		PlanCacheMisses:    misses,
		PlanCacheEvictions: evictions,
		PlanCacheEntries:   entries,
		PlanCacheBytes:     bytes,
		LoweringBuilds:     builds,
		LoweringShared:     shared,
		LoweringEntries:    lowerings,
		PlannerBases:       bases,
		PlanTime:           r.planTime,
		ExecTime:           r.execTime,
	}
}

func (r *Runner) account(stage string, d time.Duration) {
	r.mu.Lock()
	switch stage {
	case "plan":
		r.planTime += d
	case "execute":
		r.execTime += d
	}
	r.mu.Unlock()
}

// Train runs one job to completion on a fresh single-worker runner —
// the engine behind the facade's mpress.Train. Each call plans from
// scratch, exactly as the pre-runner facade did.
func Train(cfg Config) (*Report, error) {
	j, err := NewJob(cfg)
	if err != nil {
		return nil, err
	}
	res := New(Options{Workers: 1}).Run(context.Background(), j)
	if res.Err != nil {
		return nil, res.Err
	}
	return res.Report, nil
}
