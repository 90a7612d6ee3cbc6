package runner

import (
	"context"
	"fmt"
	"runtime"
	"slices"

	"mpress/internal/exec"
	"mpress/internal/grid"
	"mpress/internal/hw"
	"mpress/internal/mapping"
	"mpress/internal/pipeline"
	"mpress/internal/plan"
	"mpress/internal/units"
	"mpress/internal/zero"
)

// canonicalMinibatches is the minibatch count cached plans are
// computed at. Plans for other counts are rebased from the canonical
// one (plan.Rebase), so the cached entry is identical no matter which
// sweep point computes it first — a requirement for deterministic
// results under concurrency.
const canonicalMinibatches = 2

// State carries one job through its stages, which communicate only
// through it. Callers see it on a JobResult when they ask for artifacts
// (Options.KeepArtifacts, RunKeep, RunPlan); the Fig. 9 ablation reads
// its intermediates that way.
type State struct {
	Job *Job

	// Grid is the job's shard grid (after Partition); Grid.Plane()
	// is the topology every later stage simulates on. At TP = 1
	// the plane is Config.Topology itself, so legacy runs are
	// untouched.
	Grid *grid.Grid
	// Part is the stage partition (after Partition).
	Part pipeline.Partition
	// Built is the lowered job at the job's own minibatch count
	// (after Build).
	Built *pipeline.Built
	// Plan is the compaction plan (after Plan; nil for SystemPlain),
	// and Mapping the stage→GPU assignment the job will execute with.
	Plan    *plan.Plan
	Mapping []hw.DeviceID
	// PlanCacheHit reports that the Plan stage reused a cached plan.
	PlanCacheHit bool
	// ExecOpts is the executor configuration with the plan's overlay
	// (after Apply), Exec the raw simulation result (after Execute), and
	// Report the job's outcome (after Report).
	ExecOpts *exec.Options
	Exec     *exec.Result
	Report   *Report
	// Resil is a resilient run's accounting (after Resilience; nil
	// otherwise); Timeline merges its segments into one trace.
	Resil *resilSummary
	// Recovered is the lowered job of the final recovered segment when
	// a failure forced a re-plan (nil otherwise); a resilient State's
	// Plan/Mapping refer to its tensors and stages, not Built's.
	Recovered *pipeline.Built

	// shared marks virtual-stage runs (several stages per GPU).
	shared bool
	// cache is the runner's plan cache.
	cache *planCache
	// lowers is the job's claim on the runner's shared frozen
	// lowerings; every stage lowers through it.
	lowers *lease
	// adopt, when set, is the plan the Plan stage takes instead of
	// planning (Runner.RunPlan).
	adopt *plan.Plan
	// workers is the runner's pool width, which sets a job's default
	// refinement width (planWorkers).
	workers int
}

// TraceLaneNames labels each stage lane of an exported trace with the
// physical devices it stands for. Only tensor-parallel runs produce
// names — each simulated lane is then a whole TP group, identified by
// its rank-0 representative and group index (e.g. "n0/gpu2 tp1") —
// so TP-free traces stay byte-identical to the pre-grid format.
func (st *State) TraceLaneNames() []string {
	if st.Grid == nil || st.Grid.Shape.TP <= 1 || len(st.Mapping) == 0 {
		return nil
	}
	names := make([]string, len(st.Mapping))
	for s, d := range st.Mapping {
		names[s] = fmt.Sprintf("%s tp%d", st.Grid.Representative(d).On(0), int(d))
	}
	return names
}

// stage is one step of the job pipeline.
type stage struct {
	name string
	run  func(ctx context.Context, st *State) error
}

// prepStages lower and plan a job into an executable configuration;
// a re-plan after a failure runs just these.
var prepStages = []stage{
	{"partition", stagePartition},
	{"build", stageBuild},
	{"plan", stagePlan},
	{"apply", stageApply},
}

// stagesFor returns the job's stage sequence. ZeRO baselines use an
// analytic model with no partition/plan phases: one stage executes
// them and assembles the report.
func stagesFor(j *Job) []stage {
	if j.Config.System.IsZeRO() {
		return []stage{{"execute", stageZeRO}}
	}
	ss := append(slices.Clip(prepStages), stage{"execute", stageExecute})
	if j.Config.Resilient() {
		ss = append(ss, stage{"resilience", stageResilience})
	}
	return append(ss, stage{"report", stageReport})
}

// buildConfig is the lowering of the config's partition at the given
// minibatch count.
func buildConfig(c Config, part pipeline.Partition, minibatches int) pipeline.BuildConfig {
	return pipeline.BuildConfig{
		Model: c.Model, Prec: *c.Precision, Part: part, Kind: c.Schedule,
		MicrobatchSize: c.MicrobatchSize,
		Microbatches:   c.Microbatches,
		Minibatches:    minibatches,
		TP:             c.TPDegree,
	}
}

// lowerConfigs lists the lowerings a job's stages fetch: the canonical
// one its plan is computed on and rebased from (planned systems only),
// then its own. Jobs that never lower (ZeRO) or fail partitioning
// (their run reports why) need none.
func lowerConfigs(c Config) []pipeline.BuildConfig {
	if c.System.IsZeRO() {
		return nil
	}
	_, part, err := partition(c)
	if err != nil {
		return nil
	}
	var out []pipeline.BuildConfig
	if c.System != SystemPlain && c.Minibatches != canonicalMinibatches {
		out = append(out, buildConfig(c, part, canonicalMinibatches))
	}
	return append(out, buildConfig(c, part, c.Minibatches))
}

// partition validates the config's shard grid and stage count and
// partitions the model across the stages.
func partition(c Config) (*grid.Grid, pipeline.Partition, error) {
	g, err := c.Grid()
	if err != nil {
		return nil, pipeline.Partition{}, err
	}
	if plane := g.Plane(); c.Stages > plane.NumGPUs && c.System != SystemPlain {
		// Typed so service layers classify the infeasible placement as
		// a caller mistake (HTTP 400) instead of a server fault.
		return nil, pipeline.Partition{}, fmt.Errorf("mpress: virtual stages are only supported with SystemPlain: %w",
			&mapping.InfeasibleError{Stages: c.Stages, GPUs: plane.NumGPUs})
	}
	part, err := pipeline.PartitionModel(c.Model, c.Stages, c.Strategy, c.Schedule,
		*c.Precision, c.MicrobatchSize, c.Microbatches)
	if err != nil {
		return nil, pipeline.Partition{}, err
	}
	return g, part, nil
}

func stagePartition(ctx context.Context, st *State) error {
	g, part, err := partition(st.Job.Config)
	if err != nil {
		return err
	}
	st.Grid, st.Part = g, part
	return nil
}

// stageBuild hands the job the shared frozen lowering, which the Apply
// stage lays the plan over without changing it.
func stageBuild(ctx context.Context, st *State) (err error) {
	st.Built, err = st.lowers.get(buildConfig(st.Job.Config, st.Part, st.Job.Config.Minibatches))
	return err
}

// allowedFor translates a system into the planner's mechanism set.
func allowedFor(s System) (plan.Allowed, error) {
	switch s {
	case SystemGPUCPUSwap:
		return plan.Allowed{HostSwap: true}, nil
	case SystemRecompute:
		return plan.Allowed{Recompute: true}, nil
	case SystemMPressD2D:
		return plan.Allowed{D2D: true}, nil
	case SystemMPress:
		return plan.AllMechanisms(), nil
	default:
		return plan.Allowed{}, fmt.Errorf("mpress: %v does not plan", s)
	}
}

// planWorkers resolves Config.PlanWorkers against a runner of
// runnerWorkers: zero takes the runner's share of the host's cores,
// GOMAXPROCS over the pool width, so a job alone on a one-worker
// runner refines on every core and a runner with a job per core keeps
// each job sequential. A positive setting stands. It is resolved here,
// not in Config.WithDefaults, so echoed configs and fingerprints keep
// the zero.
func planWorkers(n, runnerWorkers int) int {
	if n > 0 {
		return n
	}
	return max(1, runtime.GOMAXPROCS(0)/max(1, runnerWorkers))
}

func stagePlan(ctx context.Context, st *State) error {
	c := st.Job.Config
	plane := st.Grid.Plane()
	if c.System == SystemPlain {
		// No planner: run the job as-is. More stages than plane devices
		// become virtual pipeline stages, wrapped around the devices.
		m := exec.IdentityMapping(c.Stages)
		if c.Stages > plane.NumGPUs {
			st.shared = true
			for s := range m {
				m[s] = hw.DeviceID(s % plane.NumGPUs)
			}
		}
		st.Mapping = m
		return nil
	}
	if st.adopt != nil {
		st.Plan, st.Mapping = st.adopt, st.adopt.Mapping
		return nil
	}

	allowed, err := allowedFor(c.System)
	if err != nil {
		return err
	}
	canonical := func() (*pipeline.Built, error) {
		return st.lowers.get(buildConfig(c, st.Part, canonicalMinibatches))
	}
	compute := func() (*plan.Plan, error) {
		return plan.Compute(plan.Options{
			Topo:                 plane,
			Build:                canonical,
			Allowed:              allowed,
			DisableMappingSearch: c.DisableMappingSearch,
			DisableStriping:      c.DisableStriping,
			Workers:              planWorkers(c.PlanWorkers, st.workers),
			Ctx:                  ctx,
		})
	}
	pl, hit, err := st.cache.getOrCompute(st.Job.PlanKey(), compute)
	st.PlanCacheHit = hit
	if err != nil {
		return err
	}
	if c.Minibatches != canonicalMinibatches {
		from, err := canonical()
		if err != nil {
			return err
		}
		if pl, err = plan.Rebase(pl, from, st.Built); err != nil {
			return err
		}
	}
	st.Plan = pl
	st.Mapping = pl.Mapping
	return nil
}

func stageApply(ctx context.Context, st *State) error {
	c := st.Job.Config
	plane := st.Grid.Plane()
	if c.System == SystemPlain {
		st.ExecOpts = &exec.Options{
			Topo: plane, Built: st.Built,
			Mapping:            st.Mapping,
			AllowSharedDevices: st.shared,
		}
	} else {
		opts, err := plan.Apply(st.Plan, st.Built, plane)
		if err != nil {
			return err
		}
		st.ExecOpts = opts
	}
	if tp := st.Grid.Shape.TP; tp > 1 {
		// Per-operator collectives run on the physical NVLink ring of
		// each TP group (the plane only models inter-group links).
		st.ExecOpts.TP = &exec.TPSpec{
			Degree:  tp,
			HopBW:   st.Grid.TPRingBandwidth(),
			Latency: c.Topology.NVLinkLatency,
		}
	}
	if c.Replicas() > 1 {
		// Hybrid parallelism: each stage's optimizer step waits for
		// its gradient all-reduce across the cluster's replicas.
		st.ExecOpts.DataParallel = &exec.DPSpec{Cluster: c.Cluster, Buckets: c.AllReduceBuckets}
	}
	return nil
}

func stageExecute(ctx context.Context, st *State) error {
	opts := *st.ExecOpts
	opts.Ctx = ctx
	res, err := exec.Run(opts)
	if err != nil {
		return err
	}
	st.Exec = res
	return nil
}

func stageReport(ctx context.Context, st *State) error {
	st.Report = reportFrom(st.Job.Config, st.Exec, st.Plan, st.Mapping)
	if sum := st.Resil; sum != nil {
		mergeResilience(st.Report, st.Exec, sum)
	}
	applyPrice(st.Report)
	return nil
}

// applyPrice fills the Report's economics from Config.Price. It runs
// after mergeResilience so resilient runs are priced over their full
// wall clock, and prices nothing on OOM (a dead run earns no samples;
// leaving cost zero keeps $/sample metrics from dividing by it).
func applyPrice(rep *Report) {
	p := rep.Config.Price
	if p == nil || rep.OOM != nil || rep.Duration <= 0 {
		return
	}
	n := float64(rep.Replicas)
	rep.EnergyKWh = p.NodePower.EnergyKWh(rep.Duration) * n
	rep.CostUSD = p.NodeHourlyCost.For(rep.Duration).Dollarsf() * n
}

// mergeResilience folds the resilient replay's accounting into the
// ideal run's report: Duration becomes total wall clock, throughput
// fields keep the fault-free rates, and Goodput prices the difference.
func mergeResilience(rep *Report, ideal *exec.Result, sum *resilSummary) {
	if rep.OOM != nil {
		return // the ideal run already died; nothing was replayed
	}
	rep.IdealDuration = ideal.Duration
	rep.OOM = sum.oom
	rep.Duration = sum.wall
	rep.Failures = len(sum.recoveries)
	rep.Recoveries = sum.recoveries
	rep.Checkpoints = sum.checkpoints
	rep.CheckpointBytes = sum.ckptBytes
	rep.CheckpointTime = sum.ckptTime
	rep.LostWork = sum.lostWork
	rep.RecoveryTime = sum.recoveryTime
	if sum.oom == nil && sum.wall > 0 {
		samples := rep.SamplesPerSec * ideal.Duration.Secondsf()
		rep.Goodput = samples / sum.wall.Secondsf()
	} else {
		rep.TFLOPS, rep.SamplesPerSec = 0, 0
		rep.ClusterTFLOPS, rep.ClusterSamplesPerSec = 0, 0
	}
}

// stageZeRO runs the analytic data-parallel baseline and assembles its
// report directly.
func stageZeRO(ctx context.Context, st *State) error {
	c := st.Job.Config
	variant := map[System]zero.Variant{
		SystemZeRO3:        zero.ZeRO3,
		SystemZeROOffload:  zero.ZeROOffload,
		SystemZeROInfinity: zero.ZeROInfinity,
	}[c.System]
	res, err := zero.Run(zero.Config{
		Topo:           c.Topology,
		Model:          c.Model,
		Prec:           *c.Precision,
		Variant:        variant,
		MicrobatchSize: c.MicrobatchSize,
		GradAccum:      c.Microbatches,
		Steps:          c.Minibatches,
	})
	if err != nil {
		return err
	}
	rep := &Report{Config: c, OOM: res.OOM, Replicas: 1}
	if res.OOM == nil {
		rep.Duration = res.Duration
		rep.TFLOPS = res.TFLOPS
		rep.SamplesPerSec = res.SamplesPerSec
		rep.ClusterTFLOPS = res.TFLOPS
		rep.ClusterSamplesPerSec = res.SamplesPerSec
		rep.HostPeak = res.HostPeak
		rep.PerGPUPeak = append(rep.PerGPUPeak, res.PerGPUPeak...)
	}
	applyPrice(rep)
	st.Report = rep
	return nil
}

// reportFrom assembles the Report for a pipeline-system run. The
// executor modeled one TP-rank-0 representative per group, so scale
// factor T expands plane quantities back to the full server: compute
// and fabric traffic happened T times over, every group member's peak
// equals its representative's, and the TP collectives' own traffic
// (already a group total) is added on top. T = 1 reproduces the
// pre-grid report bit for bit.
func reportFrom(c Config, res *exec.Result, pl *plan.Plan, m []hw.DeviceID) *Report {
	rep := &Report{Config: c, OOM: res.OOM, Plan: pl, Mapping: m, Replicas: c.Replicas()}
	rep.SimEvents = res.Events
	rep.TPDegree = c.TPDegree
	T := c.TP()
	if res.OOM == nil {
		rep.Duration = res.Duration
		rep.TFLOPS = res.TFLOPS * float64(T)
		rep.SamplesPerSec = res.SamplesPerSec
		rep.ClusterTFLOPS = rep.TFLOPS * float64(rep.Replicas)
		rep.ClusterSamplesPerSec = res.SamplesPerSec * float64(rep.Replicas)
		rep.HostPeak = res.Host.Peak * units.Bytes(T)
		rep.NVLinkBytes = res.Fabric.NVLinkBytes*units.Bytes(T) + res.TPAllReduceBytes
		rep.PCIeBytes = res.Fabric.PCIeBytes * units.Bytes(T)
		rep.NVMeBytes = res.Fabric.NVMeBytes * units.Bytes(T)
		rep.TPAllReduceBytes = res.TPAllReduceBytes
		for _, g := range res.GPUs {
			for t := 0; t < T; t++ {
				rep.PerGPUPeak = append(rep.PerGPUPeak, g.Peak)
			}
		}
		rep.NICBytes = res.NICBytes
		rep.AllReduces = res.AllReduces
	}
	return rep
}
