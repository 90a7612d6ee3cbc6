package search

import (
	"context"
	"fmt"
	"math"
	"time"

	"mpress/internal/ckpt"
	"mpress/internal/cluster"
	"mpress/internal/pipeline"
	"mpress/internal/runner"
	"mpress/internal/units"
)

// Checkpoint-axis sentinels (Space.CheckpointsNS / Strategy
// CheckpointNS values). Zero is the Young–Daly optimum, positive
// values are fixed intervals in nanoseconds.
const (
	// CkptInherit keeps the base config's checkpoint policy.
	CkptInherit int64 = -2
	// CkptNone disables checkpointing.
	CkptNone int64 = -1
)

// Space is the strategy space the searcher enumerates: the cartesian
// product of its axes. An empty axis inherits the base config's value
// (a singleton), so the zero Space searches exactly the base strategy.
type Space struct {
	// Systems are the pipeline/memory systems to try.
	Systems []runner.System `json:"systems,omitempty"`
	// TPDegrees are tensor-parallel degrees (1 or 0 = off).
	TPDegrees []int `json:"tp_degrees,omitempty"`
	// StageCounts are pipeline stage counts; 0 means the plane
	// default (GPUs / TP), which aliases across TP degrees into
	// transposition hits.
	StageCounts []int `json:"stage_counts,omitempty"`
	// Partitions are the stage-partitioning strategies.
	Partitions []pipeline.Strategy `json:"partitions,omitempty"`
	// Nodes are replica counts (1 = single server). Counts > 1 build
	// a cluster over Fabric (required then).
	Nodes []int `json:"nodes,omitempty"`
	// Fabric is the inter-node fabric for Nodes > 1.
	Fabric *cluster.Fabric `json:"fabric,omitempty"`
	// CheckpointsNS are checkpoint intervals (see the Ckpt*
	// sentinels). Only meaningful for resilient bases.
	CheckpointsNS []int64 `json:"checkpoints_ns,omitempty"`
}

// maxSpaceSize bounds the raw candidates one Run enumerates: mpressd's
// default sweep cap, far above DefaultSpace's at most 80.
const maxSpaceSize = 4096

// Size returns the number of raw candidates the space enumerates for
// the given base (the product of the resolved axis lengths), or
// math.MaxInt when that product overflows an int.
func (s Space) Size(base runner.Config) int {
	r := s.resolve(base)
	n := 1
	for _, l := range []int{len(r.Systems), len(r.TPDegrees), len(r.StageCounts),
		len(r.Partitions), len(r.Nodes), len(r.CheckpointsNS)} {
		if n > math.MaxInt/l {
			return math.MaxInt
		}
		n *= l
	}
	return n
}

// resolve fills every empty axis with the base config's own value, so
// enumeration is always over a full product.
func (s Space) resolve(base runner.Config) Space {
	if len(s.Systems) == 0 {
		s.Systems = []runner.System{base.System}
	}
	if len(s.TPDegrees) == 0 {
		s.TPDegrees = []int{base.TPDegree}
	}
	if len(s.StageCounts) == 0 {
		s.StageCounts = []int{base.Stages}
	}
	if len(s.Partitions) == 0 {
		s.Partitions = []pipeline.Strategy{base.Strategy}
	}
	if len(s.Nodes) == 0 {
		s.Nodes = []int{0}
	}
	if len(s.CheckpointsNS) == 0 {
		s.CheckpointsNS = []int64{CkptInherit}
	}
	return s
}

// DefaultSpace is the space `mpress-plan -auto` searches: every
// non-ZeRO system, TP off/2-way, the plane-default and half-plane
// stage counts, and both partition strategies. Systems are ordered
// strongest-first (mpress, d2d, …) so the searcher finds a good
// incumbent early and the lower bound can prune the weak tail. For a
// resilient base the Young–Daly interval is tried next to the
// configured one.
func DefaultSpace(base runner.Config) Space {
	sp := Space{
		Systems: []runner.System{
			runner.SystemMPress, runner.SystemMPressD2D, runner.SystemRecompute,
			runner.SystemGPUCPUSwap, runner.SystemPlain,
		},
		TPDegrees:  []int{1, 2},
		Partitions: []pipeline.Strategy{pipeline.ComputeBalanced, pipeline.MemoryBalanced},
	}
	if base.Topology != nil {
		sp.StageCounts = []int{0, base.Topology.NumGPUs / 2}
	}
	if base.Faults != nil {
		sp.CheckpointsNS = []int64{CkptInherit, 0}
	}
	return sp
}

// Strategy is one raw point of the Space (before normalization —
// KeyOf the lowered, defaulted config gives the canonical identity).
type Strategy struct {
	System       runner.System     `json:"system"`
	TP           int               `json:"tp"`
	Stages       int               `json:"stages"`
	Partition    pipeline.Strategy `json:"partition"`
	Nodes        int               `json:"nodes"`   // 0 = keep the base cluster
	CheckpointNS int64             `json:"ckpt_ns"` // CkptInherit = keep base policy
}

// Outcome classifies what the searcher did with a candidate.
type Outcome string

const (
	// OutcomeEvaluated: lowered and simulated (possibly to an OOM).
	OutcomeEvaluated Outcome = "evaluated"
	// OutcomeMemo: served from the transposition table.
	OutcomeMemo Outcome = "memo"
	// OutcomePruned: cut by the static lower bound — provably unable
	// to beat the incumbent, never simulated.
	OutcomePruned Outcome = "pruned"
	// OutcomeSkipped: not a runnable strategy (see SkipReason).
	OutcomeSkipped Outcome = "skipped"
	// OutcomeInfeasible: the simulation itself refused the job.
	OutcomeInfeasible Outcome = "infeasible"
)

// SkipReason types why enumeration rejected a candidate without
// simulating it. These are data in the search report, never panics.
type SkipReason string

const (
	// SkipGrid: the shard grid is impossible — TP·PP·DP·CP does not
	// factor the world size, or a TP group spans NVLink islands.
	SkipGrid SkipReason = "grid"
	// SkipConfig: the lowered config fails validation (e.g. TP with
	// ZeRO or resilience, a bad cluster).
	SkipConfig SkipReason = "config"
	// SkipPartition: the stage count cannot partition the model or
	// exceeds the plane on a system without virtual-stage support.
	SkipPartition SkipReason = "partition"
	// SkipRuntime: the stage pipeline rejected the job at run time.
	SkipRuntime SkipReason = "runtime"
)

// Candidate is one enumerated strategy and what became of it, in
// canonical rank order.
type Candidate struct {
	Rank        int        `json:"rank"`
	Raw         Strategy   `json:"raw"`
	Key         Key        `json:"key"` // zero value when skipped before lowering
	Fingerprint string     `json:"fingerprint,omitempty"`
	Outcome     Outcome    `json:"outcome"`
	SkipReason  SkipReason `json:"skip_reason,omitempty"`
	Detail      string     `json:"detail,omitempty"`
	// Eval is set for evaluated and memoized candidates.
	Eval *Eval `json:"eval,omitempty"`
	// TimeToFit = workload / effective rate (MaxDuration when OOM).
	TimeToFit units.Duration `json:"time_to_fit_ns,omitempty"`
	// Bound is the static lower bound on TimeToFit (0 = no claim).
	Bound units.Duration `json:"bound_ns,omitempty"`

	job  *runner.Job       // the lowered strategy, validated and defaulted
	spec *runner.JobResult // speculative evaluation, pre-commit
}

// Result is the canonical outcome of one search. Everything except
// Wall is byte-identical at every worker count.
type Result struct {
	BaseFingerprint string `json:"base_fingerprint"`
	// Workload is the training workload in samples (the defaulted
	// base config's total across replicas); time-to-fit is
	// Workload / candidate effective samples-per-sec.
	Workload   int64       `json:"workload_samples"`
	SpaceSize  int         `json:"space_size"`
	Candidates []Candidate `json:"candidates"`
	// Winner is the rank of the winning candidate (-1: none feasible).
	Winner int `json:"winner"`
	// WinnerConfig is the winner lowered and defaulted; WinnerReport
	// its full simulation report (plan included).
	WinnerConfig *runner.Config `json:"winner_config,omitempty"`
	WinnerReport *runner.Report `json:"winner_report,omitempty"`
	// Search counters: nodes expanded (simulated), pruned by the
	// bound, served by the transposition table, skipped (including
	// infeasible), and incumbent updates.
	Expanded int `json:"expanded"`
	Pruned   int `json:"pruned"`
	MemoHits int `json:"memo_hits"`
	Skipped  int `json:"skipped"`
	Updates  int `json:"updates"`
	// Wall is real search time — observability only, excluded from
	// the canonical report rendering.
	Wall time.Duration `json:"wall_ns"`
}

// Best returns the winning candidate, or nil when nothing fit.
func (r *Result) Best() *Candidate {
	if r.Winner < 0 || r.Winner >= len(r.Candidates) {
		return nil
	}
	return &r.Candidates[r.Winner]
}

// Options tunes one search.
type Options struct {
	// Table is the transposition table (nil = fresh in-process one).
	// A warm table changes the memo/expanded split, never the winner.
	Table *MemTable
	// Runner evaluates the candidates, sharing its plan cache, and its
	// worker pool sizes each speculative wave (nil = a fresh
	// runner.New(runner.Options{}), GOMAXPROCS workers). The result is
	// byte-identical at every worker count.
	Runner *runner.Runner
	// FullEnum disables bound pruning — every candidate is evaluated.
	// The winner is provably identical; the soundness cross-check
	// test relies on this.
	FullEnum bool
}

// Run searches the space for the strategy minimizing time-to-fit of
// the base config's workload. The search is exhaustive over the
// space: branch-and-bound pruning and memoization never change the
// winner, only the work done. Ties break to the earliest rank, and
// every decision is committed in strict rank order, so the Result —
// counters included — is byte-identical at every worker count. The
// runner holds every runnable candidate's lowerings until Run returns,
// so each distinct lowering, and each planner basis on it, is made once
// per search rather than once per wave.
func Run(ctx context.Context, base runner.Config, sp Space, o Options) (*Result, error) {
	baseJob, err := runner.NewJob(base)
	if err != nil {
		return nil, fmt.Errorf("search: base config: %w", err)
	}
	size := sp.Size(base)
	if size > maxSpaceSize {
		return nil, fmt.Errorf("search: space enumerates %d candidates, over the limit of %d", size, maxSpaceSize)
	}
	db := baseJob.Config
	workload := int64(db.MicrobatchSize) * int64(db.Microbatches) *
		int64(db.Minibatches) * int64(db.Replicas())

	table := o.Table
	if table == nil {
		table = NewMemTable()
	}
	rnr := o.Runner
	if rnr == nil {
		rnr = runner.New(runner.Options{})
	}
	waveSize := rnr.Workers()

	start := time.Now()
	res := &Result{
		BaseFingerprint: baseJob.Fingerprint(),
		Workload:        workload,
		SpaceSize:       size,
		Winner:          -1,
	}
	pending := enumerate(base, sp.resolve(base), res, workload)
	jobs := make([]*runner.Job, len(pending))
	for i, c := range pending {
		jobs[i] = c.job
	}
	defer rnr.Hold(jobs)()

	incumbent := units.MaxDuration
	reports := make(map[string]*runner.Report)
	for i := 0; i < len(pending); {
		// Build one wave: walk forward in rank order, collecting up
		// to waveSize candidates that — under the incumbent and table
		// as of now — will need a real evaluation. Both only tighten
		// (the incumbent shrinks, the table grows), so a build-time
		// prune or memo hit is still one at commit time; the converse
		// misses are caught by the sequential commit below.
		var wave []*Candidate
		var evals []*Candidate
		for ; i < len(pending) && len(evals) < waveSize; i++ {
			c := pending[i]
			wave = append(wave, c)
			if _, ok := table.Get(c.Fingerprint); ok {
				continue
			}
			if !o.FullEnum && c.Bound >= incumbent {
				continue
			}
			evals = append(evals, c)
		}
		if len(evals) > 0 {
			// Speculative: results are adopted or discarded only by
			// the rank-order commit loop.
			wjobs := make([]*runner.Job, len(evals))
			for j, c := range evals {
				wjobs[j] = c.job
			}
			jrs := rnr.RunAll(ctx, wjobs)
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for j := range evals {
				evals[j].spec = &jrs[j]
			}
		}
		for _, c := range wave {
			if e, ok := table.Get(c.Fingerprint); ok {
				ev := e
				c.Outcome, c.Eval = OutcomeMemo, &ev
				res.MemoHits++
			} else if !o.FullEnum && c.Bound >= incumbent {
				c.Outcome = OutcomePruned
				res.Pruned++
				c.spec = nil
				continue
			} else {
				// Neither memoized nor prunable at build time either,
				// so the wave evaluated it.
				jr := c.spec
				c.spec = nil
				if jr.Err != nil {
					c.Outcome, c.SkipReason = OutcomeInfeasible, SkipRuntime
					c.Detail = jr.Err.Error()
					res.Skipped++
					continue
				}
				ev := evalOf(jr.Report)
				table.Put(c.Fingerprint, ev)
				c.Outcome, c.Eval = OutcomeEvaluated, &ev
				res.Expanded++
				reports[c.Fingerprint] = jr.Report
			}
			c.TimeToFit = timeToFit(workload, *c.Eval)
			if c.TimeToFit < incumbent {
				incumbent = c.TimeToFit
				res.Winner = c.Rank
				res.Updates++
			}
		}
	}

	if best := res.Best(); best != nil {
		wc := best.job.Config
		res.WinnerConfig = &wc
		rep, ok := reports[best.Fingerprint]
		if !ok {
			// The winner was served from a warm table; materialize its
			// full report (and plan) with one deterministic run.
			jr := rnr.Run(ctx, best.job)
			if jr.Err != nil {
				return nil, fmt.Errorf("search: winner re-run: %w", jr.Err)
			}
			rep = jr.Report
		}
		res.WinnerReport = rep
	}
	res.Wall = time.Since(start)
	return res, nil
}

// enumerate walks the resolved space in canonical axis order (system,
// TP, stages, partition, nodes, checkpoint), classifying each raw
// strategy: unrunnable ones are appended to res.Candidates with a
// typed skip reason, runnable ones get their key, fingerprint and
// static bound and are returned for the branch-and-bound driver. The
// returned slice aliases res.Candidates entries.
func enumerate(base runner.Config, sp Space, res *Result, workload int64) []*Candidate {
	// Fixed capacity up front: pending holds pointers into
	// res.Candidates, so the backing array must never reallocate.
	res.Candidates = make([]Candidate, 0, res.SpaceSize)
	var pending []*Candidate
	rank := 0
	for _, sys := range sp.Systems {
		for _, tp := range sp.TPDegrees {
			for _, stages := range sp.StageCounts {
				for _, part := range sp.Partitions {
					for _, nodes := range sp.Nodes {
						for _, ck := range sp.CheckpointsNS {
							st := Strategy{
								System: sys, TP: tp, Stages: stages,
								Partition: part, Nodes: nodes, CheckpointNS: ck,
							}
							c := Candidate{Rank: rank, Raw: st}
							rank++
							classify(base, sp, st, &c, workload)
							res.Candidates = append(res.Candidates, c)
							if c.Outcome == "" {
								pending = append(pending, &res.Candidates[len(res.Candidates)-1])
							}
						}
					}
				}
			}
		}
	}
	for i := range res.Candidates {
		if res.Candidates[i].Outcome == OutcomeSkipped {
			res.Skipped++
		}
	}
	return pending
}

// classify lowers one raw strategy and either marks it skipped (typed,
// never a panic) or fills its key, fingerprint and bound. A zero
// Outcome means runnable.
func classify(base runner.Config, sp Space, st Strategy, c *Candidate, workload int64) {
	skip := func(r SkipReason, format string, args ...interface{}) {
		c.Outcome, c.SkipReason = OutcomeSkipped, r
		c.Detail = fmt.Sprintf(format, args...)
	}
	cfg, err := lower(base, sp, st)
	if err != nil {
		skip(SkipConfig, "%v", err)
		return
	}
	// The shard grid first, checked directly so its failures — TP not
	// dividing the world, a TP group spanning NVLink islands — get
	// their own reason even though NewJob would reject them too.
	if cfg.TP() > 1 && !cfg.System.IsZeRO() && !cfg.Resilient() {
		if _, err := cfg.Grid(); err != nil {
			skip(SkipGrid, "%v", err)
			return
		}
	}
	j, err := runner.NewJob(cfg)
	if err != nil {
		skip(SkipConfig, "%v", err)
		return
	}
	dc := j.Config
	if !dc.System.IsZeRO() {
		if dc.Stages > dc.Model.Layers {
			skip(SkipPartition, "%d stages for %d model layers", dc.Stages, dc.Model.Layers)
			return
		}
		if plane := dc.Topology.NumGPUs / dc.TP(); dc.Stages > plane && dc.System != runner.SystemPlain {
			skip(SkipPartition, "%d virtual stages on a %d-GPU plane need %v",
				dc.Stages, plane, runner.SystemPlain)
			return
		}
	}
	c.Key = KeyOf(dc)
	c.Fingerprint = j.Fingerprint()
	c.Bound = lowerBound(dc, workload)
	c.job = j
}

// lower maps one raw strategy onto the base config.
func lower(base runner.Config, sp Space, st Strategy) (runner.Config, error) {
	c := base
	c.System = st.System
	c.TPDegree = st.TP
	c.Stages = st.Stages
	c.Strategy = st.Partition
	switch {
	case st.Nodes == 0: // keep base cluster
	case st.Nodes == 1:
		c.Cluster = nil
	default:
		fab := sp.Fabric
		if fab == nil && base.Cluster != nil {
			fab = &base.Cluster.Net
		}
		if fab == nil {
			return c, fmt.Errorf("search: %d nodes need a fabric (Space.Fabric)", st.Nodes)
		}
		cl, err := cluster.New(st.Nodes, base.Topology, *fab)
		if err != nil {
			return c, err
		}
		c.Cluster = cl
	}
	switch {
	case st.CheckpointNS == CkptInherit: // keep base policy
	case st.CheckpointNS == CkptNone:
		c.Checkpoint = nil
	default:
		c.Checkpoint = &ckpt.Policy{Interval: units.Duration(st.CheckpointNS)}
	}
	return c, nil
}

// evalOf condenses a report into its transposition-table entry.
func evalOf(rep *runner.Report) Eval {
	if rep.OOM != nil {
		return Eval{OOM: true}
	}
	return Eval{EffSamplesPerSec: EffectiveSamplesPerSec(rep)}
}

// EffectiveSamplesPerSec is the fleet-wide training rate a report
// achieved: goodput × replicas when the run was resilient, the
// cluster samples/sec otherwise.
func EffectiveSamplesPerSec(rep *runner.Report) float64 {
	if rep.Config.Resilient() && rep.Goodput > 0 {
		return rep.Goodput * float64(rep.Replicas)
	}
	return rep.ClusterSamplesPerSec
}

// timeToFit converts a table entry to the search objective.
func timeToFit(workload int64, e Eval) units.Duration {
	if e.OOM || e.EffSamplesPerSec <= 0 {
		return units.MaxDuration
	}
	return units.Seconds(float64(workload) / e.EffSamplesPerSec)
}
