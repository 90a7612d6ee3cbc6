package capacity

import (
	"context"
	"fmt"
	"sort"

	"mpress/internal/catalog"
	"mpress/internal/chaos"
	"mpress/internal/ckpt"
	"mpress/internal/cluster"
	"mpress/internal/pipeline"
	"mpress/internal/runner"
	"mpress/internal/units"
)

// Candidate is one point of the enumeration: a machine type at a node
// count, a tensor-parallel degree and a checkpoint cadence.
type Candidate struct {
	Machine string `json:"machine"`
	Nodes   int    `json:"nodes"`
	TP      int    `json:"tp"`
	// CheckpointSeconds is the snapshot interval for resilient
	// classes; 0 means Young–Daly.
	CheckpointSeconds float64 `json:"checkpoint_s"`
}

// String names the candidate, e.g. "dgx2-a100 x2 tp2 ckpt=yd".
func (c Candidate) String() string {
	return fmt.Sprintf("%s x%d tp%d ckpt=%s", c.Machine, c.Nodes, c.TP, c.ckptLabel())
}

func (c Candidate) ckptLabel() string {
	if c.CheckpointSeconds == 0 {
		return "yd"
	}
	return fmt.Sprintf("%gs", c.CheckpointSeconds)
}

// ClassResult is one job class evaluated on one candidate.
type ClassResult struct {
	Class string `json:"class"`
	// Status is "ok", "oom" or "error" (Err then says why).
	Status string `json:"status"`
	Err    string `json:"err,omitempty"`
	// GoodputSPS is the fleet-wide effective samples/sec of the class
	// on this candidate (resilience overheads included); IdealSPS is
	// its fault-free rate and GoodputFrac their ratio.
	GoodputSPS  float64 `json:"goodput_sps"`
	IdealSPS    float64 `json:"ideal_sps"`
	GoodputFrac float64 `json:"goodput_frac"`
	// Analytic marks a class priced by the first-order overhead model
	// (ckpt.ExpectedOverheadRate) instead of the full resilient
	// replay — tensor-parallel classes, which the replay does not
	// compose with yet.
	Analytic bool `json:"analytic,omitempty"`
}

// Evaluation is one candidate's complete outcome.
type Evaluation struct {
	Candidate
	Classes []ClassResult `json:"classes"`
	// Feasible means every class ran and the SLO held; Reason says
	// what disqualified an infeasible candidate.
	Feasible bool   `json:"feasible"`
	Reason   string `json:"reason,omitempty"`
	// Dominated marks a feasible candidate beaten on both cost and
	// energy by another feasible one; only undominated candidates are
	// ranked.
	Dominated bool `json:"dominated,omitempty"`
	// AggGoodputSPS is the weighted mean fleet goodput over classes.
	AggGoodputSPS float64 `json:"agg_goodput_sps"`
	// MinGoodputFrac is the worst class's goodput fraction.
	MinGoodputFrac float64 `json:"min_goodput_frac"`
	// CostPerKSample and EnergyWhPerKSample are the ranking metrics:
	// dollars and watt-hours per thousand effective samples.
	CostPerKSample     float64 `json:"cost_usd_per_ksample"`
	EnergyWhPerKSample float64 `json:"energy_wh_per_ksample"`
	// NodeHourlyCost and NodePower echo the catalog entry.
	NodeHourlyCost units.Cost  `json:"node_usd_hr"`
	NodePower      units.Power `json:"node_watts"`
}

// Result is a complete what-if answer.
type Result struct {
	Spec *Spec `json:"spec"`
	// Evaluations holds every candidate in enumeration order;
	// Ranked the feasible undominated ones, cheapest first.
	Evaluations []Evaluation `json:"evaluations"`
	Ranked      []Evaluation `json:"ranked"`
	// Stats carries the shared runner's counters; the plan cache
	// deduplicates planner work across candidates (misses = distinct
	// plan keys, at any worker count).
	Stats runner.Stats `json:"-"`
}

// Options tunes the evaluation.
type Options struct {
	// Workers bounds concurrent job simulations (0 = GOMAXPROCS).
	// Results are byte-identical at any setting.
	Workers int
	// OnJobDone, when set, observes every completed job (called from
	// worker goroutines).
	OnJobDone func(runner.JobResult)
}

// Evaluate answers the spec: enumerate, simulate, prune, rank.
func Evaluate(ctx context.Context, spec *Spec, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ckptAxis := spec.Candidates.CheckpointSeconds
	if !spec.resilient() {
		// Fault-free mixes never checkpoint; a wider axis would only
		// clone identical candidates.
		ckptAxis = ckptAxis[:1]
	}
	var cands []Candidate
	for _, mName := range spec.Candidates.Machines {
		for _, nodes := range spec.Candidates.Nodes {
			for _, tp := range spec.Candidates.TP {
				for _, iv := range ckptAxis {
					cands = append(cands, Candidate{Machine: mName, Nodes: nodes, TP: tp, CheckpointSeconds: iv})
				}
			}
		}
	}

	// Lower every (candidate × class) pair to a runner.Config. A pair
	// that fails to lower (no fabric for scale-out, say) records its
	// error and occupies no slot in the batch.
	type slot struct {
		cand, class int
		analytic    bool
	}
	evals := make([]Evaluation, len(cands))
	classErrs := make([][]string, len(cands))
	var cfgs []runner.Config
	var slots []slot
	for ci, cand := range cands {
		evals[ci] = Evaluation{Candidate: cand, Classes: make([]ClassResult, len(spec.Jobs))}
		classErrs[ci] = make([]string, len(spec.Jobs))
		machine, err := catalog.Lookup(cand.Machine)
		if err != nil {
			return nil, err
		}
		evals[ci].NodeHourlyCost = machine.HourlyCost
		evals[ci].NodePower = machine.Power
		for ki := range spec.Jobs {
			cfg, analytic, err := lowerClass(spec, &spec.Jobs[ki], &machine, cand)
			if err != nil {
				classErrs[ci][ki] = err.Error()
				continue
			}
			cfgs = append(cfgs, cfg)
			slots = append(slots, slot{ci, ki, analytic})
		}
	}

	r := runner.New(runner.Options{Workers: opts.Workers, OnJobDone: opts.OnJobDone})
	results := r.RunConfigs(ctx, cfgs)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	for si, jr := range results {
		s := slots[si]
		cand := cands[s.cand]
		cls := &evals[s.cand].Classes[s.class]
		*cls = classResult(&spec.Jobs[s.class], cand, jr, s.analytic)
	}
	for ci := range evals {
		for ki, msg := range classErrs[ci] {
			if msg != "" {
				evals[ci].Classes[ki] = ClassResult{Class: spec.Jobs[ki].Name, Status: "error", Err: msg}
			}
		}
		finishEvaluation(spec, &evals[ci])
	}

	pruneAndRank(evals)
	res := &Result{Spec: spec, Evaluations: evals, Stats: r.Stats()}
	for _, ev := range evals {
		if ev.Feasible && !ev.Dominated {
			res.Ranked = append(res.Ranked, ev)
		}
	}
	return res, nil
}

// lowerClass builds the runner.Config for one class on one candidate.
// The returned analytic flag marks TP>1 resilient classes, which run
// fault-free and are priced by the first-order overhead model instead
// (the resilient replay does not compose with TP yet).
func lowerClass(spec *Spec, class *JobClass, machine *catalog.MachineType, cand Candidate) (runner.Config, bool, error) {
	fam, m, err := modelFor(class)
	if err != nil {
		return runner.Config{}, false, err
	}
	sys, err := runner.Systems.Lookup(class.System)
	if err != nil {
		return runner.Config{}, false, err
	}
	cfg := runner.Config{
		Topology:       machine.Server,
		Model:          m,
		Schedule:       fam.Schedule,
		System:         sys,
		MicrobatchSize: class.MicrobatchSize,
		Minibatches:    class.Minibatches,
		TPDegree:       cand.TP,
		Price:          &runner.Price{NodePower: machine.Power, NodeHourlyCost: machine.HourlyCost},
	}
	if cand.Nodes > 1 {
		fab, ok := machine.DefaultFabric()
		if !ok {
			return runner.Config{}, false, fmt.Errorf("capacity: %s has no fabric; cannot scale to %d nodes", machine.Name, cand.Nodes)
		}
		clus, err := cluster.New(cand.Nodes, machine.Server, fab)
		if err != nil {
			return runner.Config{}, false, err
		}
		cfg.Cluster = clus
	}
	analytic := false
	if class.MTBFSeconds > 0 {
		if cand.TP > 1 {
			analytic = true // fault-free run + analytic overhead
		} else {
			cfg.Faults = &chaos.Config{Seed: spec.Seed, MTBF: class.MTBF()}
			cfg.Checkpoint = &ckpt.Policy{Interval: ckptInterval(cand)}
		}
	}
	// Surface validation errors (TP not dividing the GPU count, ZeRO
	// at multi-node, …) at lowering time so they count as class
	// errors, not batch failures.
	if _, err := cfg.WithDefaults(); err != nil {
		return runner.Config{}, false, err
	}
	return cfg, analytic, nil
}

func ckptInterval(cand Candidate) units.Duration {
	return units.Duration(cand.CheckpointSeconds * float64(units.Second))
}

// classResult folds one job result into the class's goodput metrics.
func classResult(class *JobClass, cand Candidate, jr runner.JobResult, analytic bool) ClassResult {
	cls := ClassResult{Class: class.Name, Analytic: analytic}
	switch {
	case jr.Err != nil:
		cls.Status, cls.Err = "error", jr.Err.Error()
		return cls
	case jr.Report.Failed():
		cls.Status, cls.Err = "oom", jr.Report.OOM.Error()
		return cls
	}
	rep := jr.Report
	cls.Status = "ok"
	cls.IdealSPS = rep.ClusterSamplesPerSec
	switch {
	case analytic:
		// TP classes ran fault-free; charge the first-order overhead
		// of checkpointing at the candidate's cadence against the
		// class's MTBF: wall = useful × (1 + rate).
		rate := analyticOverheadRate(rep.Config, class.MTBF(), ckptInterval(cand))
		cls.GoodputSPS = rep.ClusterSamplesPerSec / (1 + rate)
	case class.MTBFSeconds > 0:
		// The resilient replay measured goodput per replica.
		cls.GoodputSPS = rep.Goodput * float64(rep.Replicas)
	default:
		cls.GoodputSPS = rep.ClusterSamplesPerSec
	}
	if cls.IdealSPS > 0 {
		cls.GoodputFrac = cls.GoodputSPS / cls.IdealSPS
	}
	return cls
}

// analyticOverheadRate prices resilience for a config the replay
// cannot run: rebuild the lowered pipeline, size its checkpoint
// payload, resolve the interval (Young–Daly when unset) and apply the
// first-order overhead model.
func analyticOverheadRate(c runner.Config, mtbf units.Duration, interval units.Duration) float64 {
	part, err := pipeline.PartitionModel(c.Model, c.Stages, c.Strategy, c.Schedule,
		*c.Precision, c.MicrobatchSize, c.Microbatches)
	if err != nil {
		return 0
	}
	built, err := pipeline.Build(pipeline.BuildConfig{
		Model: c.Model, Prec: *c.Precision, Part: part, Kind: c.Schedule,
		MicrobatchSize: c.MicrobatchSize,
		Microbatches:   c.Microbatches,
		Minibatches:    c.Minibatches,
		TP:             c.TPDegree,
	})
	if err != nil {
		return 0
	}
	perStage := ckpt.StageBytes(built)
	cost := ckpt.Cost(c.Topology, perStage)
	policy := ckpt.Policy{Interval: interval}
	iv := policy.Resolve(cost, mtbf)
	return ckpt.ExpectedOverheadRate(iv, cost, mtbf, ckpt.RestoreCost(c.Topology, perStage))
}

// finishEvaluation aggregates class results into the candidate's
// feasibility verdict and ranking metrics.
func finishEvaluation(spec *Spec, ev *Evaluation) {
	var weightSum, goodputSum float64
	minFrac := 1.0
	for ki := range ev.Classes {
		cls := &ev.Classes[ki]
		if cls.Status != "ok" {
			ev.Reason = fmt.Sprintf("class %s: %s", cls.Class, cls.Status)
			return
		}
		w := spec.Jobs[ki].Weight
		weightSum += w
		goodputSum += w * cls.GoodputSPS
		if cls.GoodputFrac < minFrac {
			minFrac = cls.GoodputFrac
		}
	}
	ev.AggGoodputSPS = goodputSum / weightSum
	ev.MinGoodputFrac = minFrac
	if slo := spec.SLO.GoodputFrac; slo > 0 && minFrac < slo {
		ev.Reason = fmt.Sprintf("goodput fraction %.3f below SLO %.3f", minFrac, slo)
		return
	}
	if floor := spec.SLO.MinSamplesPerSec; floor > 0 && ev.AggGoodputSPS < floor {
		ev.Reason = fmt.Sprintf("aggregate goodput %.2f samples/s below SLO floor %.2f", ev.AggGoodputSPS, floor)
		return
	}
	ev.Feasible = true
	hourly := ev.NodeHourlyCost.Dollarsf() * float64(ev.Nodes)
	watts := ev.NodePower.Wattsf() * float64(ev.Nodes)
	samplesPerHour := ev.AggGoodputSPS * 3600
	ev.CostPerKSample = hourly / samplesPerHour * 1000
	ev.EnergyWhPerKSample = watts / samplesPerHour * 1000
}

// pruneAndRank marks dominated candidates and orders the evaluations:
// feasible undominated by (cost, energy, name) first — the ranking —
// then dominated, then infeasible, each deterministically tie-broken.
func pruneAndRank(evals []Evaluation) {
	for i := range evals {
		if !evals[i].Feasible {
			continue
		}
		for j := range evals {
			if i == j || !evals[j].Feasible || evals[j].Dominated {
				continue
			}
			if dominates(&evals[j], &evals[i]) {
				evals[i].Dominated = true
				evals[i].Reason = fmt.Sprintf("dominated by %s", evals[j].Candidate)
				break
			}
		}
	}
	sort.SliceStable(evals, func(a, b int) bool {
		ea, eb := &evals[a], &evals[b]
		if ea.Feasible != eb.Feasible {
			return ea.Feasible
		}
		if ea.Dominated != eb.Dominated {
			return !ea.Dominated
		}
		if ea.Feasible && !ea.Dominated {
			if ea.CostPerKSample != eb.CostPerKSample {
				return ea.CostPerKSample < eb.CostPerKSample
			}
			if ea.EnergyWhPerKSample != eb.EnergyWhPerKSample {
				return ea.EnergyWhPerKSample < eb.EnergyWhPerKSample
			}
		}
		if ea.Machine != eb.Machine {
			return ea.Machine < eb.Machine
		}
		if ea.Nodes != eb.Nodes {
			return ea.Nodes < eb.Nodes
		}
		if ea.TP != eb.TP {
			return ea.TP < eb.TP
		}
		return ea.CheckpointSeconds < eb.CheckpointSeconds
	})
}

// dominates reports a beats b on both ranking metrics, strictly on at
// least one — the Pareto test pruning uses.
func dominates(a, b *Evaluation) bool {
	if a.CostPerKSample > b.CostPerKSample || a.EnergyWhPerKSample > b.EnergyWhPerKSample {
		return false
	}
	return a.CostPerKSample < b.CostPerKSample || a.EnergyWhPerKSample < b.EnergyWhPerKSample
}
