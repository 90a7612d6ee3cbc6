// Package runner decomposes the training facade into an explicit,
// composable job pipeline. A Job is a validated Config plus a
// canonical fingerprint; the stages Partition → Build → Plan → Apply
// → Execute → Report lower and simulate it; and a Runner executes
// batches of jobs through a bounded worker pool with a
// concurrency-safe, fingerprint-keyed plan cache — so parameter
// sweeps run in parallel by construction and adjacent sweep points
// reuse the planner's profile/mapping/refinement work instead of
// re-deriving it per run.
package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"mpress/internal/chaos"
	"mpress/internal/ckpt"
	"mpress/internal/cluster"
	"mpress/internal/grid"
	"mpress/internal/hw"
	"mpress/internal/memsim"
	"mpress/internal/model"
	"mpress/internal/names"
	"mpress/internal/pipeline"
	"mpress/internal/plan"
	"mpress/internal/sim"
	"mpress/internal/tensor"
	"mpress/internal/units"
)

// System selects which training system runs the job — the paper's
// evaluation compares exactly these (Figs. 7 and 8).
type System int

const (
	// SystemPlain is the unmodified pipeline system (PipeDream or
	// DAPPLE per Config.Schedule), no memory saving.
	SystemPlain System = iota
	// SystemGPUCPUSwap enables only PCIe swapping to host memory.
	SystemGPUCPUSwap
	// SystemRecompute enables only activation recomputation.
	SystemRecompute
	// SystemMPressD2D is MPress restricted to D2D swap.
	SystemMPressD2D
	// SystemMPress is the full system (D2D + GPU-CPU swap +
	// recomputation, with device mapping and data striping).
	SystemMPress
	// SystemZeRO3, SystemZeROOffload and SystemZeROInfinity are the
	// data-parallel DeepSpeed baselines; Config.Schedule is ignored.
	SystemZeRO3
	SystemZeROOffload
	SystemZeROInfinity
)

// String names the system as the paper's figures do.
func (s System) String() string {
	switch s {
	case SystemPlain:
		return "Pipeline"
	case SystemGPUCPUSwap:
		return "GPU-CPU Swap"
	case SystemRecompute:
		return "Recomputation"
	case SystemMPressD2D:
		return "MPress-D2D"
	case SystemMPress:
		return "MPress"
	case SystemZeRO3:
		return "ZeRO-3"
	case SystemZeROOffload:
		return "ZeRO-Offload"
	case SystemZeROInfinity:
		return "ZeRO-Infinity"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

// IsZeRO reports whether the system is a data-parallel baseline.
func (s System) IsZeRO() bool {
	return s == SystemZeRO3 || s == SystemZeROOffload || s == SystemZeROInfinity
}

// Planned reports whether the system runs the MPress planner (and so
// produces a cacheable plan.Plan).
func (s System) Planned() bool {
	switch s {
	case SystemGPUCPUSwap, SystemRecompute, SystemMPressD2D, SystemMPress:
		return true
	default:
		return false
	}
}

// Config describes one training job.
type Config struct {
	// Topology is required.
	Topology *hw.Topology
	// Model is required (see the facade's MustBert/MustGPT or build
	// your own).
	Model model.Config
	// Schedule and Strategy take their zero values when unset:
	// PipeDream and ComputeBalanced. Values outside the registered
	// sets (pipeline.Schedules, pipeline.Strategies) fail validation.
	Schedule pipeline.ScheduleKind
	Strategy pipeline.Strategy
	// Precision defaults to mixed-precision Adam for fp16 models and
	// full-precision Adam for fp32 ones.
	Precision *model.Precision
	// Stages defaults to the GPU count.
	Stages int
	// MicrobatchSize defaults to 2; Microbatches (per minibatch) to
	// 4× the stage count; Minibatches to 2.
	MicrobatchSize int
	Microbatches   int
	Minibatches    int
	// System takes its zero value, SystemPlain, when unset.
	System System
	// DisableMappingSearch / DisableStriping are the Fig. 9 ablation
	// knobs (only meaningful for the MPress systems).
	DisableMappingSearch bool
	DisableStriping      bool
	// TPDegree shards every pipeline stage across a tensor-parallel
	// group of this width, pinned inside one NVLink island (0 or 1 =
	// off; see internal/grid). The simulator models the TP-rank-0
	// representative of each group on a derived plane topology and
	// charges the group's per-operator all-reduces on top. Incompatible
	// with the ZeRO baselines and with resilient runs.
	TPDegree int `json:",omitempty"`
	// Cluster, when non-nil with Nodes > 1, scales the job out: each
	// node runs one pipeline replica of this config (hybrid
	// data+pipeline parallelism) and replicas synchronize gradients
	// with bucketed ring all-reduces over the cluster's fabric.
	// Topology defaults to Cluster.Server; if both are set they must
	// describe the same server. Nil or 1-node clusters reproduce the
	// single-server run exactly.
	Cluster *cluster.Cluster
	// AllReduceBuckets is the gradient bucket count per all-reduce
	// (defaults to 4 on multi-node jobs; ignored otherwise).
	AllReduceBuckets int
	// Faults, when non-nil, injects a deterministic hardware fault
	// schedule into the run; Checkpoint, when non-nil, enables periodic
	// snapshots of weights and optimizer state (interval 0 resolves to
	// the Young–Daly optimum from Faults.MTBF). Either turns the job
	// into a resilient run: the Report gains goodput, lost work and
	// recovery accounting.
	Faults     *chaos.Config
	Checkpoint *ckpt.Policy
	// PlanWorkers bounds how many candidate conversions the planner's
	// refinement loop emulates concurrently (plan.Options.Workers).
	// Plans are byte-identical at any setting — the knob only changes
	// how fast the search runs — so it joins neither the fingerprint
	// nor the plan key. Zero takes the runner's share of the host's
	// cores, GOMAXPROCS over the runner's Workers (at least one), when
	// the job plans; one means sequential. A re-plan after a failure
	// inherits it.
	PlanWorkers int
	// Price, when non-nil, attaches node economics to the job: the
	// Report then carries EnergyKWh and CostUSD for the whole run
	// (capacity planning ranks configurations by them). Pricing never
	// changes the simulation; like resilience it joins the fingerprint
	// only when set — and never the plan key — so legacy fingerprints
	// are untouched.
	Price *Price
}

// Price is the economics of one node running the job, typically lifted
// from a catalog.MachineType.
type Price struct {
	// NodePower is one node's electrical draw at training load.
	NodePower units.Power
	// NodeHourlyCost is one node's rental rate in $/hr.
	NodeHourlyCost units.Cost
}

// Validate rejects negative rates.
func (p *Price) Validate() error {
	if p.NodePower < 0 {
		return fmt.Errorf("mpress: Price.NodePower %v is negative", p.NodePower)
	}
	if p.NodeHourlyCost < 0 {
		return fmt.Errorf("mpress: Price.NodeHourlyCost %v is negative", p.NodeHourlyCost)
	}
	return nil
}

// Canonical renders the price for the job fingerprint.
func (p *Price) Canonical() string {
	return fmt.Sprintf("price=w%g/c%g", float64(p.NodePower), float64(p.NodeHourlyCost))
}

// Resilient reports whether the job runs the fault/checkpoint replay.
func (c Config) Resilient() bool { return c.Faults != nil || c.Checkpoint != nil }

// TP returns the normalized tensor-parallel degree (>= 1).
func (c Config) TP() int {
	if c.TPDegree > 1 {
		return c.TPDegree
	}
	return 1
}

// Grid factors the job's device world into its shard grid
// (TP x PP x DP) and derives the representative plane the simulator
// runs on. At TP = 1 the plane is Topology itself.
func (c Config) Grid() (*grid.Grid, error) {
	return grid.New(c.Topology, c.Replicas(), c.TP())
}

// Replicas returns the data-parallel replica count: the cluster's node
// count, or 1 for single-server jobs.
func (c Config) Replicas() int {
	if c.Cluster == nil {
		return 1
	}
	return c.Cluster.Nodes
}

// WithDefaults validates the config and fills defaults, returning the
// canonical form jobs are fingerprinted over.
func (c Config) WithDefaults() (Config, error) {
	if c.Cluster != nil {
		if err := c.Cluster.Validate(); err != nil {
			return c, err
		}
		if c.Topology == nil {
			c.Topology = c.Cluster.Server
		} else if c.Topology.Canonical() != c.Cluster.Server.Canonical() {
			return c, fmt.Errorf("mpress: Topology %q differs from Cluster.Server %q", c.Topology.Name, c.Cluster.Server.Name)
		}
		if c.Replicas() > 1 && c.System.IsZeRO() {
			return c, fmt.Errorf("mpress: %v is single-server only (its analytic model has no inter-node fabric)", c.System)
		}
	}
	if c.AllReduceBuckets < 0 {
		return c, fmt.Errorf("mpress: AllReduceBuckets %d is negative", c.AllReduceBuckets)
	}
	if c.PlanWorkers < 0 {
		return c, fmt.Errorf("mpress: PlanWorkers %d is negative", c.PlanWorkers)
	}
	// Zero means the default (below); a negative shape is a mistake.
	for _, f := range []struct {
		name string
		v    int
	}{{"Stages", c.Stages}, {"MicrobatchSize", c.MicrobatchSize}, {"Microbatches", c.Microbatches}, {"Minibatches", c.Minibatches}} {
		if f.v < 0 {
			return c, fmt.Errorf("mpress: %s %d is negative", f.name, f.v)
		}
	}
	if c.Price != nil {
		if err := c.Price.Validate(); err != nil {
			return c, err
		}
	}
	if c.Replicas() > 1 && c.AllReduceBuckets == 0 {
		c.AllReduceBuckets = 4
	}
	if err := names.Check(Systems, c.System, "mpress: unknown system", "systems"); err != nil {
		return c, err
	}
	if err := names.Check(pipeline.Schedules, c.Schedule, "mpress: unknown schedule", "schedules"); err != nil {
		return c, err
	}
	if err := names.Check(pipeline.Strategies, c.Strategy, "mpress: unknown strategy", "strategies"); err != nil {
		return c, err
	}
	if c.Topology == nil {
		return c, fmt.Errorf("mpress: Topology is required")
	}
	if err := c.Topology.Validate(); err != nil {
		return c, err
	}
	if err := c.Model.Validate(); err != nil {
		return c, err
	}
	if c.TPDegree < 0 {
		return c, fmt.Errorf("mpress: TPDegree %d is negative", c.TPDegree)
	}
	// Degree 1 is the off state; normalize so fingerprints, JSON and
	// reports render identically whether the caller wrote 0 or 1.
	if c.TPDegree == 1 {
		c.TPDegree = 0
	}
	if c.TP() > 1 {
		if c.System.IsZeRO() {
			return c, fmt.Errorf("mpress: TPDegree is a pipeline-system axis; %v shards its own way", c.System)
		}
		if c.Resilient() {
			return c, fmt.Errorf("mpress: TPDegree > 1 does not compose with fault injection or checkpointing yet")
		}
		if _, err := c.Grid(); err != nil {
			return c, err
		}
	}
	if c.Stages == 0 {
		c.Stages = c.Topology.NumGPUs / c.TP()
	}
	if c.MicrobatchSize == 0 {
		c.MicrobatchSize = 2
	}
	if c.Microbatches == 0 {
		// 4× the stage count keeps the 1F1B bubble under ~20%, the
		// regime pipeline systems are run in.
		c.Microbatches = 4 * c.Stages
	}
	if c.Minibatches == 0 {
		c.Minibatches = 2
	}
	// Every stage all-reduces its gradients once per minibatch, in
	// buckets of 2(N-1) ring steps, each one kernel event: a job whose
	// ring steps alone exceed the kernel's event budget cannot finish.
	if n := c.Replicas(); n > 1 {
		steps := float64(c.Stages) * float64(c.Minibatches) * float64(c.AllReduceBuckets) * float64(2*(n-1))
		if steps > sim.DefaultMaxEvents {
			return c, fmt.Errorf("%w: %.0f gradient ring steps (%d stages × %d minibatches × %d buckets × 2(%d-1))",
				sim.ErrRunaway, steps, c.Stages, c.Minibatches, c.AllReduceBuckets, n)
		}
	}
	if p := c.Precision; p != nil && min(p.ParamBytes, p.GradBytes, p.OptBytes) < 0 {
		return c, fmt.Errorf("mpress: Precision %+v has a negative byte count", *p)
	}
	if c.Precision == nil {
		p := model.MixedAdam()
		if c.Model.DType == tensor.FP32 {
			p = model.FP32Adam()
		}
		c.Precision = &p
	}
	if c.Resilient() {
		if c.System.IsZeRO() {
			return c, fmt.Errorf("mpress: %v has no event clock; fault injection requires a pipeline system", c.System)
		}
		if c.Faults != nil {
			if err := c.Faults.Validate(c.Topology, c.Replicas()); err != nil {
				return c, err
			}
		}
		if c.Checkpoint != nil {
			if err := c.Checkpoint.Validate(); err != nil {
				return c, err
			}
			if c.Checkpoint.Interval == 0 && (c.Faults == nil || c.Faults.MTBF <= 0) {
				return c, fmt.Errorf("mpress: Checkpoint.Interval 0 means Young–Daly, which needs Faults.MTBF")
			}
		}
	}
	return c, nil
}

// Report is the outcome of one training job.
type Report struct {
	Config Config
	// OOM is non-nil when the job died of out-of-memory — the red
	// crosses of Fig. 7.
	OOM *memsim.OOMError
	// Duration is simulated wall-clock; TFLOPS and SamplesPerSec are
	// the paper's throughput metrics (zero when OOM).
	Duration      units.Duration
	TFLOPS        float64
	SamplesPerSec float64
	// PerGPUPeak is each GPU's peak memory (Fig. 2's bars). For the
	// ZeRO baselines every entry is equal: each data-parallel rank
	// does identical work, so the simulator models rank 0 and
	// replicates its peak by symmetry.
	PerGPUPeak []units.Bytes
	HostPeak   units.Bytes
	// Interconnect traffic of the run (zero for the ZeRO baselines,
	// whose analytic model does not route per-byte traffic).
	NVLinkBytes units.Bytes
	PCIeBytes   units.Bytes
	NVMeBytes   units.Bytes
	// Plan is the MPress compaction plan (nil for baselines), and
	// Mapping the stage→GPU assignment used.
	Plan    *plan.Plan
	Mapping []hw.DeviceID
	// Replicas is the data-parallel replica count (1 for single-server
	// jobs). Duration/TFLOPS/SamplesPerSec above describe one replica;
	// ClusterTFLOPS and ClusterSamplesPerSec scale them to the whole
	// cluster (every replica is symmetric).
	Replicas             int
	ClusterTFLOPS        float64
	ClusterSamplesPerSec float64
	// NICBytes is one node's inter-node egress traffic and AllReduces
	// its collective count (zero for single-server jobs).
	NICBytes   units.Bytes
	AllReduces int64
	// TPDegree echoes the tensor-parallel width of the run, and
	// TPAllReduceBytes the NVLink traffic its per-operator collectives
	// moved (group totals). Both absent for TP-free runs, keeping
	// legacy reports byte-identical.
	TPDegree         int         `json:",omitempty"`
	TPAllReduceBytes units.Bytes `json:",omitempty"`
	// Resilience accounting, populated only for resilient runs
	// (Config.Resilient()). Duration above becomes the total resilient
	// wall clock; SamplesPerSec/TFLOPS stay the ideal fault-free rates,
	// so Goodput < SamplesPerSec measures the resilience tax.
	//
	// Goodput is samples per second over the full resilient wall clock
	// (checkpoint stalls, lost work and recovery included).
	Goodput float64
	// IdealDuration is the fault-free run's wall clock.
	IdealDuration units.Duration
	// Failures counts injected faults that actually hit the run;
	// Recoveries details each one.
	Failures   int
	Recoveries []Recovery
	// Checkpoints is the number of snapshots taken, CheckpointBytes
	// their cumulative payload, and CheckpointTime the cumulative
	// pipeline stall they caused.
	Checkpoints     int
	CheckpointBytes units.Bytes
	CheckpointTime  units.Duration
	// LostWork is the simulated progress discarded across all
	// rollbacks; RecoveryTime the cumulative detection + restore cost.
	LostWork     units.Duration
	RecoveryTime units.Duration
	// SimEvents is the number of discrete-event-simulator events the
	// final execution consumed — a deterministic measure of kernel
	// work, recorded for bench records and planner tuning (divide by
	// the execute stage's real time for events/sec; the rate itself
	// is kept out of the Report so reports stay run-to-run
	// byte-identical). Zero for the analytic ZeRO baselines.
	SimEvents int64
	// EnergyKWh and CostUSD price the whole run across all replicas
	// when Config.Price is set (absent otherwise, and zero on OOM):
	// energy = node draw × wall clock × replicas, cost = node $/hr ×
	// wall hours × replicas. Resilient runs price the full resilient
	// wall clock — checkpoint stalls, lost work and recovery all burn
	// rented watts.
	EnergyKWh float64 `json:",omitempty"`
	CostUSD   float64 `json:",omitempty"`
}

// Failed reports whether the job hit OOM.
func (r *Report) Failed() bool { return r.OOM != nil }

// Job is a validated training job: a defaulted Config plus the
// canonical fingerprints the runner keys caching and deduplication on.
type Job struct {
	// Config is the defaulted, validated configuration.
	Config Config

	fp      string
	planKey string
}

// NewJob validates cfg, fills its defaults and computes the job's
// canonical fingerprint.
func NewJob(cfg Config) (*Job, error) {
	c, err := cfg.WithDefaults()
	if err != nil {
		return nil, err
	}
	j := &Job{Config: c}
	j.fp = digest(canonical(c, true, true))
	if c.System.Planned() {
		j.planKey = digest(canonical(c, false, false))
	}
	return j, nil
}

// Fingerprint canonically identifies the job: two jobs with equal
// fingerprints simulate identically. It doubles as the label recorded
// by plan.Save.
func (j *Job) Fingerprint() string { return j.fp }

// PlanKey identifies the job's compaction plan: the fingerprint minus
// the fields a cached plan is independent of (Minibatches — plans are
// computed on a canonical minibatch count and rebased, see the Plan
// stage — and the cluster: planning is per-replica, so jobs at every
// node count share the single-server plan). Empty for systems that do
// not run the planner.
func (j *Job) PlanKey() string { return j.planKey }

// RouteKey places the job in a planning fleet: the plan key, or the
// fingerprint when the system does not plan. Jobs that differ only in
// plan-invariant fields (minibatch or node count) share one route key,
// so they land on one peer and share its plan cache.
func (j *Job) RouteKey() string {
	if j.planKey != "" {
		return j.planKey
	}
	return j.fp
}

// canonical renders the defaulted config as a stable string. Every
// field that can change the simulation outcome must appear here.
// withCluster selects whether the scale-out dimension participates
// (the fingerprint) or not (the plan key); a 1-node cluster renders
// nothing either way, so it fingerprints identically to the
// single-server job it is.
func canonical(c Config, withMinibatches, withCluster bool) string {
	var b strings.Builder
	b.WriteString(c.Topology.Canonical())
	m := c.Model
	fmt.Fprintf(&b, "model=%s/%v/L%d/H%d/h%d/s%d/v%d/%v;",
		m.Name, m.Arch, m.Layers, m.Hidden, m.Heads, m.SeqLen, m.Vocab, m.DType)
	fmt.Fprintf(&b, "prec=%d/%d/%d;", c.Precision.ParamBytes, c.Precision.GradBytes, c.Precision.OptBytes)
	fmt.Fprintf(&b, "sched=%v;strat=%v;stages=%d;mbs=%d;micro=%d;",
		c.Schedule, c.Strategy, c.Stages, c.MicrobatchSize, c.Microbatches)
	if withMinibatches {
		fmt.Fprintf(&b, "mini=%d;", c.Minibatches)
		// Resilience shapes the outcome but not the plan: faults and
		// checkpoints join the fingerprint only, like Minibatches.
		if c.Resilient() {
			fmt.Fprintf(&b, "%s;%s;", c.Faults.Canonical(), c.Checkpoint.Canonical())
		}
		// Pricing shapes the report, not the simulation; fingerprint
		// only, and only when attached.
		if c.Price != nil {
			fmt.Fprintf(&b, "%s;", c.Price.Canonical())
		}
	}
	fmt.Fprintf(&b, "sys=%d;nomap=%v;nostripe=%v", int(c.System), c.DisableMappingSearch, c.DisableStriping)
	if c.TP() > 1 {
		// The shard grid reshapes the simulated plane, so it keys both
		// the fingerprint and the plan; absent at degree 1 to keep
		// legacy fingerprints stable. The ";cp=1" suffix is a remnant of
		// a retired context-parallel axis, kept verbatim because this
		// string is hashed into fingerprints, plan keys and SavePlan
		// labels: dropping it would orphan every saved TP plan.
		fmt.Fprintf(&b, ";tp=%d;cp=1", c.TP())
	}
	if withCluster && c.Replicas() > 1 {
		f := c.Cluster.Net
		fmt.Fprintf(&b, ";cluster=n%d/nic%d/bw%g/lat%d/buckets%d",
			c.Cluster.Nodes, f.NICs, float64(f.PerNICBW), int64(f.Latency), c.AllReduceBuckets)
	}
	return b.String()
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:16])
}
