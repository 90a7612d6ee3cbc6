// Package mpress is a faithful reimplementation of MPress (HPCA 2023):
// a single-server multi-GPU training system that breaks the GPU memory
// wall for billion-scale models by combining inter-operator (pipeline)
// parallelism with three memory-saving mechanisms — a novel D2D swap
// over NVLink to light-loaded peer GPUs, GPU-CPU swap over PCIe, and
// activation recomputation — chosen per tensor by a profile-driven
// planner.
//
// Because this library runs without GPUs, the hardware layer is a
// deterministic discrete-event simulator calibrated to public V100 /
// A100 / NVLink / PCIe specifications; see DESIGN.md for the
// substitution argument. Everything above the device layer — the
// pipeline schedules (PipeDream, DAPPLE, GPipe), the dataflow graph
// and its rewriting, the Fig. 6 device-mapping search, the Sec. III-D
// compaction planner, and the ZeRO-family baselines — is a complete
// implementation of the paper's design.
//
// The entry point is Train:
//
//	report, err := mpress.Train(mpress.Config{
//	    Topology: mpress.DGX1(),
//	    Model:    mpress.MustBert("1.67B"),
//	    Schedule: mpress.PipeDream,
//	    System:   mpress.SystemMPress,
//	})
package mpress

import (
	"mpress/internal/chaos"
	"mpress/internal/ckpt"
	"mpress/internal/cluster"
	"mpress/internal/hw"
	"mpress/internal/memsim"
	"mpress/internal/model"
	"mpress/internal/pipeline"
	"mpress/internal/plan"
	"mpress/internal/runner"
	"mpress/internal/search"
	"mpress/internal/tensor"
	"mpress/internal/units"
)

// Re-exported building blocks, so that downstream users need only
// this package.
type (
	// Topology describes a multi-GPU server (see DGX1/DGX2).
	Topology = hw.Topology
	// Model is a transformer configuration (see MustBert/MustGPT).
	Model = model.Config
	// Schedule selects the pipeline execution order.
	Schedule = pipeline.ScheduleKind
	// Strategy selects the stage-partitioning objective.
	Strategy = pipeline.Strategy
	// Precision is the per-parameter byte accounting.
	Precision = model.Precision
	// Bytes and Duration are the simulator's scalar types.
	Bytes = units.Bytes
	// Duration is simulated time in nanoseconds.
	Duration = units.Duration
	// OOMError reports a simulated out-of-memory failure.
	OOMError = memsim.OOMError
	// Plan is the planner's per-tensor mechanism assignment.
	Plan = plan.Plan
	// Mechanism is one memory-saving technique within a Plan.
	Mechanism = plan.Mechanism
)

// The three memory-saving mechanisms (Plan.SavedByMech keys).
const (
	MechRecompute = plan.MechRecompute
	MechHostSwap  = plan.MechHostSwap
	MechD2D       = plan.MechD2D
)

// Pipeline schedules (paper Fig. 1).
const (
	PipeDream = pipeline.PipeDream
	DAPPLE    = pipeline.DAPPLE
	GPipe     = pipeline.GPipe
)

// Partitioning strategies (paper Sec. II-D).
const (
	ComputeBalanced = pipeline.ComputeBalanced
	MemoryBalanced  = pipeline.MemoryBalanced
)

// Model families and element types, for building custom Models.
const (
	ArchBert = model.Bert
	ArchGPT  = model.GPT
	FP32     = tensor.FP32
	FP16     = tensor.FP16
	BF16     = tensor.BF16
)

// Hardware building blocks for custom topologies.
type (
	// GPUSpec describes one GPU model (memory, peak rates, MFU).
	GPUSpec = hw.GPUSpec
	// DeviceID identifies a GPU (or hw.Host / hw.NVMe).
	DeviceID = hw.DeviceID
)

// Workload generation (the synthetic stand-in for SQuAD/Wikipedia).
type (
	// Workload deterministically generates token batches for a model.
	Workload = model.Workload
	// Batch is one generated microbatch of token sequences.
	Batch = model.Batch
)

// NewWorkload creates a deterministic token-batch generator.
func NewWorkload(cfg Model, batchSize int, seed uint64) (*Workload, error) {
	return model.NewWorkload(cfg, batchSize, seed)
}

// Byte-size units and rate constructors for custom topologies.
const (
	GiB = units.GiB
	MiB = units.MiB
)

// Simulated-time units, for fault models and checkpoint policies.
const (
	Microsecond = units.Microsecond
	Millisecond = units.Millisecond
	Second      = units.Second
)

// GBps and TFLOPS build link bandwidths and compute rates; Gbps is the
// bits-per-second form NIC fabrics are quoted in (Gbps(100) = 12.5
// decimal GB/s).
var (
	GBps   = units.GBps
	Gbps   = units.Gbps
	TFLOPS = units.TFLOPS
)

// Scale-out building blocks (internal/cluster): compose N identical
// servers into a cluster over a modeled NIC fabric and run hybrid
// data+pipeline parallelism by setting Config.Cluster. See "Scaling
// out" in the README.
type (
	// Cluster is N identical servers joined by a Fabric; each node
	// hosts one pipeline replica of the job.
	Cluster = cluster.Cluster
	// Fabric describes the inter-node network (NICs per node, per-NIC
	// bandwidth, latency).
	Fabric = cluster.Fabric
)

// Fabric presets and constructors.
var (
	// NewCluster builds and validates an n-node cluster.
	NewCluster = cluster.New
	// MustCluster is NewCluster panicking on invalid input.
	MustCluster = cluster.MustNew
	// InfiniBand4x100 is the fast preset: 4 x 100 Gbit/s per node.
	InfiniBand4x100 = cluster.InfiniBand4x100
	// Ethernet25G and Ethernet10G are the commodity presets.
	Ethernet25G = cluster.Ethernet25G
	Ethernet10G = cluster.Ethernet10G
	// LookupFabric resolves CLI names ("fast", "slow", "ib-4x100", …).
	LookupFabric = cluster.Fabrics.Lookup
	// FabricNames lists every name LookupFabric accepts, for CLI help.
	FabricNames = cluster.Fabrics.Names
)

// Resilience building blocks (internal/chaos, internal/ckpt): set
// Config.Faults and/or Config.Checkpoint to run a job under a
// deterministic fault schedule with checkpoint/restart and
// degraded-topology re-planning. See "Injecting faults" in the README.
type (
	// Faults is a deterministic fault model: either a seeded
	// exponential schedule (Seed+MTBF) or an explicit Script.
	Faults = chaos.Config
	// Fault is one scheduled hardware fault.
	Fault = chaos.Fault
	// FaultKind enumerates the injectable fault classes.
	FaultKind = chaos.Kind
	// Checkpoint is the snapshot policy; Interval 0 means the
	// Young–Daly optimum derived from Faults.MTBF.
	Checkpoint = ckpt.Policy
	// Recovery records one rollback-replan-resume cycle in a Report.
	Recovery = runner.Recovery
)

// The injectable fault classes.
const (
	GPUFail      = chaos.GPUFail
	NVLinkFail   = chaos.NVLinkFail
	NICFlap      = chaos.NICFlap
	HostPressure = chaos.HostPressure
)

// YoungDaly returns the optimal checkpoint interval sqrt(2*C*MTBF)
// for snapshot cost C and mean time between failures MTBF.
var YoungDaly = ckpt.YoungDaly

// Topology constructors (paper Sec. IV-A testbeds).
var (
	// DGX1 is the 8×V100-32GB asymmetric-NVLink server.
	DGX1 = hw.DGX1
	// DGX1WithNVMe adds the SSD tier used for the Fig. 8a baselines.
	DGX1WithNVMe = hw.DGX1WithNVMe
	// DGX2 is the 8×A100-40GB symmetric (NVSwitch) server with the
	// paper's slow rented SSDs; DGX2FastNVMe has healthy ones.
	DGX2         = hw.DGX2
	DGX2FastNVMe = hw.DGX2FastNVMe
	// GraceHopper is the Sec. V projection platform.
	GraceHopper = hw.GraceHopper
	// LookupTopology resolves CLI names ("dgx1", "grace", "v100", …);
	// unknown names fail listing every valid one.
	LookupTopology = hw.LookupTopology
	// TopologyNames lists every name LookupTopology accepts, for CLI
	// help.
	TopologyNames = hw.Topologies.Names
)

// MustBert returns a paper Bert variant ("0.35B" … "6.2B"), panicking
// on unknown names (use model.BertVariants.Lookup for the error form).
func MustBert(size string) Model { return must(model.BertVariants.Lookup(size)) }

// MustGPT returns a paper GPT variant ("5.3B" … "25.5B").
func MustGPT(size string) Model { return must(model.GPTVariants.Lookup(size)) }

func must(m Model, err error) Model {
	if err != nil {
		panic(err)
	}
	return m
}

// System selects which training system runs the job — the paper's
// evaluation compares exactly these (Figs. 7 and 8).
type System = runner.System

const (
	// SystemPlain is the unmodified pipeline system (PipeDream or
	// DAPPLE per Config.Schedule), no memory saving.
	SystemPlain = runner.SystemPlain
	// SystemGPUCPUSwap enables only PCIe swapping to host memory.
	SystemGPUCPUSwap = runner.SystemGPUCPUSwap
	// SystemRecompute enables only activation recomputation.
	SystemRecompute = runner.SystemRecompute
	// SystemMPressD2D is MPress restricted to D2D swap.
	SystemMPressD2D = runner.SystemMPressD2D
	// SystemMPress is the full system (D2D + GPU-CPU swap +
	// recomputation, with device mapping and data striping).
	SystemMPress = runner.SystemMPress
	// SystemZeRO3, SystemZeROOffload and SystemZeROInfinity are the
	// data-parallel DeepSpeed baselines; Config.Schedule is ignored.
	SystemZeRO3        = runner.SystemZeRO3
	SystemZeROOffload  = runner.SystemZeROOffload
	SystemZeROInfinity = runner.SystemZeROInfinity
)

var (
	// LookupSystem resolves CLI names ("plain", "swap", "mpress", …);
	// unknown names fail listing every valid one.
	LookupSystem = runner.Systems.Lookup
	// SystemNames lists every name LookupSystem accepts, in
	// presentation order, for CLI help.
	SystemNames = runner.Systems.Names
)

// Config describes one training job; Report is its outcome. Both live
// in internal/runner — the facade aliases them so existing callers
// and the Runner API share one set of types.
type (
	Config = runner.Config
	Report = runner.Report
	// Price attaches node economics (watts, $/hr) to a Config; the
	// Report then carries EnergyKWh and CostUSD. Catalog machine types
	// (internal/catalog) are the usual source.
	Price = runner.Price
)

// The Job/Runner layer, for batch workloads: validate Configs into
// Jobs with NewJob, then push them through a Runner's worker pool with
// RunAll. Jobs that share a plan (same point, different Minibatches)
// hit the runner's fingerprint-keyed plan cache instead of
// re-searching, and RunAll lowers each distinct job graph once per
// batch: jobs that lower identically (e.g. the node counts of a
// scale-out sweep) share one frozen lowering, each instrumenting its
// own fork, and the runner drops it when the last job needing it
// finishes. See "Running sweeps in parallel" in the README.
type (
	// Runner executes jobs through a bounded worker pool over a
	// shared, singleflight-deduplicated plan cache and shared frozen
	// lowerings.
	Runner = runner.Runner
	// RunnerOptions configures a Runner (worker count, callbacks).
	RunnerOptions = runner.Options
	// RunnerStats reports a runner's job, plan-cache and lowering
	// counters.
	RunnerStats = runner.Stats
	// Job is a validated Config plus its canonical fingerprint.
	Job = runner.Job
	// JobResult pairs a Job with its Report, error and timings.
	JobResult = runner.JobResult
)

// NewRunner returns a Runner with the given options.
func NewRunner(opts RunnerOptions) *Runner { return runner.New(opts) }

// NewJob validates a Config into a runnable, fingerprinted Job.
func NewJob(cfg Config) (*Job, error) { return runner.NewJob(cfg) }

// The planner-v2 auto-search layer (internal/search): a deterministic
// branch-and-bound over whole training strategies — (system, TP
// degree, stage count, partition, replica count, checkpoint interval)
// — minimizing time-to-fit of the base config's workload. The winner
// is byte-identical at every worker count. See "Auto-search" in the
// README.
type (
	// SearchSpace is the cartesian strategy space to enumerate; empty
	// axes inherit the base config's value.
	SearchSpace = search.Space
	// SearchOptions tunes one search (runner, transposition table).
	SearchOptions = search.Options
	// SearchResult is the canonical search outcome: every candidate,
	// the winner, and the expanded/pruned/memo counters.
	SearchResult = search.Result
	// SearchKey is a strategy's canonical identity after normalization;
	// its String form ("sys=mpress tp=1 …") is what reports print.
	SearchKey = search.Key
	// SearchEval is one transposition-table entry (the strategy's
	// effective training rate, or OOM).
	SearchEval = search.Eval
	// SearchTable is the in-process transposition table; share one
	// (NewSearchTable) across searches to memoize repeated strategies.
	SearchTable = search.MemTable
	// SearchCandidate is one enumerated strategy and what became of it.
	SearchCandidate = search.Candidate
	// SearchOutcome classifies what the searcher did with a candidate.
	SearchOutcome = search.Outcome
)

// Search candidate outcomes.
const (
	SearchEvaluated  = search.OutcomeEvaluated
	SearchMemo       = search.OutcomeMemo
	SearchPruned     = search.OutcomePruned
	SearchSkipped    = search.OutcomeSkipped
	SearchInfeasible = search.OutcomeInfeasible
)

var (
	// AutoSearch runs one whole-strategy search over a space.
	AutoSearch = search.Run
	// DefaultSearchSpace is the space `mpress-plan -auto` searches.
	DefaultSearchSpace = search.DefaultSpace
	// NewSearchTable returns an empty in-process transposition table;
	// share one across searches to memoize repeated strategies.
	NewSearchTable = search.NewMemTable
	// WriteSearchReport renders a result's canonical report.
	WriteSearchReport = search.WriteReport
)

// Train simulates one training job under the configured system and
// returns its report. OOM is reported in the Report (matching how the
// paper's figures show failed runs); errors indicate invalid
// configuration. Each call runs on a fresh single-worker Runner; batch
// workloads should build a shared Runner and use RunAll instead.
func Train(cfg Config) (*Report, error) {
	return runner.Train(cfg)
}

// Demand returns the analytic per-stage memory demand of a job (the
// Table II / Fig. 2 quantity) without running it.
func Demand(cfg Config) ([]Bytes, error) {
	c, err := cfg.WithDefaults()
	if err != nil {
		return nil, err
	}
	part, err := pipeline.PartitionModel(c.Model, c.Stages, c.Strategy, c.Schedule,
		*c.Precision, c.MicrobatchSize, c.Microbatches)
	if err != nil {
		return nil, err
	}
	return pipeline.Demand(c.Model, *c.Precision, part, c.Schedule,
		c.MicrobatchSize, c.Microbatches), nil
}
