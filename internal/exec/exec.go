// Package exec runs a lowered training job (internal/pipeline.Built)
// on a simulated server (internal/hw + internal/fabric): it walks the
// dataflow graph event by event, occupying GPU compute streams and
// interconnect lanes, and accounting every tensor's residency against
// per-GPU memory capacity.
//
// This one component plays two roles from the paper's Fig. 5: it is
// the *emulator* the planner consults for feedback (run one iteration,
// observe memory and time), and the runtime *executor* that triggers
// memory-saving operators (swap-out/in, drop/recompute) in dependency
// order.
package exec

import (
	"context"
	"fmt"
	"slices"

	"mpress/internal/cluster"
	"mpress/internal/fabric"
	"mpress/internal/graph"
	"mpress/internal/grid"
	"mpress/internal/hw"
	"mpress/internal/memsim"
	"mpress/internal/pipeline"
	"mpress/internal/sim"
	"mpress/internal/tensor"
	"mpress/internal/units"
)

// TPSpec activates tensor-parallel modeling: the simulated devices are
// TP-rank-0 representatives of Degree-wide NVLink groups, and every
// Forward/Backward op is extended by its group's ring all-reduce
// (payloads from Built.TPFwAllReduce / TPBwAllReduce, timed by
// cluster.RingAllReduceTime over the group's hop bandwidth).
type TPSpec struct {
	// Degree is the TP group width; nil spec or Degree <= 1 disables
	// every TP code path.
	Degree int
	// HopBW is the NVLink bandwidth of one ring hop inside the group
	// (grid.TPRingBandwidth); Latency the per-step setup cost.
	HopBW   units.Bandwidth
	Latency units.Duration
}

// Options configures one simulated run.
type Options struct {
	Topo  *hw.Topology
	Built *pipeline.Built
	// Mapping assigns each pipeline stage to a GPU. len(Mapping) must
	// equal the stage count and entries must be distinct GPUs.
	Mapping []hw.DeviceID
	// D2DRoutes gives the striping plan for D2D swap operators, keyed
	// by the swap-out AND swap-in op IDs. Swap ops absent from this
	// map are routed over PCIe to host memory. Run returns an error
	// for a key that is not a swap op, a part naming no other GPU of
	// the topology or negative bytes, and a swap pair routed on one op
	// only or with unequal parts.
	D2DRoutes map[graph.OpID][]fabric.Part
	// InitiallySwapped marks persistent tensors that start in host
	// memory instead of on their GPU (their first use must be
	// preceded by an instrumented swap-in).
	InitiallySwapped map[tensor.ID]bool
	// Unbounded disables GPU capacity checks (used by planning passes
	// that need to measure demand beyond capacity).
	Unbounded bool
	// SampleMemory records a per-GPU memory snapshot at every
	// operator completion (the paper's Fig. 1 bottom curves).
	SampleMemory bool
	// AllowSharedDevices permits several stages on one GPU (virtual
	// pipeline stages); they share the GPU's compute stream and
	// memory. Without it, duplicate mapping entries are rejected.
	AllowSharedDevices bool
	// Ctx, when non-nil, cancels the run: the event loop polls
	// ctx.Err() at the simulator's stride (every 8,192 events) and Run
	// returns ctx's error instead of a result, so a cancelled sweep
	// stops mid-simulation instead of finishing a 200M-event run.
	Ctx context.Context
	// Checkpoint, when non-nil, snapshots every stage's weights and
	// optimizer state to the host/NVMe tier at minibatch boundaries,
	// at least Every apart (internal/ckpt picks the interval). The
	// next minibatch's optimizer steps wait for the snapshot to drain.
	Checkpoint *CheckpointSpec
	// FailAt, when positive, injects a hardware fault at that
	// simulated time: the run stops dead and Result.Failure records
	// it. The rollback/re-plan/resume loop lives in internal/runner.
	FailAt units.Duration
	// TP, when non-nil with Degree > 1, appends each stage's
	// per-operator tensor-parallel all-reduces to its compute ops and
	// accounts their NVLink traffic in Result.TPAllReduceBytes.
	TP *TPSpec
	// DataParallel, when non-nil, joins this run to its data-parallel
	// replicas and synchronizes their gradients (see DPSpec).
	DataParallel *DPSpec
}

// DPSpec joins a run to its data-parallel replicas, one per node of
// Cluster. By symmetry every node runs this same replica, so one
// executor plus node 0's NIC model (cluster.Net, on the run's clock)
// reproduces the cluster's timing. Whenever a stage's gradients for
// one minibatch become final (the stage's last backward of that
// minibatch completes), a ring all-reduce of the stage's gradients
// starts. The stage's optimizer-step operators for that minibatch are
// held until it completes, so gradient all-reduce overlaps the
// remaining backward compute and delays only the dependent optimizer
// step.
type DPSpec struct {
	Cluster *cluster.Cluster
	// Buckets is the number of pipelined buckets each all-reduce splits
	// into (values below 1 mean one).
	Buckets int
}

// MemSample is one point of the memory-over-time curve.
type MemSample struct {
	At    sim.Time
	InUse []units.Bytes // per GPU
}

// Span is an operator's simulated execution window.
type Span struct {
	Start sim.Time
	End   sim.Time
}

// Result summarizes one run.
type Result struct {
	// Duration is the simulated wall-clock of the whole run.
	Duration units.Duration
	// OOM is non-nil if the job died of GPU out-of-memory; the rest
	// of the result describes the partial run.
	OOM *memsim.OOMError
	// GPUs holds per-device memory statistics (peak is the key one).
	GPUs []memsim.Stats
	Host memsim.Stats
	// Spans[op] is each operator's execution window (zero if never
	// ran, e.g. after an OOM).
	Spans []Span
	// UsefulFLOPs excludes recomputation; TFLOPS and SamplesPerSec
	// are the paper's two throughput metrics.
	UsefulFLOPs   units.FLOPs
	TFLOPS        float64
	SamplesPerSec float64
	// ComputeBusy is per-GPU compute-stream occupancy.
	ComputeBusy []units.Duration
	// OOMResidents breaks down what occupied the failing device when
	// OOM hit, keyed "stage<N>/<class>" (plus "reserve"); nil when
	// the run succeeded. Sizes include only GPU-resident bytes.
	OOMResidents map[string]units.Bytes
	// Fabric aggregates interconnect traffic; NVMe is the SSD tier's
	// residency (only used when host memory spills over).
	Fabric fabric.Stats
	NVMe   memsim.Stats
	// MemorySamples is the Fig. 1 memory-over-time series (only when
	// Options.SampleMemory is set).
	MemorySamples []MemSample
	// AllReduces counts the gradient all-reduces the run started
	// (Options.DataParallel), and NICBytes is one node's inter-node
	// egress traffic.
	AllReduces int64
	NICBytes   units.Bytes
	// Checkpoints lists completed snapshots (Options.Checkpoint), and
	// CheckpointBytes their cumulative payload.
	Checkpoints     []Checkpoint
	CheckpointBytes units.Bytes
	// Failure is non-nil when Options.FailAt cut the run short; the
	// result then describes the partial run up to the fault.
	Failure *Failure
	// TPAllReduceBytes is the NVLink traffic of tensor-parallel
	// per-operator all-reduces, summed over every TP group member
	// (zero without Options.TP).
	TPAllReduceBytes units.Bytes
	// Events is the number of simulator events the run consumed.
	Events int64
}

// residency tracks where a tensor's bytes currently live.
type residency int

const (
	resUnallocated residency = iota
	resOnGPU
	resSwappedHost
	resSwappedNVMe
	resSwappedPeers
	resDropped
	resFreed
)

type engine struct {
	o       Options
	place   grid.Placement
	sim     *sim.Sim
	fab     *fabric.Fabric
	gpus    []*memsim.Device
	host    *memsim.Device
	nvme    *memsim.Device
	pinned  *memsim.PinnedPool
	compute []*sim.Queue

	g     *graph.Graph
	preds []int
	// The tensors to free after op i completes are
	// free[freeOff[i]:freeOff[i+1]].
	freeOff   []int32
	free      []tensor.ID
	state     []residency
	pinnedBuf map[tensor.ID]units.Bytes // actual pinned buffer backing a host-swapped tensor

	spans        []Span
	oom          *memsim.OOMError
	oomResidents map[string]units.Bytes
	samples      []MemSample
	rate         units.FLOPSRate

	// Gradient-synchronization state (only with Options.DataParallel):
	// net runs the all-reduces, bwOf maps each backward op to its slot,
	// bwLeft[s][q] counts stage s's outstanding backward ops for
	// minibatch q, and gradBytes[s] is the stage's persistent gradient
	// footprint (the all-reduce payload).
	net       *cluster.Net
	bwOf      map[graph.OpID]pipeline.SlotKey
	bwLeft    [][]int
	gradBytes []units.Bytes

	// Resilience state (resilience.go): ckpt is non-nil when periodic
	// checkpointing is on; failure records an injected fault; opsLeft
	// counts graph ops yet to complete so a late FailAt event can tell
	// a live run from a drained one; lastEnd is the latest real
	// completion time, the run duration when a spurious FailAt event
	// advanced the clock past the last op.
	tpBytes units.Bytes

	ckpt    *ckptState
	failure *Failure
	opsLeft int
	lastEnd sim.Time
}

// Run simulates the job and returns its result. Configuration errors
// (bad mapping, mismatched routes), a cancelled Ctx and a run past the
// kernel's event budget (sim.ErrRunaway) return an error; OOM is
// reported inside the Result, mirroring how a real job fails at
// runtime.
//
// The event loop is closure-free: every op that takes simulated time
// books its resource and posts one typed completion event (see handle),
// so running an op allocates nothing. The injected fault, checkpoint
// drains and the gradient all-reduce's ring steps are typed events
// too.
func Run(o Options) (*Result, error) {
	if o.Topo == nil || o.Built == nil {
		return nil, fmt.Errorf("exec: Topo and Built are required")
	}
	S := o.Built.NumStages()
	if len(o.Mapping) != S {
		return nil, fmt.Errorf("exec: mapping has %d entries for %d stages", len(o.Mapping), S)
	}
	seen := make(map[hw.DeviceID]bool)
	for s, d := range o.Mapping {
		if !d.IsGPU() || int(d) >= o.Topo.NumGPUs {
			return nil, fmt.Errorf("exec: stage %d mapped to %v", s, d)
		}
		if seen[d] && !o.AllowSharedDevices {
			return nil, fmt.Errorf("exec: %v hosts two stages", d)
		}
		seen[d] = true
	}

	// The kernel is pooled: the planner emulates hundreds of candidate
	// plans per job, and recycling the event heap and lane timelines
	// spares each run regrowing them. Nothing in a Result aliases sim
	// state (lane sets only feed scalar counters into stats), so the
	// instance can be released as soon as Run returns.
	e := &engine{o: o, place: grid.Flat(o.Mapping), g: o.Built.Graph}
	if err := e.checkRoutes(); err != nil {
		return nil, err
	}
	e.sim = sim.Get()
	defer sim.Put(e.sim)
	e.sim.Handle = e.handle
	e.fab = fabric.New(e.sim, o.Topo)
	e.gpus = make([]*memsim.Device, o.Topo.NumGPUs)
	e.compute = make([]*sim.Queue, o.Topo.NumGPUs)
	capacity := o.Topo.GPU.Memory
	if o.Unbounded {
		capacity = 0
	}
	for i := range e.gpus {
		e.gpus[i] = memsim.NewDevice(fmt.Sprintf("gpu%d", i), capacity)
		e.compute[i] = sim.NewQueue(e.sim, fmt.Sprintf("gpu%d-compute", i))
	}
	e.host = memsim.NewDevice("host", o.Topo.HostMemory)
	e.nvme = memsim.NewDevice("nvme", o.Topo.NVMeSize)
	e.pinned = memsim.NewPinnedPool(e.host)
	e.pinnedBuf = make(map[tensor.ID]units.Bytes)

	e.rate = o.Topo.GPU.EffectiveRate(o.Built.Cfg.Model.DType)

	if ctx := o.Ctx; ctx != nil {
		e.sim.Interrupt = func() bool { return ctx.Err() != nil }
	}
	if dp := o.DataParallel; dp != nil {
		e.net = cluster.NewNet(e.sim, dp.Cluster, dp.Buckets, evRingStep)
	}

	if err := e.init(); err != nil {
		return nil, err
	}
	if e.oom == nil {
		e.start()
		if _, err := e.sim.Run(); err != nil {
			return nil, err
		}
		if e.sim.Interrupted {
			return nil, o.Ctx.Err()
		}
	}
	return e.result(), nil
}

// checkRoutes validates Options.D2DRoutes in time linear in the routes.
// Each key must be a swap-out or swap-in of the graph; each part must
// name a GPU of the topology other than the one hosting the swapped
// tensor, with non-negative bytes; and each routed op's partner must be
// routed with equal parts: a swap-out's swap-in of the same tensor
// among its successors, a swap-in's swap-out among its predecessors. A
// routed swap-in must have such a swap-out, or it would read its tensor
// back from peers that never received it. Of several violations, the
// one on the smallest op ID is reported.
func (e *engine) checkRoutes() error {
	var bad graph.OpID
	var err error
	for id, parts := range e.o.D2DRoutes {
		if err != nil && id > bad {
			continue
		}
		if rerr := e.checkRoute(id, parts); rerr != nil {
			bad, err = id, rerr
		}
	}
	return err
}

// checkRoute checks one D2DRoutes entry (see checkRoutes).
func (e *engine) checkRoute(id graph.OpID, parts []fabric.Part) error {
	if id < 0 || int(id) >= e.g.Len() {
		return fmt.Errorf("exec: D2D route for op %d of a %d-op graph", id, e.g.Len())
	}
	op := e.g.Op(id)
	partners, partner := e.g.Succs(id), graph.SwapIn
	switch op.Kind {
	case graph.SwapOut:
	case graph.SwapIn:
		partners, partner = e.g.Preds(id), graph.SwapOut
	default:
		return fmt.Errorf("exec: D2D route for %v op %s", op.Kind, op.Name)
	}
	home := e.gpuOf(op.Subject)
	for _, p := range parts {
		if !p.Peer.IsGPU() || int(p.Peer) >= e.o.Topo.NumGPUs || p.Peer == home {
			return fmt.Errorf("exec: D2D route of %s stripes to %v (tensor on %v, %d GPUs)", op.Name, p.Peer, home, e.o.Topo.NumGPUs)
		}
		if p.Bytes < 0 {
			return fmt.Errorf("exec: D2D route of %s stripes %d bytes to %v", op.Name, p.Bytes, p.Peer)
		}
	}
	paired := false
	for _, q := range partners {
		if qo := e.g.Op(q); qo.Kind == partner && qo.Subject == op.Subject {
			if other, ok := e.o.D2DRoutes[q]; !ok || !slices.Equal(other, parts) {
				return fmt.Errorf("exec: D2D routes of %s and %s differ", op.Name, qo.Name)
			}
			paired = true
		}
	}
	if op.Kind == graph.SwapIn && !paired {
		return fmt.Errorf("exec: D2D route of %s has no routed swap-out", op.Name)
	}
	return nil
}

// init allocates the runtime reserve and persistent state, and builds
// the dependency bookkeeping. It re-derives nothing the graph caches:
// dependency counts and successor rows come from its adjacency, and on
// a certified fork of a frozen lowering the freeing points come from
// the base's liveness (initFree), with no sort or analysis per run.
func (e *engine) init() error {
	b := e.o.Built
	// Allocate spans first: a Result carries graph-length Spans even
	// when staging below dies of OOM before anything runs.
	e.spans = make([]Span, e.g.Len())
	reserved := make(map[hw.DeviceID]bool)
	for _, d := range e.o.Mapping {
		if reserved[d] {
			continue // co-located stages share one runtime reserve
		}
		reserved[d] = true
		e.gpus[d].MustAlloc(pipeline.RuntimeReserve, "runtime reserve")
	}
	e.state = make([]residency, e.g.Tensors.Len())
	for s, ids := range b.Persistent {
		dev := e.gpus[e.place.GPU(s)]
		for _, id := range ids {
			tn := e.g.Tensors.Get(id)
			if e.o.InitiallySwapped[id] {
				buf, err := e.pinned.Get(tn.Size)
				if err != nil {
					// Host capacity failures report as OOM like GPU
					// ones, so planner refinement and degraded-topology
					// replays see them (host-pressure faults squeeze
					// this path).
					e.oom = err.(*memsim.OOMError)
					e.oomResidents = e.residentsOn(e.oom.Device)
					return nil
				}
				e.pinnedBuf[id] = buf
				e.state[id] = resSwappedHost
				continue
			}
			if err := dev.Alloc(tn.Size, tn.Name); err != nil {
				e.oom = err.(*memsim.OOMError)
				e.oomResidents = e.residentsOn(e.oom.Device)
				return nil
			}
			e.state[id] = resOnGPU
		}
	}

	if err := e.initFree(); err != nil {
		return err
	}
	// The adjacency's successor rows list memory-releasing ops (drops,
	// swap-outs) first, and complete dispatches them in that order: a
	// completed forward's evictions free space before the next slot
	// allocates, matching how the runtime issues releases eagerly on
	// the swap streams.
	n := e.g.Len()
	e.preds = make([]int, n)
	for i := range e.preds {
		e.preds[i] = len(e.g.Preds(graph.OpID(i)))
	}
	if e.net != nil {
		// Gate every optimizer-step op behind its minibatch's gradient
		// synchronization: one extra pseudo-dependency, released by
		// syncDone when the all-reduce completes.
		e.bwOf = make(map[graph.OpID]pipeline.SlotKey, b.NumStages()*b.TotalMicrobatches)
		S := b.NumStages()
		e.bwLeft = make([][]int, S)
		e.gradBytes = make([]units.Bytes, S)
		for s := 0; s < S; s++ {
			e.bwLeft[s] = make([]int, b.Cfg.Minibatches)
			for _, id := range b.Persistent[s] {
				if tn := e.g.Tensors.Get(id); tn.Class == tensor.Gradient {
					e.gradBytes[s] += tn.Size
				}
			}
		}
		for s := 0; s < S; s++ {
			for m := 0; m < b.TotalMicrobatches; m++ {
				key := pipeline.SlotKey{Stage: s, Microbatch: m}
				e.bwOf[b.BwOp(key)] = key
				e.bwLeft[s][m/b.Cfg.Microbatches]++
			}
		}
		for _, perMini := range b.OptOps {
			for _, ops := range perMini {
				for _, id := range ops {
					e.preds[id]++
				}
			}
		}
	}
	e.opsLeft = e.g.Len()
	return e.initResilience()
}

// initFree lays out the freeing points per op, in CSR form with each
// op's tensors ascending. Def ops and uses come from the frozen base
// when Validate certified the graph's overlay against it: the overlay
// then consumes no tensor, so each tensor keeps its base uses, and a
// lowering chains every multi-use tensor's consumers on one stage's
// schedule (pipeline's TestMultiUseTensorsChained), so the last use is
// the same op in any order. That spares every emulation a Kahn sort
// and a liveness analysis of its fork. Any other graph derives them
// from its own order and liveness.
func (e *engine) initFree() error {
	src := e.g
	if e.g.Certified() {
		src = e.g.Base()
	}
	freeAt, err := freePoints(e.o.Built, src)
	if err != nil {
		return fmt.Errorf("exec: %w", err)
	}
	if SpliceCheck != nil && e.g.Base() != nil {
		SpliceCheck(checkSplice(e.o.Built, src != e.g, freeAt))
	}
	n := e.g.Len()
	e.freeOff = make([]int32, n+1)
	for _, at := range freeAt {
		if at >= 0 {
			e.freeOff[at+1]++
		}
	}
	for i := 0; i < n; i++ {
		e.freeOff[i+1] += e.freeOff[i]
	}
	e.free = make([]tensor.ID, e.freeOff[n])
	fill := slices.Clone(e.freeOff[:n])
	for t, at := range freeAt {
		if at >= 0 {
			e.free[fill[at]] = tensor.ID(t)
			fill[at]++
		}
	}
	return nil
}

// freePoints returns, per tensor, the op after which the executor
// frees it, read off g's order and liveness: its last consumer, or its
// producer if nothing consumes it; -1 for persistent tensors, which
// never free, and for tensors nothing defines or uses.
func freePoints(b *pipeline.Built, g *graph.Graph) ([]graph.OpID, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	live, err := g.Liveness()
	if err != nil {
		return nil, err
	}
	freeAt := make([]graph.OpID, len(live.Def))
	for t := range freeAt {
		id := tensor.ID(t)
		freeAt[t] = -1
		switch uses := live.Uses[id]; {
		case b.PersistentSet[id]:
		case len(uses) > 0:
			freeAt[t] = uses[len(uses)-1].Op
		case live.Def[id] >= 0:
			freeAt[t] = order[live.Def[id]]
		}
	}
	return freeAt, nil
}

// SpliceCheck, when non-nil, receives the outcome of every Run on a
// fork of a frozen graph. Tests set it to hold the certified fast path
// to the slow derivation, at the cost of a full Validate, Kahn sort and
// liveness analysis of a copy of the graph per run.
var SpliceCheck func(SpliceOutcome)

// SpliceOutcome compares one run's def ops and free points with the
// ones derived the slow way.
type SpliceOutcome struct {
	// Spliced reports that the run read them off the frozen base.
	Spliced bool
	// Err is the full Validate's error (a cycle, say), or names the
	// first tensor whose def op or free point differs.
	Err error
}

// checkSplice derives b's def ops and free points on an unforked copy of
// its graph, which Validate checks in full, and compares them with the
// run's (read off its base when spliced).
func checkSplice(b *pipeline.Built, spliced bool, freeAt []graph.OpID) SpliceOutcome {
	out := SpliceOutcome{Spliced: spliced}
	src := b.Graph
	if spliced {
		src = src.Base()
	}
	cp := graph.New(b.Graph.Tensors)
	for _, op := range b.Graph.Ops() {
		cp.AddOp(op)
	}
	if out.Err = cp.Validate(); out.Err != nil {
		return out
	}
	want, err := freePoints(b, cp)
	if err != nil {
		out.Err = err
		return out
	}
	defOp := func(g *graph.Graph, t int) graph.OpID {
		order, _ := g.TopoOrder()
		live, _ := g.Liveness()
		if d := live.Def[t]; d >= 0 {
			return order[d]
		}
		return -1
	}
	for t := range want {
		if want[t] != freeAt[t] {
			out.Err = fmt.Errorf("exec: tensor %d frees after op %d, full derivation says %d", t, freeAt[t], want[t])
			return out
		}
		if got, w := defOp(src, t), defOp(cp, t); got != w {
			out.Err = fmt.Errorf("exec: tensor %d defined by op %d, full derivation says %d", t, got, w)
			return out
		}
	}
	return out
}

// start dispatches every dependency-free op at time zero.
func (e *engine) start() {
	for i := range e.preds {
		if e.preds[i] == 0 {
			e.sim.Post(0, sim.Event{Kind: evDispatch, Arg: int32(i)})
		}
	}
}

// The kinds of the typed events the engine posts. Up to evSwapInHost,
// Arg is an op ID: evDispatch starts the op, and every other such kind
// is the completion of an op dispatched at Start, which handle finishes
// at the event's time after the kind's own residency change. The last
// three kinds carry no op.
const (
	evDispatch uint8 = iota
	// evComplete: a compute op, a transfer, or any op with no residency
	// change left to make.
	evComplete
	// evComputeTP: a compute op whose TP all-reduce now runs.
	evComputeTP
	// evSwapOutPeers, evSwapOutNVMe, evSwapOutHost: a swap-out's copy
	// landed on its D2D peers, the SSD tier or host memory.
	evSwapOutPeers
	evSwapOutNVMe
	evSwapOutHost
	// evSwapInPeers, evSwapInNVMe, evSwapInHost: a swap-in's copy is
	// back on its GPU from peers, the SSD tier or host memory.
	evSwapInPeers
	evSwapInNVMe
	evSwapInHost
	// evRingStep: a step of a gradient all-reduce's ring landed; Arg
	// is the Net's, and handle passes the event to cluster.Net.Handle.
	evRingStep
	// evFail: the injected fault (Options.FailAt) fires.
	evFail
	// evDrained: the snapshot taken at minibatch Arg's boundary, which
	// started at Start, is durable.
	evDrained
)

// post schedules op id's completion event of the given kind at end.
func (e *engine) post(kind uint8, id graph.OpID, start, end sim.Time) {
	e.sim.Post(end, sim.Event{Kind: kind, Arg: int32(id), Start: start})
}

// handle runs one typed event (Sim.Handle).
func (e *engine) handle(ev sim.Event) {
	id := graph.OpID(ev.Arg)
	switch ev.Kind {
	case evDispatch:
		e.dispatch(id)
		return
	case evRingStep:
		if token, done := e.net.Handle(ev); done {
			e.syncDone(token)
		}
		return
	case evFail:
		e.failNow()
		return
	case evDrained:
		e.drained(int(ev.Arg), ev.Start)
		return
	}
	op := e.g.Op(id)
	switch ev.Kind {
	case evComputeTP:
		// The op is not done until its TP group's collective drains;
		// downstream consumers (the next stage's transfer, the schedule
		// chain) wait on the reduced tensor, exactly like the compute
		// itself.
		ar, _ := e.tpAllReduce(op)
		e.post(evComplete, id, ev.Start, e.sim.Now()+ar)
		return
	case evSwapOutPeers:
		e.releaseSubject(op.Subject, e.gpuOf(op.Subject), resSwappedPeers)
	case evSwapOutNVMe:
		e.releaseSubject(op.Subject, e.gpuOf(op.Subject), resSwappedNVMe)
	case evSwapOutHost:
		e.releaseSubject(op.Subject, e.gpuOf(op.Subject), resSwappedHost)
	case evSwapInPeers:
		for _, p := range e.o.D2DRoutes[id] {
			e.gpus[p.Peer].Release(p.Bytes)
		}
		e.state[op.Subject] = resOnGPU
	case evSwapInNVMe:
		e.nvme.Release(e.g.Tensors.Get(op.Subject).Size)
		e.state[op.Subject] = resOnGPU
	case evSwapInHost:
		e.pinned.Put(e.pinnedBuf[op.Subject])
		delete(e.pinnedBuf, op.Subject)
		e.state[op.Subject] = resOnGPU
	}
	e.complete(id, ev.Start, e.sim.Now())
}

func (e *engine) fail(oom *memsim.OOMError) {
	if e.oom == nil {
		e.oom = oom
		e.oomResidents = e.residentsOn(oom.Device)
	}
	e.sim.Stop()
}

// residentsOn summarizes the GPU-resident bytes of the named device by
// stage and tensor class, for OOM diagnostics.
func (e *engine) residentsOn(device string) map[string]units.Bytes {
	out := map[string]units.Bytes{"reserve": pipeline.RuntimeReserve}
	for t, st := range e.state {
		if st != resOnGPU {
			continue
		}
		tn := e.g.Tensors.Get(tensor.ID(t))
		if e.gpuOf(tensor.ID(t)).String() != device {
			continue
		}
		out[fmt.Sprintf("stage%d/%s", tn.Stage, tn.Class)] += tn.Size
	}
	// D2D imports land on devices that do not host the tensor's
	// stage; they are visible as the residual against InUse.
	return out
}

// alloc charges size bytes for tensor use on dev, failing the run on
// OOM. It reports whether the allocation succeeded.
func (e *engine) alloc(dev hw.DeviceID, size units.Bytes, what string) bool {
	if err := e.gpus[dev].Alloc(size, what); err != nil {
		e.fail(err.(*memsim.OOMError))
		return false
	}
	return true
}

// gpuOf returns the device hosting a tensor.
func (e *engine) gpuOf(t tensor.ID) hw.DeviceID {
	return e.place.GPU(e.g.Tensors.Get(t).Stage)
}

// dispatch begins executing op: performs its dispatch-time memory
// effects and reserves its resource, scheduling completion.
func (e *engine) dispatch(id graph.OpID) {
	op := e.g.Op(id)
	now := e.sim.Now()
	switch op.Kind {
	case graph.Forward, graph.Backward, graph.OptimizerStep, graph.Recompute:
		gpu := e.place.GPU(op.Stage)
		if op.Kind == graph.Recompute {
			// Rematerialize the dropped activation.
			if e.state[op.Subject] != resDropped {
				panic(fmt.Sprintf("exec: recompute of %s in state %d",
					e.g.Tensors.Get(op.Subject).Name, e.state[op.Subject]))
			}
			if !e.alloc(gpu, e.g.Tensors.Get(op.Subject).Size, e.g.Tensors.Get(op.Subject).Name) {
				return
			}
			e.state[op.Subject] = resOnGPU
		} else {
			for _, out := range op.Outputs {
				tn := e.g.Tensors.Get(out)
				if e.o.Built.PersistentSet[out] || e.state[out] == resOnGPU {
					continue
				}
				if !e.alloc(gpu, tn.Size, tn.Name) {
					return
				}
				e.state[out] = resOnGPU
			}
		}
		dur := e.rate.ComputeTime(op.FLOPs)
		if op.Kind == graph.OptimizerStep {
			dur = e.o.Topo.GPU.HBM.TransferTime(op.MoveBytes)
		}
		kind := evComplete
		ar, bytes := e.tpAllReduce(op)
		e.tpBytes += bytes
		if ar > 0 {
			kind = evComputeTP
		}
		start, end := e.compute[gpu].Book(dur)
		e.post(kind, id, start, end)

	case graph.Transfer:
		in := e.g.Tensors.Get(op.Inputs[0])
		out := e.g.Tensors.Get(op.Outputs[0])
		src := e.place.GPU(in.Stage)
		dst := e.place.GPU(out.Stage)
		if !e.alloc(dst, out.Size, out.Name) {
			return
		}
		e.state[op.Outputs[0]] = resOnGPU
		if src == dst {
			// Co-located virtual stages hand off through device
			// memory at HBM speed.
			e.post(evComplete, id, now, now+e.o.Topo.GPU.HBM.TransferTime(op.MoveBytes))
			return
		}
		start, end := e.fab.P2P(src, dst, op.MoveBytes, 0)
		e.post(evComplete, id, start, end)

	case graph.SwapOut:
		gpu := e.gpuOf(op.Subject)
		size := e.g.Tensors.Get(op.Subject).Size
		if parts, ok := e.o.D2DRoutes[id]; ok {
			name := e.g.Tensors.Get(op.Subject).Name
			for _, p := range parts {
				// The stripe's OOM label is built only when it fails.
				if err := e.gpus[p.Peer].Alloc(p.Bytes, name); err != nil {
					oom := err.(*memsim.OOMError)
					oom.What = "d2d import:" + name
					e.fail(oom)
					return
				}
			}
			start, end := e.fab.Scatter(gpu, parts)
			e.post(evSwapOutPeers, id, start, end)
			return
		}
		buf, err := e.pinned.Get(size)
		if err != nil {
			// Host memory exhausted: spill to the NVMe tier if the
			// server has one (the paper notes GPU-CPU swap extends to
			// "storage devices like NVMe SSDs").
			if e.fab.HasNVMe() {
				if nerr := e.nvme.Alloc(size, e.g.Tensors.Get(op.Subject).Name); nerr != nil {
					e.fail(nerr.(*memsim.OOMError))
					return
				}
				// Stage over PCIe and stream onto the SSDs; the two
				// legs pipeline, so the slower one bounds completion.
				start, e1 := e.fab.HostLink(gpu, size, true)
				_, e2 := e.fab.NVMeXfer(size)
				e.post(evSwapOutNVMe, id, start, max(e1, e2))
				return
			}
			e.fail(&memsim.OOMError{Device: "host", Requested: size, InUse: e.host.InUse(), Capacity: e.host.Capacity(), What: "pinned swap buffer"})
			return
		}
		e.pinnedBuf[op.Subject] = buf
		start, end := e.fab.HostLink(gpu, size, true)
		e.post(evSwapOutHost, id, start, end)

	case graph.SwapIn:
		gpu := e.gpuOf(op.Subject)
		tn := e.g.Tensors.Get(op.Subject)
		if !e.alloc(gpu, tn.Size, tn.Name) {
			return
		}
		if parts, ok := e.o.D2DRoutes[id]; ok {
			if e.state[op.Subject] != resSwappedPeers {
				panic(fmt.Sprintf("exec: d2d swap-in of %s in state %d", tn.Name, e.state[op.Subject]))
			}
			start, end := e.fab.Gather(gpu, parts)
			e.post(evSwapInPeers, id, start, end)
			return
		}
		if e.state[op.Subject] == resSwappedNVMe {
			// Read back through the SSD tier and PCIe.
			start, _ := e.fab.NVMeXfer(tn.Size)
			_, end := e.fab.HostLink(gpu, tn.Size, false)
			e.post(evSwapInNVMe, id, start, end)
			return
		}
		if e.state[op.Subject] != resSwappedHost {
			panic(fmt.Sprintf("exec: host swap-in of %s in state %d", tn.Name, e.state[op.Subject]))
		}
		start, end := e.fab.HostLink(gpu, tn.Size, false)
		e.post(evSwapInHost, id, start, end)

	case graph.Drop:
		gpu := e.gpuOf(op.Subject)
		e.releaseSubject(op.Subject, gpu, resDropped)
		e.complete(id, now, now)

	default:
		panic(fmt.Sprintf("exec: unhandled op kind %v", op.Kind))
	}
}

// tpAllReduce returns the ring time of the tensor-parallel all-reduce
// appended to op — zero without TP or for op kinds that run no
// collective — and its group-wide NVLink traffic: each of the Degree
// members moves 2(Degree-1)/Degree × payload, so the group total is
// 2(Degree-1) × payload, charged once since the one simulated device
// stands in for the whole group.
func (e *engine) tpAllReduce(op *graph.Op) (units.Duration, units.Bytes) {
	tp := e.o.TP
	if tp == nil || tp.Degree <= 1 {
		return 0, 0
	}
	var payload units.Bytes
	switch op.Kind {
	case graph.Forward:
		payload = e.o.Built.TPFwAllReduce[op.Stage]
	case graph.Backward:
		payload = e.o.Built.TPBwAllReduce[op.Stage]
	default:
		return 0, 0
	}
	if payload <= 0 {
		return 0, 0
	}
	return cluster.RingAllReduceTime(tp.Degree, payload, tp.HopBW, tp.Latency),
		units.Bytes(2*(tp.Degree-1)) * payload
}

// releaseSubject returns a swapped/dropped tensor's GPU bytes.
func (e *engine) releaseSubject(t tensor.ID, gpu hw.DeviceID, to residency) {
	if e.state[t] != resOnGPU {
		panic(fmt.Sprintf("exec: releasing %s in state %d", e.g.Tensors.Get(t).Name, e.state[t]))
	}
	e.gpus[gpu].Release(e.g.Tensors.Get(t).Size)
	e.state[t] = to
}

// complete finishes op: frees dead tensors and unblocks successors.
func (e *engine) complete(id graph.OpID, start, end sim.Time) {
	e.spans[id] = Span{Start: start, End: end}
	e.opsLeft--
	if end > e.lastEnd {
		e.lastEnd = end
	}
	for _, t := range e.free[e.freeOff[id]:e.freeOff[id+1]] {
		if e.state[t] == resOnGPU {
			e.gpus[e.gpuOf(t)].Release(e.g.Tensors.Get(t).Size)
			e.state[t] = resFreed
		}
	}
	if e.o.SampleMemory {
		snap := make([]units.Bytes, len(e.gpus))
		for i, d := range e.gpus {
			snap[i] = d.InUse()
		}
		e.samples = append(e.samples, MemSample{At: end, InUse: snap})
	}
	for _, s := range e.g.Succs(id) {
		e.preds[s]--
		if e.preds[s] == 0 {
			e.dispatch(s)
		}
	}
	if e.net != nil {
		if key, ok := e.bwOf[id]; ok {
			q := key.Microbatch / e.o.Built.Cfg.Microbatches
			e.bwLeft[key.Stage][q]--
			if e.bwLeft[key.Stage][q] == 0 {
				// The all-reduce's token is its (stage, minibatch).
				token := int32(key.Stage*e.o.Built.Cfg.Minibatches + q)
				if e.net.AllReduce(token, e.gradBytes[key.Stage]) {
					e.syncDone(token)
				}
			}
		}
	}
	if c := e.ckpt; c != nil {
		if q, ok := c.optMini[id]; ok {
			c.optLeft[q]--
			if c.optLeft[q] == 0 {
				e.boundary(q)
			}
		}
	}
}

// syncDone releases the optimizer-step ops of the (stage, minibatch)
// that token names once their gradients have been synchronized across
// replicas.
func (e *engine) syncDone(token int32) {
	m := int32(e.o.Built.Cfg.Minibatches)
	for _, id := range e.o.Built.OptOps[token/m][token%m] {
		e.preds[id]--
		if e.preds[id] == 0 {
			e.dispatch(id)
		}
	}
}

func (e *engine) result() *Result {
	r := &Result{
		Duration:     e.sim.Now(),
		OOM:          e.oom,
		OOMResidents: e.oomResidents,
		Spans:        e.spans,
		UsefulFLOPs:  e.o.Built.UsefulFLOPs,
		Failure:      e.failure,
	}
	if e.failure == nil && e.o.FailAt > 0 {
		// The fault event fired after the graph drained (or never will
		// have a chance to): the clock may sit at FailAt, but the run
		// really ended at the last op completion.
		r.Duration = e.lastEnd
	}
	if c := e.ckpt; c != nil {
		r.Checkpoints = c.records
		for _, rec := range c.records {
			r.CheckpointBytes += rec.Bytes
		}
	}
	for _, d := range e.gpus {
		r.GPUs = append(r.GPUs, d.Stats())
	}
	r.TPAllReduceBytes = e.tpBytes
	if e.net != nil {
		st := e.net.Stats()
		r.AllReduces, r.NICBytes = st.AllReduces, st.EgressBytes
	}
	r.Host = e.host.Stats()
	r.NVMe = e.nvme.Stats()
	r.Fabric = e.fab.Stats()
	r.MemorySamples = e.samples
	for _, q := range e.compute {
		r.ComputeBusy = append(r.ComputeBusy, q.BusyTime())
	}
	if e.oom == nil && e.failure == nil && r.Duration > 0 {
		secs := r.Duration.Secondsf()
		r.TFLOPS = r.UsefulFLOPs.TFLOPs() / secs
		r.SamplesPerSec = float64(e.o.Built.SamplesProcessed()) / secs
	}
	r.Events = e.sim.Executed()
	return r
}

// IdentityMapping returns the default stage→GPU assignment 0..n-1.
func IdentityMapping(n int) []hw.DeviceID {
	m := make([]hw.DeviceID, n)
	for i := range m {
		m[i] = hw.DeviceID(i)
	}
	return m
}
