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
	"sync"

	"mpress/internal/cluster"
	"mpress/internal/fabric"
	"mpress/internal/graph"
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
	// Overlay is the plan's memory-saving ops over Built's graph (see
	// plan.Apply); a job that plans nothing runs with an empty one.
	Overlay Overlay
	// Mapping assigns each pipeline stage to a GPU. len(Mapping) must
	// equal the stage count and entries must be distinct GPUs.
	Mapping []hw.DeviceID
	// Stripes routes each D2D-swapped tensor's swaps to peer GPUs (see
	// Stripes); swap ops of the tensors it does not route go over PCIe
	// to host memory. Run returns an error for a table whose length is
	// neither zero nor the graph's tensor count, a layout index past
	// Layouts, a route of a Parked tensor, and a part naming no other
	// GPU of the topology or negative bytes.
	Stripes Stripes
	// Parked lists, ascending, the persistent tensors that start in host
	// memory instead of on their GPU (their first use must be preceded
	// by an overlay swap-in). Run returns an error for an ID naming no
	// tensor of the graph or out of order, and ignores a tensor that is
	// not persistent.
	Parked []tensor.ID
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
	// ctx.Err() at the simulator's stride (every 1,024 events) and Run
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

// Overlay is what a plan adds to a lowering, as plain data beside its
// graph, which stays as built (frozen, when shared): the swap-out,
// swap-in, drop and recompute ops and every edge they take part in. Run
// reads the graph's ops, predecessor counts, successor rows and free
// rows as they are, and lays out only the overlay's edges.
type Overlay struct {
	// Ops are numbered after the graph's: Ops[i] has ID Graph.Len()+i.
	// Each acts on its Subject tensor and consumes none, so it frees
	// nothing. Its Name is empty (OpView.Name builds it) and its Deps
	// nil (its edges are in Deps).
	Ops []graph.Op
	// Deps lists each edge once. A recompute re-produces its tensor, so
	// every consumer of the tensor waits for it.
	Deps []Dep
}

// Dep is one edge of an Overlay: op After waits for op Before, and at
// least one of them is an overlay op.
type Dep struct{ After, Before graph.OpID }

// Stripes is a plan's D2D stripe table by tensor ID, the form the
// planner holds it in: tensor t's swap-outs scatter Layouts[Of[t]] to
// peer GPUs and its swap-ins gather them back, and Of[t] == 0 sends its
// swaps over PCIe. Layouts[0] is nil. An empty table routes every swap
// over PCIe. Run reads it in place and never writes it.
type Stripes struct {
	Of      []int32
	Layouts [][]fabric.Part
}

// route returns tensor t's stripes and whether its swaps go to peers.
func (s *Stripes) route(t tensor.ID) ([]fabric.Part, bool) {
	if int(t) >= len(s.Of) || s.Of[t] == 0 {
		return nil, false
	}
	return s.Layouts[s.Of[t]], true
}

// OpView reads a run's ops: the lowering's graph, then the overlay's
// ops numbered after it. Run, trace.Collect and the experiments read
// ops through it.
type OpView struct {
	g       *graph.Graph
	ov      []graph.Op
	stripes Stripes
}

// Ops returns o's op view.
func (o *Options) Ops() OpView { return OpView{o.Built.Graph, o.Overlay.Ops, o.Stripes} }

// Len returns the op count: the graph's plus the overlay's.
func (v OpView) Len() int { return v.g.Len() + len(v.ov) }

// Op returns op id, which the caller must not modify.
func (v OpView) Op(id graph.OpID) *graph.Op {
	if n := graph.OpID(v.g.Len()); id >= n {
		return &v.ov[id-n]
	}
	return v.g.Op(id)
}

// Name returns op id's name. A graph op has its own; an overlay op's is
// built here, from its kind, its tensor's name and, for a swap, its
// route: "d2d" for a tensor striped to peers (Options.Stripes), "h2d"
// otherwise.
func (v OpView) Name(id graph.OpID) string {
	op := v.Op(id)
	if int(id) < v.g.Len() {
		return op.Name
	}
	name := v.g.Tensors.Get(op.Subject).Name
	route := "h2d"
	if _, ok := v.stripes.route(op.Subject); ok {
		route = "d2d"
	}
	switch op.Kind {
	case graph.SwapOut:
		return route + "-swapout:" + name
	case graph.SwapIn:
		return route + "-swapin:" + name
	case graph.Drop:
		return "drop:" + name
	case graph.Recompute:
		return "recompute:" + name
	}
	return op.Name
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
	sim     *sim.Sim
	fab     *fabric.Fabric
	gpus    []*memsim.Device
	host    *memsim.Device
	nvme    *memsim.Device
	pinned  *memsim.PinnedPool
	compute []*sim.Queue

	g   *graph.Graph // the lowering's
	ops OpView
	// *scratch holds the per-run working slices: dependency counts
	// (preds), residency and pinned buffers by tensor (state, pinnedBuf)
	// and the overlay's successor rows.
	*scratch
	frees *pipeline.FreeRows

	spans        []Span
	oom          *memsim.OOMError
	oomResidents map[string]units.Bytes
	samples      []MemSample
	rate         units.FLOPSRate

	// Gradient-synchronization state (only with Options.DataParallel):
	// net runs the all-reduces, bwLeft[s][q] counts stage s's
	// outstanding backward ops for minibatch q, and gradBytes[s] is the
	// stage's persistent gradient footprint (the all-reduce payload).
	net       *cluster.Net
	bwLeft    [][]int
	gradBytes []units.Bytes

	// Resilience state (resilience.go): ckpt is non-nil when periodic
	// checkpointing is on; failure records an injected fault; opsLeft
	// counts graph ops yet to complete so a late FailAt event can tell
	// a live run from a drained one, and Run a finished event loop from
	// a stalled one; lastEnd is the latest real completion time, the
	// run duration when a spurious FailAt event advanced the clock past
	// the last op.
	tpBytes units.Bytes

	ckpt    *ckptState
	failure *Failure
	opsLeft int
	lastEnd sim.Time
}

// scratch is a run's working state, taken from scratchPool the way the
// kernel comes from sim.Get: the planner runs hundreds of emulations per
// plan, and each would otherwise allocate these afresh. It holds only
// pointer-free slices, resized and cleared by length for every run, so
// the pool keeps no caller state. Nothing a Result carries lives here,
// because a Result outlives Run.
type scratch struct {
	preds []int
	state []residency
	// pinnedBuf[t] is the pinned host buffer backing tensor t while it
	// is swapped to host memory.
	pinnedBuf []units.Bytes
	// marks flags GPUs: those hosting a stage while Run checks the
	// mapping, then those whose runtime reserve init has booked.
	marks []bool
	// The overlay's edges in CSR form over every op (see layout): op i
	// waits on pred[predOff[i]:predOff[i+1]] and unblocks
	// succ[succOff[i]:succOff[i+1]], releasing ops first, then the rest,
	// each group ascending. fill is the counting sorts' cursor, and
	// releases[i] marks overlay op i as releasing.
	predOff, succOff, fill []int32
	pred, succ             []graph.OpID
	releases               []bool
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// gpuNames and computeNames name each GPU's memory and compute queue.
var gpuNames, computeNames = fabric.Names{Format: "gpu%d"}, fabric.Names{Format: "gpu%d-compute"}

// resize returns s with length n and every element zero, reusing its
// array when it is large enough.
func resize[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// Run simulates the job and returns its result. Configuration errors
// (bad mapping, mismatched routes), a dependency cycle
// (*graph.CycleError), a cancelled Ctx and a run past the kernel's
// event budget (sim.ErrRunaway) return an error; OOM is reported
// inside the Result, mirroring how a real job fails at runtime.
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
	e := &engine{o: o, g: o.Built.Graph, ops: o.Ops()}
	// Reset the scratch before anything reads it: an OOM while booking
	// the runtime reserve already reports the residents in state.
	e.scratch = scratchPool.Get().(*scratch)
	defer scratchPool.Put(e.scratch)
	e.marks = resize(e.marks, o.Topo.NumGPUs)
	for s, d := range o.Mapping {
		if !d.IsGPU() || int(d) >= o.Topo.NumGPUs {
			return nil, fmt.Errorf("exec: stage %d mapped to %v", s, d)
		}
		if e.marks[d] && !o.AllowSharedDevices {
			return nil, fmt.Errorf("exec: %v hosts two stages", d)
		}
		e.marks[d] = true
	}
	if err := e.checkRoutes(); err != nil {
		return nil, err
	}
	e.state = resize(e.state, e.g.Tensors.Len())
	e.preds = resize(e.preds, e.ops.Len())
	e.pinnedBuf = resize(e.pinnedBuf, e.g.Tensors.Len())
	// The kernel is pooled: the planner emulates hundreds of candidate
	// plans per job, and recycling the event heap and lane timelines
	// spares each run regrowing them. Nothing in a Result aliases sim
	// state (lane sets only feed scalar counters into stats), so the
	// instance can be released as soon as Run returns.
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
		e.gpus[i] = memsim.NewDevice(gpuNames.Of(i, 0), capacity)
		e.compute[i] = sim.NewQueue(e.sim, computeNames.Of(i, 0))
	}
	e.host = memsim.NewDevice("host", o.Topo.HostMemory)
	e.nvme = memsim.NewDevice("nvme", o.Topo.NVMeSize)
	e.pinned = memsim.NewPinnedPool(e.host)

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
		if e.failure == nil && e.oom == nil && e.opsLeft > 0 {
			return nil, e.stalled()
		}
	}
	return e.result(), nil
}

// stalled reports the ops an event loop that drained with no OOM and no
// injected fault left behind: their dependency count never reached
// zero. The dispatch counting is Kahn's algorithm, so they sit on or
// behind a dependency cycle, or behind a data-parallel or checkpoint
// gate that never released.
func (e *engine) stalled() error {
	var left []graph.OpID
	for id, n := range e.preds {
		if n > 0 {
			left = append(left, graph.OpID(id))
		}
	}
	return fmt.Errorf("exec: %w", &graph.CycleError{Remaining: left})
}

// checkRoutes validates Options.Stripes and Parked. The parked list
// must name tensors of the graph, ascending. The stripe table must be
// empty or hold an entry per tensor, and an in-order scan checks each
// routed tensor: its layout index names a layout, it does not start in
// host memory, and each part names a GPU of the topology other than the
// one hosting the tensor, with non-negative bytes. Of several faulty
// routes, the one on the smallest tensor ID is reported.
func (e *engine) checkRoutes() error {
	n, st, parked := e.g.Tensors.Len(), &e.o.Stripes, e.o.Parked
	for i, id := range parked {
		if id < 0 || int(id) >= n {
			return fmt.Errorf("exec: parked tensor %d of a %d-tensor graph", id, n)
		}
		if i > 0 && id <= parked[i-1] {
			return fmt.Errorf("exec: parked tensor %d listed after %d", id, parked[i-1])
		}
	}
	if len(st.Of) != 0 && len(st.Of) != n {
		return fmt.Errorf("exec: stripe table has %d entries for a %d-tensor graph", len(st.Of), n)
	}
	for t, l := range st.Of {
		if l == 0 {
			continue
		}
		id := tensor.ID(t)
		name := e.g.Tensors.Get(id).Name
		if l < 0 || int(l) >= len(st.Layouts) {
			return fmt.Errorf("exec: D2D swap of %s takes layout %d of %d", name, l, len(st.Layouts))
		}
		if e.parked(id) {
			return fmt.Errorf("exec: D2D-swapped tensor %s starts in host memory", name)
		}
		home := e.gpuOf(id)
		for _, p := range st.Layouts[l] {
			if !p.Peer.IsGPU() || int(p.Peer) >= e.o.Topo.NumGPUs || p.Peer == home {
				return fmt.Errorf("exec: D2D swap of %s stripes to %v (tensor on %v, %d GPUs)", name, p.Peer, home, e.o.Topo.NumGPUs)
			}
			if p.Bytes < 0 {
				return fmt.Errorf("exec: D2D swap of %s stripes %d bytes to %v", name, p.Bytes, p.Peer)
			}
		}
	}
	return nil
}

// parked reports whether tensor t starts in host memory (Options.Parked).
func (e *engine) parked(t tensor.ID) bool {
	_, ok := slices.BinarySearch(e.o.Parked, t)
	return ok
}

// init allocates the runtime reserve and persistent state, reporting a
// GPU or host too small for them as OOM, and builds the dependency
// bookkeeping in the pooled scratch. It re-derives nothing the graph
// or its lowering caches: the graph's dependency counts and successor
// rows come from its adjacency, and on a frozen lowering the free rows
// come from the lowering (initFree), with no sort or analysis per run.
// Only the overlay's edges are laid out (layout).
func (e *engine) init() error {
	b := e.o.Built
	// Allocate spans first: a Result carries op-length Spans even when
	// staging below dies of OOM before anything runs.
	e.spans = make([]Span, e.ops.Len())
	e.marks = resize(e.marks, len(e.gpus))
	for _, d := range e.o.Mapping {
		if e.marks[d] {
			continue // co-located stages share one runtime reserve
		}
		e.marks[d] = true
		if err := e.gpus[d].Alloc(pipeline.RuntimeReserve, "runtime reserve"); err != nil {
			e.fail(err.(*memsim.OOMError))
			return nil
		}
	}
	for s, ids := range b.Persistent {
		dev := e.gpus[e.o.Mapping[s]]
		for _, id := range ids {
			tn := e.g.Tensors.Get(id)
			if e.parked(id) {
				buf, err := e.pinned.Get(tn.Size)
				if err != nil {
					// Host capacity failures report as OOM like GPU
					// ones, so planner refinement and degraded-topology
					// replays see them (host-pressure faults squeeze
					// this path).
					e.fail(err.(*memsim.OOMError))
					return nil
				}
				e.pinnedBuf[id] = buf
				e.state[id] = resSwappedHost
				continue
			}
			if err := dev.Alloc(tn.Size, tn.Name); err != nil {
				e.fail(err.(*memsim.OOMError))
				return nil
			}
			e.state[id] = resOnGPU
		}
	}

	if err := e.initFree(); err != nil {
		return err
	}
	for i := range e.g.Len() {
		e.preds[i] = len(e.g.Preds(graph.OpID(i)))
	}
	if err := e.layout(); err != nil {
		return err
	}
	if e.net != nil {
		// Gate every optimizer-step op behind its minibatch's gradient
		// synchronization: one extra pseudo-dependency, released by
		// syncDone when the all-reduce completes. Each minibatch runs
		// one backward op per microbatch on every stage.
		S := b.NumStages()
		e.bwLeft = make([][]int, S)
		e.gradBytes = make([]units.Bytes, S)
		for s := 0; s < S; s++ {
			e.bwLeft[s] = make([]int, b.Cfg.Minibatches)
			for q := range e.bwLeft[s] {
				e.bwLeft[s][q] = b.Cfg.Microbatches
			}
			for _, id := range b.Persistent[s] {
				if tn := e.g.Tensors.Get(id); tn.Class == tensor.Gradient {
					e.gradBytes[s] += tn.Size
				}
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
	e.opsLeft = e.ops.Len()
	return e.initResilience()
}

// layout checks the overlay and adds its edges to the dependency
// counts, laying out its successor rows by two counting sorts in the
// pooled scratch. Each row lists releasing ops (drops, swap-outs)
// first, then the rest, each group ascending, as the graph's own rows
// do. A lowering has no releasing op, so every releasing op is an
// overlay op, and complete, dispatching an op's overlay releasing
// successors, then its graph successors, then its other overlay ones,
// follows the order of one merged row: a completed forward's evictions
// free space before the next slot allocates, matching how the runtime
// issues releases eagerly on the swap streams.
func (e *engine) layout() error {
	base, n := e.g.Len(), e.ops.Len()
	e.releases = resize(e.releases, n-base)
	for i := range e.o.Overlay.Ops {
		op := &e.o.Overlay.Ops[i]
		switch {
		case op.Kind != graph.SwapOut && op.Kind != graph.SwapIn && op.Kind != graph.Drop && op.Kind != graph.Recompute:
			return fmt.Errorf("exec: overlay op %d is a %v", base+i, op.Kind)
		case op.Subject < 0 || int(op.Subject) >= e.g.Tensors.Len():
			return fmt.Errorf("exec: overlay op %d acts on tensor %d of a %d-tensor graph", base+i, op.Subject, e.g.Tensors.Len())
		}
		e.releases[i] = op.Kind.Releases()
	}
	deps := e.o.Overlay.Deps
	e.predOff = resize(e.predOff, n+1)
	e.succOff = resize(e.succOff, n+1)
	for _, d := range deps {
		if d.After < 0 || int(d.After) >= n || d.Before < 0 || int(d.Before) >= n || d.After == d.Before ||
			max(d.After, d.Before) < graph.OpID(base) {
			return fmt.Errorf("exec: overlay dep %d -> %d over %d graph and %d overlay ops", d.Before, d.After, base, n-base)
		}
		e.preds[d.After]++
		e.predOff[d.After+1]++
		e.succOff[d.Before+1]++
	}
	for i := range n {
		e.predOff[i+1] += e.predOff[i]
		e.succOff[i+1] += e.succOff[i]
	}
	e.pred = resize(e.pred, len(deps))
	e.fill = append(e.fill[:0], e.predOff[:n]...)
	for _, d := range deps {
		e.pred[e.fill[d.After]] = d.Before
		e.fill[d.After]++
	}
	e.succ = resize(e.succ, len(deps))
	e.fill = append(e.fill[:0], e.succOff[:n]...)
	place := func(i int) {
		for _, p := range e.pred[e.predOff[i]:e.predOff[i+1]] {
			e.succ[e.fill[p]] = graph.OpID(i)
			e.fill[p]++
		}
	}
	// Only overlay ops release, so the releasing pass walks the
	// overlay alone; the other pass takes the graph's ops that wait on
	// the overlay, then the overlay's other ops.
	for i, rel := range e.releases {
		if rel {
			place(base + i)
		}
	}
	for i := range base {
		if e.predOff[i] != e.predOff[i+1] {
			place(i)
		}
	}
	for i, rel := range e.releases {
		if !rel {
			place(base + i)
		}
	}
	return nil
}

// initFree finds the graph's free rows. A lowering frozen by
// pipeline.Built.Freeze carries them, derived once, which spares every
// emulation a Kahn sort, a liveness analysis and the rows' layout; an
// unfrozen one derives its own, and so reports a cycle here, before
// running. The overlay does not move them: its ops consume no tensor,
// so each tensor keeps its uses, and a lowering chains every multi-use
// tensor's consumers on one stage's schedule (pipeline's
// TestMultiUseTensorsChained), so the last use is the same op in any
// order. Overlay ops, past the rows, free nothing.
func (e *engine) initFree() error {
	if e.frees = e.o.Built.Frees(); e.frees == nil {
		var err error
		if e.frees, err = e.o.Built.DeriveFreeRows(e.g); err != nil {
			return fmt.Errorf("exec: %w", err)
		}
	}
	return nil
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
	op := e.ops.Op(id)
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
		parts, _ := e.o.Stripes.route(op.Subject)
		for _, p := range parts {
			e.gpus[p.Peer].Release(p.Bytes)
		}
		e.state[op.Subject] = resOnGPU
	case evSwapInNVMe:
		e.nvme.Release(e.g.Tensors.Get(op.Subject).Size)
		e.state[op.Subject] = resOnGPU
	case evSwapInHost:
		e.pinned.Put(e.pinnedBuf[op.Subject])
		e.pinnedBuf[op.Subject] = 0
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
	return e.o.Mapping[e.g.Tensors.Get(t).Stage]
}

// dispatch begins executing op: performs its dispatch-time memory
// effects and reserves its resource, scheduling completion.
func (e *engine) dispatch(id graph.OpID) {
	op := e.ops.Op(id)
	now := e.sim.Now()
	switch op.Kind {
	case graph.Forward, graph.Backward, graph.OptimizerStep, graph.Recompute:
		gpu := e.o.Mapping[op.Stage]
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
				if e.o.Built.Persists(out) || e.state[out] == resOnGPU {
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
		src := e.o.Mapping[in.Stage]
		dst := e.o.Mapping[out.Stage]
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
		if parts, ok := e.o.Stripes.route(op.Subject); ok {
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
		if parts, ok := e.o.Stripes.route(op.Subject); ok {
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
	for _, t := range e.frees.Row(id) {
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
	// Only overlay ops release (layout marks them).
	row := e.succ[e.succOff[id]:e.succOff[id+1]]
	base := graph.OpID(e.g.Len())
	i := 0
	for i < len(row) && row[i] >= base && e.releases[row[i]-base] {
		i++
	}
	e.release(row[:i])
	if int(id) < e.g.Len() {
		e.release(e.g.Succs(id))
	}
	e.release(row[i:])
	if e.net != nil {
		if op := e.ops.Op(id); op.Kind == graph.Backward {
			s, q := op.Stage, op.Microbatch/e.o.Built.Cfg.Microbatches
			e.bwLeft[s][q]--
			if e.bwLeft[s][q] == 0 {
				// The all-reduce's token is its (stage, minibatch).
				token := int32(s*e.o.Built.Cfg.Minibatches + q)
				if e.net.AllReduce(token, e.gradBytes[s]) {
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
	e.release(e.o.Built.OptOps[token/m][token%m])
}

// release drops one dependency counted in preds (an op's, or a gate)
// from each op of ids, dispatching those left with none.
func (e *engine) release(ids []graph.OpID) {
	for _, id := range ids {
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
