// Package plan implements MPress Static's planner (paper Fig. 5 and
// Sec. III-D): decide, for every memory-resident tensor of an
// inter-operator training job, whether to leave it resident, drop and
// recompute it, swap it to host memory over PCIe, or D2D-swap it to a
// light-loaded peer GPU over NVLink — so that every stage fits its GPU
// while the extra delay is minimized.
//
// The algorithm follows the paper's approximated search:
//
//  1. Profile one iteration (live intervals, per-stage peaks).
//  2. Run the Fig. 6 device-mapping search to place overflowing
//     stages next to spare NVLink neighbors.
//  3. Initial assignment: host-swap the extremely long-lived tensors
//     (optimizer states, stashed weight versions), then walk each
//     overflowing stage's blocks from the last layer backwards
//     assigning recomputation where its cost beats the GPU-CPU swap
//     overhead, host-swap otherwise, until the estimated savings cover
//     the overflow.
//  4. Refinement: emulate; on OOM raise the target and retry; then
//     greedily convert the worst-overhead assignments to D2D swap
//     while spare GPU memory lasts, keeping each conversion only if
//     the emulator reports an improvement.
//
// Refinement candidates are evaluated on copy-on-write trial snapshots
// (see refine.go), which lets Options.Workers emulate several
// candidates concurrently while producing byte-identical plans at any
// worker count.
package plan

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"mpress/internal/compaction"
	"mpress/internal/exec"
	"mpress/internal/fabric"
	"mpress/internal/graph"
	"mpress/internal/grid"
	"mpress/internal/hw"
	"mpress/internal/mapping"
	"mpress/internal/pipeline"
	"mpress/internal/profiler"
	"mpress/internal/tensor"
	"mpress/internal/units"
)

// Mechanism is one memory-saving technique.
type Mechanism int

const (
	MechNone Mechanism = iota
	MechRecompute
	MechHostSwap
	MechD2D
)

// String returns the mechanism name as used in the paper's tables.
func (m Mechanism) String() string {
	switch m {
	case MechNone:
		return "none"
	case MechRecompute:
		return "Recomputation"
	case MechHostSwap:
		return "GPU-CPU swap"
	case MechD2D:
		return "D2D swap"
	default:
		return fmt.Sprintf("Mechanism(%d)", int(m))
	}
}

// Allowed selects which mechanisms the planner may use — the paper's
// baselines are MPress with subsets disabled.
type Allowed struct {
	Recompute bool
	HostSwap  bool
	D2D       bool
}

// AllMechanisms enables everything (full MPress).
func AllMechanisms() Allowed { return Allowed{Recompute: true, HostSwap: true, D2D: true} }

const (
	// safetyMargin widens each stage's savings target to absorb the
	// timing shifts instrumentation itself introduces.
	safetyMargin = 512 * units.MiB
	// maxRefinements bounds the emulator-feedback loop: both the OOM
	// retries of the initial assignment and the D2D refinement rounds.
	maxRefinements = 6
)

// Options configures the planner.
type Options struct {
	Topo *hw.Topology
	// Build returns the job's uninstrumented lowering: a fresh one, or
	// a frozen one shared with other goroutines (the runner hands out
	// one frozen lowering per distinct BuildConfig). Compute calls it
	// exactly once and freezes the result (graph.Graph.Freeze, a no-op
	// on a frozen graph), then only reads it; every emulation
	// instruments a pipeline.Built.Fork of that base. Build must not
	// hand out a Built its caller later mutates.
	Build   func() (*pipeline.Built, error)
	Allowed Allowed
	// DisableMappingSearch keeps the identity stage→GPU mapping
	// (Fig. 9's "default setting" ablation).
	DisableMappingSearch bool
	// DisableStriping routes every D2D swap to a single peer instead
	// of striping across all reachable ones (Fig. 9 ablation).
	DisableStriping bool
	// Workers bounds how many refinement candidates are emulated
	// concurrently (a worker pool over copy-on-write trial snapshots;
	// see refine.go). Plans are byte-identical at any setting — each
	// round's winner is the first improving candidate in rank order,
	// not completion order. Zero or one means sequential.
	Workers int
	// Ctx, when non-nil, cancels planning: each emulator run polls it
	// (see exec.Options.Ctx), so a cancelled sweep abandons the
	// refinement loop mid-emulation.
	Ctx context.Context
}

// groupKey identifies a per-(stage, block) activation group.
type groupKey struct {
	Stage int
	Block int
}

// Plan is the planner's output, applicable to any uninstrumented Built
// (or fork of one) of the same job.
type Plan struct {
	Mapping []hw.DeviceID
	// Act assigns a mechanism to individual activation tensors.
	Act map[tensor.ID]Mechanism
	// Parts carries the D2D stripe layout per D2D-swapped tensor.
	Parts map[tensor.ID][]fabric.Part
	// HostPersist marks persistent tensors parked in host memory and
	// restored around their uses.
	HostPersist map[tensor.ID]bool

	// SavedByMech estimates bytes of GPU memory saved per mechanism
	// (the Table IV breakdown); StageRange gives the lowest/highest
	// stage each mechanism was applied to ([2]int{-1,-1} if unused).
	SavedByMech map[Mechanism]units.Bytes
	StageRange  map[Mechanism][2]int

	// Emulations counts the emulator arbitrations planning consumed;
	// every arbitration is one emulation, and lower-bound prunes are
	// not charged. The count is defined by the sequential candidate
	// scan — a parallel refinement (Options.Workers > 1) charges
	// exactly the arbitrations the sequential scan would have reached —
	// so it is identical at any worker setting (plans are serialized
	// byte-for-byte, and this field rides along).
	Emulations int
	Baseline   units.Duration
	Planned    units.Duration
}

// Device returns the plane GPU hosting stage s — the grid.Placement
// view over the serialized Mapping slice, which stays the wire format.
func (pl *Plan) Device(s int) hw.DeviceID {
	return grid.Flat(pl.Mapping).GPU(s)
}

// planner carries the working state of one Compute call.
type planner struct {
	o       Options
	built   *pipeline.Built // the one frozen base lowering (never instrumented)
	profile *profiler.Profile
	mapRes  *mapping.Result
	spare   compaction.SpareBudget

	// groups indexes each (stage, block) activation group's instances
	// in microbatch order — precomputed once so the refinement loop's
	// candidate enumeration does not rescan the build's activations.
	groups     map[groupKey][]tensor.ID
	inUse      map[groupKey]Mechanism
	plan       *Plan
	targets    []units.Bytes // per-stage savings targets
	emulations int
}

// Compute runs the planner.
func Compute(o Options) (*Plan, error) {
	if o.Topo == nil || o.Build == nil {
		return nil, fmt.Errorf("plan: Topo and Build are required")
	}

	p := &planner{o: o}
	var err error
	if p.built, err = o.Build(); err != nil {
		return nil, err
	}
	// Lower once, emulate many: the base is frozen with its order,
	// adjacency and liveness computed, and each emulation forks it.
	if err = p.built.Graph.Freeze(); err != nil {
		return nil, err
	}
	if p.profile, err = profiler.Collect(o.Topo, p.built, nil); err != nil {
		return nil, err
	}

	// Step 2: device mapping (Fig. 6).
	search := mapping.Search
	if o.DisableMappingSearch || o.Topo.Switched {
		search = mapping.Identity
	}
	if p.mapRes, err = search(o.Topo, p.profile.StagePeak); err != nil {
		return nil, err
	}

	// Walking tensors in ID order keeps each group's instances sorted.
	p.groups = make(map[groupKey][]tensor.ID)
	for t := 0; t < p.built.Graph.Tensors.Len(); t++ {
		id := tensor.ID(t)
		k, ok := p.built.ActSlot(id)
		if _, recomputable := p.built.RecomputeFLOPs(id); !ok || !recomputable {
			continue
		}
		key := groupKey{k.Stage, p.built.Graph.Tensors.Get(id).Layer}
		p.groups[key] = append(p.groups[key], id)
	}

	// Per-stage savings targets.
	p.targets = make([]units.Bytes, p.built.NumStages())
	for s, peak := range p.profile.StagePeak {
		if peak > o.Topo.GPU.Memory {
			p.targets[s] = peak - o.Topo.GPU.Memory + safetyMargin
		}
	}

	// Steps 3-4 with OOM-retry.
	res, err := p.assignAndRefine()
	if err != nil {
		return nil, err
	}
	p.plan.Baseline = p.profile.Duration
	p.plan.Planned = res
	p.plan.Emulations = p.emulations
	p.finalizeSummary()
	return p.plan, nil
}

// finalizeSummary computes SavedByMech and StageRange once, from the
// final per-tensor assignment (partial D2D conversions and refinement
// undos make per-step counting unreliable).
func (p *planner) finalizeSummary() {
	p.plan.SavedByMech = make(map[Mechanism]units.Bytes)
	p.plan.StageRange = map[Mechanism][2]int{
		MechRecompute: {-1, -1}, MechHostSwap: {-1, -1}, MechD2D: {-1, -1},
	}
	b := p.built
	S := b.NumStages()
	for id, mech := range p.plan.Act {
		if mech == MechNone {
			continue
		}
		tn := b.Graph.Tensors.Get(id)
		inflight := b.Cfg.Kind.InFlight(tn.Stage, S, b.Cfg.Microbatches)
		// A group of instances (one per microbatch) jointly reduces
		// the stage's steady residency by size×(inflight-1); divide
		// across the instances so per-tensor sums stay meaningful.
		instances := b.Cfg.Microbatches * b.Cfg.Minibatches
		saved := tn.Size * units.Bytes(inflight-1) / units.Bytes(instances)
		if saved <= 0 {
			saved = tn.Size / units.Bytes(2*instances)
		}
		p.note(mech, tn.Stage, saved)
	}
	for id := range p.plan.HostPersist {
		tn := b.Graph.Tensors.Get(id)
		p.note(MechHostSwap, tn.Stage, tn.Size)
	}
}

// newPlan resets the working plan.
func (p *planner) newPlan() {
	p.plan = &Plan{
		Mapping:     p.mapRes.Mapping,
		Act:         make(map[tensor.ID]Mechanism),
		Parts:       make(map[tensor.ID][]fabric.Part),
		HostPersist: make(map[tensor.ID]bool),
	}
	p.inUse = make(map[groupKey]Mechanism)
	p.spare = compaction.SpareBudget(p.mapRes.Spare).Clone()
}

// note adds one tensor's saving to the summary maps.
func (p *planner) note(mech Mechanism, stage int, saved units.Bytes) {
	p.plan.SavedByMech[mech] += saved
	r := p.plan.StageRange[mech]
	if r[0] == -1 || stage < r[0] {
		r[0] = stage
	}
	if stage > r[1] {
		r[1] = stage
	}
	p.plan.StageRange[mech] = r
}

// assignAndRefine builds the initial assignment and runs the
// emulator-feedback loop, retrying with larger targets on OOM.
func (p *planner) assignAndRefine() (units.Duration, error) {
	var lastDur units.Duration
	for attempt := 0; ; attempt++ {
		p.newPlan()
		if err := p.initialAssignment(); err != nil {
			return 0, err
		}
		res, err := p.emulate(p.plan)
		if err != nil {
			return 0, err
		}
		if res.OOM == nil {
			lastDur = res.Duration
			break
		}
		if attempt >= maxRefinements {
			// Let the caller see the OOM through a final Apply/Run;
			// planning cannot satisfy the job (e.g. D2D-only on a
			// model whose overflow exceeds all spare memory).
			return 0, nil
		}
		// Raise the failing stage's target by the observed deficit.
		g := res.OOM.Device
		var stage = -1
		for s, dev := range p.plan.Mapping {
			if fmt.Sprintf("gpu%d", dev) == g {
				stage = s
				break
			}
		}
		if stage < 0 {
			if !strings.HasPrefix(g, "gpu") {
				// A storage tier (host, NVMe) is exhausted: there is
				// no GPU target to raise, so refinement cannot help.
				// Let the caller see the OOM through a final
				// Apply/Run, like an unsatisfiable job.
				return 0, nil
			}
			return 0, fmt.Errorf("plan: OOM on unmapped device %s", g)
		}
		p.targets[stage] += res.OOM.Requested + 256*units.MiB
	}

	if p.o.Allowed.D2D && (p.o.Allowed.Recompute || p.o.Allowed.HostSwap) {
		d, err := p.refineWithD2D(lastDur)
		if err != nil {
			return 0, err
		}
		lastDur = d
	}
	return lastDur, nil
}

// initialAssignment implements step 3.
func (p *planner) initialAssignment() error {
	b := p.built
	S := b.NumStages()
	kind := b.Cfg.Kind
	rate := p.o.Topo.GPU.EffectiveRate(p.built.Cfg.Model.DType)

	for s := 0; s < S; s++ {
		need := p.targets[s]
		if need <= 0 {
			continue
		}
		// 3a: extremely long-lived persistent tensors first — but only
		// as much as the optimizer window can drain over PCIe. Parking
		// beyond that budget serializes the optimizer step behind the
		// link and costs more than it saves (on fast-compute jobs the
		// paper's Table IV shows GPU-CPU swap contributing only a few
		// percent for exactly this reason).
		if p.o.Allowed.HostSwap {
			parkBudget := p.parkBudget(s)
			for _, id := range b.Persistent[s] {
				if need <= 0 || parkBudget <= 0 {
					break
				}
				tn := b.Graph.Tensors.Get(id)
				if !hostPersistEligible(tn, p.profile) || tn.Size > parkBudget {
					continue
				}
				p.plan.HostPersist[id] = true
				need -= tn.Size
				parkBudget -= tn.Size
			}
		}
		if need <= 0 {
			continue
		}

		// 3b: activation block groups, last block of the stage first
		// (recompute later layers preferentially, in consecutive runs).
		// GPU-CPU swap is only chosen while the stage's PCIe budget —
		// the bytes one compute slot can drain concurrently with the
		// rest of the stage's traffic — lasts; beyond it, swapping
		// would stall the pipeline and recomputation wins.
		blocks := b.Cfg.Part.Stages[s].Blocks()
		inflight := kind.InFlight(s, S, b.Cfg.Microbatches)
		pcieBudget := units.Bytes(float64(p.o.Topo.PCIeBW) * p.profile.SlotDuration[s].Secondsf() * 0.5)
		for i := len(blocks) - 1; i >= 0 && need > 0; i-- {
			blk := blocks[i]
			mech := p.chooseGroupMech(s, blk, rate)
			if mech == MechNone {
				continue
			}
			if mech == MechHostSwap {
				size := p.groupSize(s, blk)
				if size > pcieBudget {
					if p.o.Allowed.Recompute {
						mech = MechRecompute
					}
				} else {
					pcieBudget -= size
				}
			}
			saved := p.applyGroup(s, blk, mech, inflight)
			need -= saved
		}
		// 3c: if recomputation alone could not cover it, host-swap the
		// remaining long-lived activations of the earliest microbatches.
		if need > 0 && p.o.Allowed.HostSwap {
			for i := len(blocks) - 1; i >= 0 && need > 0; i-- {
				blk := blocks[i]
				if p.inUse[groupKey{s, blk}] == MechRecompute {
					continue
				}
				saved := p.applyGroup(s, blk, MechHostSwap, inflight)
				need -= saved
			}
		}
		// 3d: D2D-only mode (or final shortfall): send groups to peers.
		if need > 0 && p.o.Allowed.D2D {
			for i := len(blocks) - 1; i >= 0 && need > 0; i-- {
				blk := blocks[i]
				if p.inUse[groupKey{s, blk}] != MechNone {
					continue
				}
				saved := p.applyGroupD2D(s, blk)
				need -= saved
			}
		}
		// 3e: last resort — park the remaining eligible persistent
		// tensors past the PCIe budget; slow, but the alternative is
		// certain OOM.
		if need > 0 && p.o.Allowed.HostSwap {
			for _, id := range b.Persistent[s] {
				if need <= 0 {
					break
				}
				tn := b.Graph.Tensors.Get(id)
				if p.plan.HostPersist[id] || !hostPersistEligible(tn, p.profile) {
					continue
				}
				p.plan.HostPersist[id] = true
				need -= tn.Size
			}
		}
	}
	return nil
}

// parkBudget returns how many persistent bytes stage s can round-trip
// over PCIe inside the optimizer step's idle window without extending
// the iteration: half the bytes the window can move (out and back).
func (p *planner) parkBudget(s int) units.Bytes {
	// The optimizer window is the gap between a stage's consecutive
	// optimizer uses — approximate it with the stage's share of the
	// profiled iteration per minibatch.
	gap := p.profile.Duration / units.Duration(p.built.Cfg.Minibatches)
	return units.Bytes(float64(p.o.Topo.PCIeBW) * gap.Secondsf() / 2)
}

// hostPersistEligible accepts persistent tensors whose every use gap
// is long (optimizer states, stashed versions) — never gradients or
// live parameters, which are touched every microbatch.
func hostPersistEligible(tn *tensor.Tensor, prof *profiler.Profile) bool {
	switch tn.Class {
	case tensor.OptimizerState:
		return true
	case tensor.Parameter:
		// Stashed versions have no uses at all.
		return len(prof.Stats[tn.ID].Windows) == 0
	default:
		return false
	}
}

// chooseGroupMech compares mechanisms for one block group using the
// paper's Table III logic on the group's median live interval.
func (p *planner) chooseGroupMech(stage, blk int, rate units.FLOPSRate) Mechanism {
	live := p.groupLive(stage, blk)
	ids := p.groupTensors(stage, blk)
	if len(ids) == 0 {
		return MechNone
	}
	sample := ids[0]
	size := p.built.Graph.Tensors.Get(sample).Size
	recompute := units.MaxDuration
	if p.o.Allowed.Recompute {
		flops, _ := p.built.RecomputeFLOPs(sample)
		recompute = compaction.RecomputeCost(flops, rate)
	}
	hostswap := units.MaxDuration
	if p.o.Allowed.HostSwap {
		hostswap = compaction.Overhead(compaction.HostSwapCost(p.o.Topo, size), live)
	}
	switch {
	case recompute == units.MaxDuration && hostswap == units.MaxDuration:
		return MechNone
	case recompute <= hostswap:
		// Ties prefer recomputation: it does not consume the scarce
		// spare GPU memory (paper's t3 reasoning).
		return MechRecompute
	default:
		return MechHostSwap
	}
}

// groupLive returns the median live interval across the group's
// instances.
func (p *planner) groupLive(stage, blk int) units.Duration {
	var gaps []units.Duration
	for _, id := range p.groupTensors(stage, blk) {
		if w := p.profile.Stats[id].LongestWindow(); w.From >= 0 {
			gaps = append(gaps, w.Gap)
		}
	}
	if len(gaps) == 0 {
		return 0
	}
	slices.Sort(gaps)
	return gaps[len(gaps)/2]
}

// groupSize returns the per-instance byte size of a block group.
func (p *planner) groupSize(stage, blk int) units.Bytes {
	ids := p.groupTensors(stage, blk)
	if len(ids) == 0 {
		return 0
	}
	return p.built.Graph.Tensors.Get(ids[0]).Size
}

// groupTensors lists the group's activation instances in microbatch
// order. The returned slice aliases the precomputed index and must not
// be mutated.
func (p *planner) groupTensors(stage, blk int) []tensor.ID {
	return p.groups[groupKey{stage, blk}]
}

// applyGroup assigns mech to every instance of the group and returns
// the estimated stage saving: one instance stays transiently resident,
// the rest of the in-flight copies are gone.
func (p *planner) applyGroup(stage, blk int, mech Mechanism, inflight int) units.Bytes {
	ids := p.groupTensors(stage, blk)
	if len(ids) == 0 {
		return 0
	}
	for _, id := range ids {
		p.plan.Act[id] = mech
	}
	p.inUse[groupKey{stage, blk}] = mech
	size := p.built.Graph.Tensors.Get(ids[0]).Size
	saved := size * units.Bytes(inflight-1)
	if saved <= 0 {
		saved = size / 2
	}
	return saved
}

// applyGroupD2D assigns D2D to the group, planning stripes for every
// instance that can coexist (in-flight count) against the spare
// budget. Returns the estimated saving (zero if spare is exhausted).
func (p *planner) applyGroupD2D(stage, blk int) units.Bytes {
	ids := p.groupTensors(stage, blk)
	if len(ids) == 0 {
		return 0
	}
	b := p.built
	kind := b.Cfg.Kind
	inflight := kind.InFlight(stage, b.NumStages(), b.Cfg.Microbatches)
	src := p.plan.Device(stage)

	// Every concurrently swapped-out instance occupies peer memory;
	// budget one slot per in-flight copy and reuse the layouts
	// round-robin across microbatches.
	size := b.Graph.Tensors.Get(ids[0]).Size
	layouts := make([][]fabric.Part, 0, inflight)
	for i := 0; i < inflight; i++ {
		parts := p.planStripes(p.spare, src, size)
		if parts == nil {
			for _, l := range layouts {
				compaction.UnplanStripes(p.spare, l)
			}
			return 0
		}
		layouts = append(layouts, parts)
	}
	for i, id := range ids {
		p.plan.Act[id] = MechD2D
		p.plan.Parts[id] = layouts[i%len(layouts)]
	}
	p.inUse[groupKey{stage, blk}] = MechD2D
	saved := size * units.Bytes(inflight-1)
	if saved <= 0 {
		saved = size / 2
	}
	return saved
}

// planStripes honors the DisableStriping ablation. It debits the given
// budget (the planner's own, or a trial snapshot's clone), which is
// what lets concurrent refinement trials plan stripes independently.
func (p *planner) planStripes(budget compaction.SpareBudget, src hw.DeviceID, size units.Bytes) []fabric.Part {
	if !p.o.DisableStriping {
		return compaction.PlanStripes(p.o.Topo, src, size, budget)
	}
	// Single-peer route: the reachable neighbor with the most spare.
	var best hw.DeviceID = -1
	var bestAvail units.Bytes
	for _, nb := range p.o.Topo.NVLinkNeighbors(src) {
		if budget[nb] > bestAvail {
			best, bestAvail = nb, budget[nb]
		}
	}
	if best < 0 || bestAvail < size {
		return nil
	}
	budget[best] -= size
	return compaction.SingleStripe(best, size)
}

// swapWindows computes, per stage, how many swapped instance-sets may
// be in flight (allocated but not yet drained) before the forward must
// wait, and whether restores must strictly serialize behind evictions
// (only one evicted instance fits at a time).
func swapWindows(pl *Plan, b *pipeline.Built, topo *hw.Topology) ([]int, []bool) {
	S := b.NumStages()
	evictedPerMB := make([]units.Bytes, S)    // bytes leaving per microbatch (hostswap + d2d)
	recomputedPerMB := make([]units.Bytes, S) // bytes dropped and rematerialized per microbatch
	retainedPerMB := make([]units.Bytes, S)   // activation bytes kept resident per microbatch
	persistent := make([]units.Bytes, S)      // resident persistent state
	for s := 0; s < S; s++ {
		for _, id := range b.Persistent[s] {
			if !pl.HostPersist[id] {
				persistent[s] += b.Graph.Tensors.Get(id).Size
			}
		}
	}
	// Use microbatch 0's slots as the representative instance set.
	for s := 0; s < S; s++ {
		k := pipeline.SlotKey{Stage: s, Microbatch: 0}
		for _, id := range b.Acts[k] {
			switch m, ok := pl.Act[id]; {
			case ok && m == MechRecompute:
				recomputedPerMB[k.Stage] += b.Graph.Tensors.Get(id).Size
			case ok && m != MechNone:
				evictedPerMB[k.Stage] += b.Graph.Tensors.Get(id).Size
			default:
				retainedPerMB[k.Stage] += b.Graph.Tensors.Get(id).Size
			}
		}
		if in, ok := b.BoundIn[k]; ok {
			retainedPerMB[k.Stage] += b.Graph.Tensors.Get(in).Size
		}
	}
	windows := make([]int, S)
	serialize := make([]bool, S)
	for s := 0; s < S; s++ {
		inflight := b.Cfg.Kind.InFlight(s, S, b.Cfg.Microbatches)
		windows[s] = inflight // no constraint when nothing is evicted
		if evictedPerMB[s] == 0 {
			continue
		}
		avail := topo.GPU.Memory - pipeline.RuntimeReserve - persistent[s] -
			retainedPerMB[s]*units.Bytes(inflight) - 512*units.MiB
		// A restore rematerializes the whole instance: the recomputed
		// blocks reallocate alongside the swapped-in ones.
		instance := evictedPerMB[s] + recomputedPerMB[s]
		// At F(m)'s dispatch, instances m-W+1 .. m-1 may still be
		// draining while the full current instance is resident:
		// avail ≥ instance + (W-1)·evicted.
		w := 1
		if headroom := avail - instance; headroom > 0 {
			w += int(headroom / evictedPerMB[s])
		}
		if w > inflight {
			w = inflight
		}
		windows[s] = w
		// A prefetching restore overlaps the preceding forward's full
		// instance; if both cannot coexist with the drain backlog,
		// restores must strictly follow the drains.
		if 2*instance+units.Bytes(w-1)*evictedPerMB[s] > avail {
			serialize[s] = true
			windows[s] = 1
		}
	}
	return windows, serialize
}

// InvalidError reports a plan that does not fit the build or topology
// it is applied to (a corrupted or foreign plan file, for instance).
// Apply returns it before instrumenting anything.
type InvalidError struct {
	// Tensor is the offending tensor, or -1 when the fault is not
	// about one tensor.
	Tensor tensor.ID
	Reason string
}

func (e *InvalidError) Error() string {
	if e.Tensor < 0 {
		return "plan: invalid plan: " + e.Reason
	}
	return fmt.Sprintf("plan: invalid plan: tensor %d: %s", e.Tensor, e.Reason)
}

// actUse is one validated activation assignment of a plan.
type actUse struct {
	id    tensor.ID
	mech  Mechanism
	slot  pipeline.SlotKey
	flops units.FLOPs // recompute cost, for MechRecompute
}

// check validates pl against the build and topology Apply is about to
// instrument, so a bad plan fails with an *InvalidError instead of
// panicking the executor. It returns pl's activation assignments and
// its host-parked tensors, each in tensor order; a plan with several
// faults names its smallest faulty tensor of the first kind checked.
func check(pl *Plan, b *pipeline.Built, topo *hw.Topology) ([]actUse, []tensor.ID, error) {
	invalid := func(id tensor.ID, format string, args ...any) error {
		return &InvalidError{Tensor: id, Reason: fmt.Sprintf(format, args...)}
	}
	if len(pl.Mapping) != b.NumStages() {
		return nil, nil, invalid(-1, "mapping has %d entries for %d stages", len(pl.Mapping), b.NumStages())
	}
	ids := sortedIDs(pl.Act)
	acts := make([]actUse, len(ids))
	for i, id := range ids {
		a := &acts[i]
		a.id, a.mech = id, pl.Act[id]
		if a.mech < MechNone || a.mech > MechD2D {
			return nil, nil, invalid(a.id, "mechanism %v is out of range", a.mech)
		}
		var ok bool
		if a.slot, ok = b.ActSlot(a.id); !ok {
			return nil, nil, invalid(a.id, "not an activation of this build")
		}
		switch a.mech {
		case MechRecompute:
			if a.flops, ok = b.RecomputeFLOPs(a.id); !ok {
				return nil, nil, invalid(a.id, "not recomputable")
			}
		case MechD2D:
			parts := pl.Parts[a.id]
			if len(parts) == 0 {
				return nil, nil, invalid(a.id, "D2D swap without stripes")
			}
			own := pl.Device(a.slot.Stage)
			for _, part := range parts {
				switch {
				case !part.Peer.IsGPU() || int(part.Peer) >= topo.NumGPUs:
					return nil, nil, invalid(a.id, "D2D peer %v is not a GPU of the topology", part.Peer)
				case part.Peer == own:
					return nil, nil, invalid(a.id, "D2D peer %v is the tensor's own device", part.Peer)
				case part.Bytes <= 0:
					return nil, nil, invalid(a.id, "D2D stripe to %v has %d bytes", part.Peer, part.Bytes)
				}
			}
		}
	}
	// A HostPersist key means "parked": a false entry is a malformed
	// plan, not an opt-out.
	parked := sortedIDs(pl.HostPersist)
	for _, id := range parked {
		switch {
		case !pl.HostPersist[id]:
			return nil, nil, invalid(id, "host-parking entry is false")
		case !b.PersistentSet[id]:
			return nil, nil, invalid(id, "host-parked tensor is not persistent in this build")
		}
	}
	return acts, parked, nil
}

// sortedIDs returns m's keys in ascending order.
func sortedIDs[V any](m map[tensor.ID]V) []tensor.ID {
	ids := make([]tensor.ID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Apply instruments b with the plan and assembles the executor
// options. b must be an uninstrumented lowering of the BuildConfig the
// plan was computed for (tensor and op IDs are positional) — a fresh
// Build, or a Fork of a frozen one, which is how the planner emulates
// without ever touching its base. A plan that does not fit b or topo
// returns an *InvalidError and leaves b untouched.
func Apply(pl *Plan, b *pipeline.Built, topo *hw.Topology) (*exec.Options, error) {
	g := b.Graph
	acts, persIDs, err := check(pl, b, topo)
	if err != nil {
		return nil, err
	}
	overlay := 0 // ops the instrumentation adds: two per mechanism use
	for _, a := range acts {
		if a.mech != MechNone {
			overlay += 2
		}
	}
	// A persistent tensor is used only by its stage's compute ops,
	// which the stage's schedule chain totally orders, so the use
	// sequence read off the uninstrumented graph (cached for a fork) is
	// the sequence in any instrumented order too.
	var live *graph.Liveness
	if len(persIDs) > 0 {
		if live, err = g.Liveness(); err != nil {
			return nil, err
		}
		for _, id := range persIDs {
			overlay += 2 * len(live.Uses[id])
		}
	}
	g.Grow(overlay)

	opts := &exec.Options{
		Topo:             topo,
		Built:            b,
		Mapping:          pl.Mapping,
		D2DRoutes:        make(map[graph.OpID][]fabric.Part),
		InitiallySwapped: make(map[tensor.ID]bool),
	}

	// Activation instrumentation. swaps pairs each swapped tensor's
	// slot with its swap ops, in tensor order.
	type swap struct {
		slot pipeline.SlotKey
		pair graph.SwapPair
	}
	var swaps []swap
	for _, a := range acts {
		k := a.slot
		after := b.FwOp(k)
		before := b.BwOp(k)
		gate := b.PrevOnStage(before)
		switch a.mech {
		case MechRecompute:
			g.InstrumentRecompute(a.id, after, before, gate, a.flops)
		case MechHostSwap:
			swaps = append(swaps, swap{k, g.InstrumentSwap(a.id, after, before, gate, "h2d")})
		case MechD2D:
			parts := pl.Parts[a.id]
			pair := g.InstrumentSwap(a.id, after, before, gate, "d2d")
			opts.D2DRoutes[pair.Out] = parts
			opts.D2DRoutes[pair.In] = parts
			swaps = append(swaps, swap{k, pair})
		}
	}

	// Swap throttling: the forward of microbatch m+W may not start
	// until microbatch m's swap-outs have drained — the credit scheme
	// swap libraries use to bound in-flight evicted copies. Without it
	// a slow PCIe drain lets evicted instances pile up and the job
	// dies of the very OOM the swap was meant to prevent. The window
	// W is per stage: how many evicted instance-sets fit in the memory
	// left after the reserve, resident persistent state and retained
	// activations.
	windows, serialize := swapWindows(pl, b, topo)
	for _, sw := range swaps {
		k := sw.slot
		next := pipeline.SlotKey{Stage: k.Stage, Microbatch: k.Microbatch + windows[k.Stage]}
		if fw := b.FwOp(next); fw >= 0 {
			g.AddDep(fw, sw.pair.Out)
		}
	}
	// Strict mode: the swap-in restoring microbatch m may only begin
	// once the forward instance just ahead of B(m) in the stage order
	// has fully drained, keeping a single evicted instance resident.
	// Slot i's swap-outs are outs[off[i]:off[i+1]], in tensor order (a
	// counting sort: one allocation each, not one per slot).
	if slices.Contains(serialize, true) {
		slot := func(k pipeline.SlotKey) int { return k.Stage*b.TotalMicrobatches + k.Microbatch }
		off := make([]int32, b.NumStages()*b.TotalMicrobatches+1)
		for _, sw := range swaps {
			off[slot(sw.slot)+1]++
		}
		for i := 1; i < len(off); i++ {
			off[i] += off[i-1]
		}
		outs := make([]graph.OpID, len(swaps))
		fill := slices.Clone(off)
		for _, sw := range swaps {
			i := slot(sw.slot)
			outs[fill[i]] = sw.pair.Out
			fill[i]++
		}
		for _, sw := range swaps {
			k := sw.slot
			if !serialize[k.Stage] {
				continue
			}
			prev := b.PrevOnStage(b.BwOp(k))
			if prev < 0 || g.Op(prev).Kind != graph.Forward {
				continue
			}
			i := slot(pipeline.SlotKey{Stage: k.Stage, Microbatch: g.Op(prev).Microbatch})
			for _, out := range outs[off[i]:off[i+1]] {
				g.AddDep(sw.pair.In, out)
			}
		}
	}

	// Persistent host-parking: swap in around each use.
	for _, id := range persIDs {
		opts.InitiallySwapped[id] = true
		var prevOut graph.OpID = -1
		for _, u := range live.Uses[id] {
			gate := b.PrevOnStage(u.Op)
			in := g.InstrumentSwapIn(id, u.Op, gate, "h2d")
			if prevOut >= 0 {
				// A restore may only begin once the previous
				// eviction has drained the tensor to the host.
				g.AddDep(in, prevOut)
			}
			prevOut = g.InstrumentSwapOut(id, u.Op, "h2d")
		}
	}

	// On a fork of a frozen lowering Validate certifies just the
	// overlay against the base's order; exec then reuses the base's
	// free points instead of re-sorting the instrumented graph.
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("plan: instrumented graph invalid: %w", err)
	}
	return opts, nil
}
