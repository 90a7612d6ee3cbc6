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
// While it plans, the planner holds its per-tensor decisions densely,
// indexed by tensor ID (trial), and fills the Plan's maps once, at the
// end. Refinement candidates are evaluated on copies of the round's
// incumbent (see refine.go), which lets Options.Workers emulate several
// candidates concurrently while producing byte-identical plans at any
// worker count.
package plan

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"

	"mpress/internal/compaction"
	"mpress/internal/exec"
	"mpress/internal/fabric"
	"mpress/internal/graph"
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
	// Build returns the job's lowering: a fresh one, or a frozen one
	// shared with other goroutines (the runner hands out one frozen
	// lowering per distinct BuildConfig). Compute calls it exactly once
	// and freezes the result (pipeline.Built.Freeze, a no-op on a frozen
	// Built), then only reads it; every emulation lays its plan over
	// that base as an overlay. Build must not hand out a Built its
	// caller later mutates.
	Build   func() (*pipeline.Built, error)
	Allowed Allowed
	// DisableMappingSearch keeps the identity stage→GPU mapping
	// (Fig. 9's "default setting" ablation).
	DisableMappingSearch bool
	// DisableStriping routes every D2D swap to a single peer instead
	// of striping across all reachable ones (Fig. 9 ablation).
	DisableStriping bool
	// Workers bounds how many refinement candidates are emulated
	// concurrently (a worker pool over trial snapshots; see
	// refine.go). Plans are byte-identical at any setting — each
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

// Plan is the planner's output, applicable to any lowering of the same
// job.
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

// planner carries the working state of one Compute call.
type planner struct {
	o       Options
	built   *pipeline.Built // the one frozen base lowering
	profile *profiler.Profile
	mapRes  *mapping.Result

	// groups indexes each (stage, block) activation group's instances
	// in microbatch order — precomputed once so the refinement loop's
	// candidate enumeration does not rescan the build's activations.
	groups map[groupKey][]tensor.ID
	// plan holds the mapping and the host-parked tensors; Compute fills
	// its Act and Parts from cur once planning is done.
	plan *Plan
	// cur is the working assignment: the incumbent, during refinement.
	cur        *trial
	targets    []units.Bytes // per-stage savings targets
	emulations int
}

// decisions is a plan laid out by tensor ID, the form apply reads: the
// planner keeps its assignment this way, and Apply converts a Plan to
// it once. Pricing a candidate then copies two slices and reads no map.
type decisions struct {
	mapping []hw.DeviceID
	// act[id] is tensor id's mechanism, MechNone where there is none.
	act []Mechanism
	// A MechD2D tensor's stripes are layouts[layout[id]]. layouts[0] is
	// nil, and layout[id] is 0 for every tensor that is not MechD2D (the
	// planner, convertToD2D and decide give a layout to MechD2D tensors
	// only), so apply hands the pair to the executor as its stripe table
	// (exec.Stripes). Layouts are shared between copies and never
	// written.
	layout  []int32
	layouts [][]fabric.Part
	// parked lists the host-parked tensors in tensor order, as
	// exec.Options.Parked takes them.
	parked []tensor.ID
	// A converted Plan's entries the arrays cannot hold, every one a
	// fault for check to report, each in tensor order: stray holds Act
	// keys naming no tensor and MechNone entries on a tensor that is no
	// activation, unparked the HostPersist entries that are false.
	stray    []actEntry
	unparked []tensor.ID
}

// actEntry is one Act entry of a Plan.
type actEntry struct {
	id   tensor.ID
	mech Mechanism
}

// parts returns tensor id's D2D stripes.
func (d *decisions) parts(id tensor.ID) []fabric.Part { return d.layouts[d.layout[id]] }

// trial is the planner's per-tensor state, everything a conversion
// mutates: the decisions and the spare budget they leave. The mapping
// and the host-parked list are fixed once the initial assignment is
// made, and a copy shares them.
type trial struct {
	decisions
	spare compaction.SpareBudget
}

// copyInto copies t into dst, reusing dst's arrays and budget map (a
// new trial when dst is nil), and returns dst.
func (t *trial) copyInto(dst *trial) *trial {
	if dst == nil {
		dst = &trial{spare: make(compaction.SpareBudget, len(t.spare))}
	}
	dst.mapping, dst.parked = t.mapping, t.parked
	dst.act = append(dst.act[:0], t.act...)
	dst.layout = append(dst.layout[:0], t.layout...)
	dst.layouts = append(dst.layouts[:0], t.layouts...)
	clear(dst.spare)
	for g, b := range t.spare {
		dst.spare[g] = b
	}
	return dst
}

// groupMech returns the mechanism of the group whose instances are ids:
// the one its instances not yet moved to D2D share, MechD2D once all
// have moved, MechNone while it is unassigned (or has no instances).
func groupMech(act []Mechanism, ids []tensor.ID) Mechanism {
	for _, id := range ids {
		if m := act[id]; m != MechD2D {
			return m
		}
	}
	if len(ids) == 0 {
		return MechNone
	}
	return MechD2D
}

// basisKey names one planner basis of a lowering: the plane, by its
// full rendering, and whether the device mapping is kept as the
// identity instead of searched.
type basisKey struct {
	topo     string
	identity bool
}

// basis is what the planner derives from a frozen lowering and its
// plane before deciding anything: the unbounded profile (step 1) and
// the Fig. 6 device mapping (step 2). It rides on the lowering
// (pipeline.Built.Memo), so it is derived once however many plans the
// lowering gets, and every plan reads it without writing it.
type basis struct {
	profile *profiler.Profile
	mapping *mapping.Result
}

// basisOf returns b's basis on topo, deriving it on first use.
func basisOf(b *pipeline.Built, topo *hw.Topology, identity bool) (*basis, error) {
	v, err := b.Memo(basisKey{topo.Canonical(), identity}, func() (any, error) {
		prof, err := profiler.Collect(topo, b, nil)
		if err != nil {
			return nil, err
		}
		search := mapping.Search
		if identity {
			search = mapping.Identity
		}
		m, err := search(topo, prof.StagePeak)
		if err != nil {
			return nil, err
		}
		return &basis{profile: prof, mapping: m}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*basis), nil
}

// Compute runs the planner.
func Compute(o Options) (*Plan, error) {
	p, err := newPlanner(o)
	if err != nil {
		return nil, err
	}
	// Steps 3-4 with OOM-retry.
	res, err := p.assignAndRefine()
	if err != nil {
		return nil, err
	}
	p.plan.Baseline = p.profile.Duration
	p.plan.Planned = res
	p.plan.Emulations = p.emulations
	p.fillActs()
	p.finalizeSummary()
	return p.plan, nil
}

// newPlanner lowers and freezes the job and takes its basis (steps 1
// and 2), its activation groups and its per-stage savings targets.
func newPlanner(o Options) (*planner, error) {
	if o.Topo == nil || o.Build == nil {
		return nil, fmt.Errorf("plan: Topo and Build are required")
	}

	p := &planner{o: o}
	var err error
	if p.built, err = o.Build(); err != nil {
		return nil, err
	}
	// Lower once, emulate many: the base is frozen with its order,
	// adjacency, liveness and free rows computed, and each emulation
	// runs an overlay on it.
	if err = p.built.Freeze(); err != nil {
		return nil, err
	}
	// Steps 1 and 2 depend only on the lowering and the plane, so every
	// plan of the lowering on that plane shares them.
	bs, err := basisOf(p.built, o.Topo, o.DisableMappingSearch || o.Topo.Switched)
	if err != nil {
		return nil, err
	}
	p.profile, p.mapRes = bs.profile, bs.mapping

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

	return p, nil
}

// fillActs writes the working assignment into the Plan's maps: an Act
// entry for every tensor given a mechanism (the planner never assigns
// MechNone), and a Parts entry for every D2D-swapped one.
func (p *planner) fillActs() {
	for i, m := range p.cur.act {
		if m == MechNone {
			continue
		}
		id := tensor.ID(i)
		p.plan.Act[id] = m
		if m == MechD2D {
			p.plan.Parts[id] = p.cur.parts(id)
		}
	}
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
	for id, mech := range p.cur.act {
		if mech == MechNone {
			continue
		}
		tn := b.Graph.Tensors.Get(tensor.ID(id))
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

// newPlan resets the working plan and assignment.
func (p *planner) newPlan() {
	p.plan = &Plan{
		Mapping:     slices.Clone(p.mapRes.Mapping),
		Act:         make(map[tensor.ID]Mechanism),
		Parts:       make(map[tensor.ID][]fabric.Part),
		HostPersist: make(map[tensor.ID]bool),
	}
	n := p.built.Graph.Tensors.Len()
	p.cur = &trial{
		decisions: decisions{
			mapping: p.plan.Mapping,
			act:     make([]Mechanism, n),
			layout:  make([]int32, n),
			layouts: [][]fabric.Part{nil},
		},
		spare: compaction.SpareBudget(p.mapRes.Spare).Clone(),
	}
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
		if err := p.assign(); err != nil {
			return 0, err
		}
		res, err := p.emulate(&p.cur.decisions)
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

// assign makes the initial assignment on a fresh working plan. The
// host-parked tensors are fixed from then on.
func (p *planner) assign() error {
	p.newPlan()
	if err := p.initialAssignment(); err != nil {
		return err
	}
	p.cur.parked = sortedKeys(p.plan.HostPersist)
	return nil
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
				if groupMech(p.cur.act, p.groupTensors(s, blk)) == MechRecompute {
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
				if groupMech(p.cur.act, p.groupTensors(s, blk)) != MechNone {
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
		p.cur.act[id] = mech
	}
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
	src := p.cur.mapping[stage]

	// Every concurrently swapped-out instance occupies peer memory;
	// budget one slot per in-flight copy and reuse the layouts
	// round-robin across microbatches.
	size := b.Graph.Tensors.Get(ids[0]).Size
	t := p.cur
	first := len(t.layouts)
	for i := 0; i < inflight; i++ {
		parts := p.planStripes(t.spare, src, size)
		if parts == nil {
			for _, l := range t.layouts[first:] {
				compaction.UnplanStripes(t.spare, l)
			}
			t.layouts = t.layouts[:first]
			return 0
		}
		t.layouts = append(t.layouts, parts)
	}
	for i, id := range ids {
		t.act[id] = MechD2D
		t.layout[id] = int32(first + i%inflight)
	}
	saved := size * units.Bytes(inflight-1)
	if saved <= 0 {
		saved = size / 2
	}
	return saved
}

// planStripes honors the DisableStriping ablation. It debits the given
// budget (the planner's own, or a trial snapshot's copy), which is
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
func swapWindows(d *decisions, b *pipeline.Built, topo *hw.Topology) ([]int, []bool) {
	S := b.NumStages()
	evictedPerMB := make([]units.Bytes, S)    // bytes leaving per microbatch (hostswap + d2d)
	recomputedPerMB := make([]units.Bytes, S) // bytes dropped and rematerialized per microbatch
	retainedPerMB := make([]units.Bytes, S)   // activation bytes kept resident per microbatch
	persistent := make([]units.Bytes, S)      // resident persistent state
	for s := 0; s < S; s++ {
		for _, id := range b.Persistent[s] {
			persistent[s] += b.Graph.Tensors.Get(id).Size
		}
	}
	// A persistent tensor is on its own stage's list.
	for _, id := range d.parked {
		tn := b.Graph.Tensors.Get(id)
		persistent[tn.Stage] -= tn.Size
	}
	// Use microbatch 0's slots as the representative instance set.
	for s := 0; s < S; s++ {
		k := pipeline.SlotKey{Stage: s, Microbatch: 0}
		for _, id := range b.Acts(k) {
			switch m := d.act[id]; {
			case m == MechRecompute:
				recomputedPerMB[k.Stage] += b.Graph.Tensors.Get(id).Size
			case m != MechNone:
				evictedPerMB[k.Stage] += b.Graph.Tensors.Get(id).Size
			default:
				retainedPerMB[k.Stage] += b.Graph.Tensors.Get(id).Size
			}
		}
		if in := b.BoundIn(k); in >= 0 {
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
// Apply returns it before laying anything over the lowering.
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

// invalid returns the *InvalidError for tensor id.
func invalid(id tensor.ID, format string, args ...any) error {
	return &InvalidError{Tensor: id, Reason: fmt.Sprintf(format, args...)}
}

// check validates d against the build and topology apply is about to
// lay it over, so a bad plan fails with an *InvalidError instead of
// panicking the executor. A plan with several faults names its smallest
// faulty tensor of the first kind checked: the mapping, then the
// activation entries, then the host-parked ones.
func check(d *decisions, b *pipeline.Built, topo *hw.Topology) error {
	if len(d.mapping) != b.NumStages() {
		return invalid(-1, "mapping has %d entries for %d stages", len(d.mapping), b.NumStages())
	}
	var err error
	for id, mech := range d.act {
		if mech != MechNone {
			if err = checkAct(d, b, topo, tensor.ID(id), mech); err != nil {
				break
			}
		}
	}
	// Every stray entry is a fault; the first counts if it comes first.
	if len(d.stray) > 0 && (err == nil || d.stray[0].id < err.(*InvalidError).Tensor) {
		return checkAct(d, b, topo, d.stray[0].id, d.stray[0].mech)
	}
	if err != nil {
		return err
	}
	// A HostPersist key means "parked": a false entry is a malformed
	// plan, not an opt-out.
	for _, id := range d.parked {
		if !b.Persists(id) {
			err = invalid(id, "host-parked tensor is not persistent in this build")
			break
		}
	}
	if len(d.unparked) > 0 && (err == nil || d.unparked[0] < err.(*InvalidError).Tensor) {
		return invalid(d.unparked[0], "host-parking entry is false")
	}
	return err
}

// checkAct checks one activation entry of d (see check).
func checkAct(d *decisions, b *pipeline.Built, topo *hw.Topology, id tensor.ID, mech Mechanism) error {
	if mech < MechNone || mech > MechD2D {
		return invalid(id, "mechanism %v is out of range", mech)
	}
	slot, ok := b.ActSlot(id)
	if !ok {
		return invalid(id, "not an activation of this build")
	}
	switch mech {
	case MechRecompute:
		if _, ok := b.RecomputeFLOPs(id); !ok {
			return invalid(id, "not recomputable")
		}
	case MechD2D:
		parts := d.parts(id)
		if len(parts) == 0 {
			return invalid(id, "D2D swap without stripes")
		}
		own := d.mapping[slot.Stage]
		for _, part := range parts {
			switch {
			case !part.Peer.IsGPU() || int(part.Peer) >= topo.NumGPUs:
				return invalid(id, "D2D peer %v is not a GPU of the topology", part.Peer)
			case part.Peer == own:
				return invalid(id, "D2D peer %v is the tensor's own device", part.Peer)
			case part.Bytes <= 0:
				return invalid(id, "D2D stripe to %v has %d bytes", part.Peer, part.Bytes)
			}
		}
	}
	return nil
}

// decide lays pl out by tensor ID for apply, reading each of its map
// entries once. The entries no array can hold, all faults, are set
// aside for check to report in tensor order with the rest.
func decide(pl *Plan, b *pipeline.Built) *decisions {
	n := b.Graph.Tensors.Len()
	d := &decisions{
		mapping: pl.Mapping,
		act:     make([]Mechanism, n),
		layout:  make([]int32, n),
		layouts: [][]fabric.Part{nil},
	}
	for id, mech := range pl.Act {
		switch _, act := b.ActSlot(id); {
		case id < 0 || int(id) >= n || (mech == MechNone && !act):
			d.stray = append(d.stray, actEntry{id, mech})
		case mech == MechD2D && len(pl.Parts[id]) > 0:
			d.layouts = append(d.layouts, pl.Parts[id])
			d.layout[id] = int32(len(d.layouts) - 1)
			fallthrough
		default:
			d.act[id] = mech
		}
	}
	slices.SortFunc(d.stray, func(a, b actEntry) int { return cmp.Compare(a.id, b.id) })
	for id, parked := range pl.HostPersist {
		if parked {
			d.parked = append(d.parked, id)
		} else {
			d.unparked = append(d.unparked, id)
		}
	}
	slices.Sort(d.parked)
	slices.Sort(d.unparked)
	return d
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[tensor.ID]V) []tensor.ID {
	ids := make([]tensor.ID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Apply lays the plan over b as an overlay (exec.Overlay) and assembles
// the executor options. b must be a lowering of the BuildConfig the plan
// was computed for (tensor and op IDs are positional): a fresh Build or
// a frozen, shared one, which Apply only reads. A plan that does not
// fit b or topo returns an *InvalidError.
func Apply(pl *Plan, b *pipeline.Built, topo *hw.Topology) (*exec.Options, error) {
	return apply(decide(pl, b), b, topo, new(overlay))
}

// apply is Apply on decisions, building the overlay in o, whose arrays
// it reuses: the one path from a plan to an executor run, for a loaded
// plan and for every planner emulation. The options it returns share
// o's arrays, so they last until o's next apply, and d's stripe table
// and parked list, which they pass on as they are.
func apply(d *decisions, b *pipeline.Built, topo *hw.Topology, o *overlay) (*exec.Options, error) {
	g := b.Graph
	if err := check(d, b, topo); err != nil {
		return nil, err
	}
	// The lowering's liveness names each tensor's consumers: a
	// recompute's, which wait for it, and a host-parked tensor's, around
	// which it is swapped. The overlay consumes no tensor, so they are
	// the consumers with the overlay too, and a persistent tensor's
	// uses, which its stage's schedule chain totally orders, come in
	// the same order.
	live, err := g.Liveness()
	if err != nil {
		return nil, err
	}
	size := 0 // ops the overlay adds: two per mechanism use
	for _, mech := range d.act {
		if mech != MechNone {
			size += 2
		}
	}
	for _, id := range d.parked {
		size += 2 * len(live.Uses[id])
	}
	o.reset(g, size)
	opts := &exec.Options{
		Topo:    topo,
		Built:   b,
		Mapping: d.mapping,
		Stripes: exec.Stripes{Of: d.layout, Layouts: d.layouts},
		Parked:  d.parked,
	}

	// Activation mechanisms, in tensor order.
	for i, mech := range d.act {
		if mech == MechNone {
			continue
		}
		id := tensor.ID(i)
		k, _ := b.ActSlot(id)
		after := b.FwOp(k)
		before := b.BwOp(k)
		gate := b.PrevOnStage(before)
		switch mech {
		case MechRecompute:
			flops, _ := b.RecomputeFLOPs(id)
			o.recompute(id, after, before, gate, flops, live.Uses[id])
		case MechHostSwap, MechD2D:
			out := o.swapOut(id, after)
			in := o.swapIn(id, before, gate)
			o.dep(in, out)
			o.swaps = append(o.swaps, swap{k, out, in})
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
	windows, serialize := swapWindows(d, b, topo)
	for _, sw := range o.swaps {
		k := sw.slot
		next := pipeline.SlotKey{Stage: k.Stage, Microbatch: k.Microbatch + windows[k.Stage]}
		if fw := b.FwOp(next); fw >= 0 {
			o.dep(fw, sw.out)
		}
	}
	// Strict mode: the swap-in restoring microbatch m may only begin
	// once the forward instance just ahead of B(m) in the stage order
	// has fully drained, keeping a single evicted instance resident.
	// Slot i's swap-outs are outs[off[i]:off[i+1]], in tensor order (a
	// counting sort, not a list per slot).
	if slices.Contains(serialize, true) {
		slot := func(k pipeline.SlotKey) int { return k.Stage*b.TotalMicrobatches + k.Microbatch }
		off := resize(&o.off, b.NumStages()*b.TotalMicrobatches+1)
		for _, sw := range o.swaps {
			off[slot(sw.slot)+1]++
		}
		for i := 1; i < len(off); i++ {
			off[i] += off[i-1]
		}
		outs := resize(&o.outs, len(o.swaps))
		fill := append(o.fill[:0], off...)
		o.fill = fill
		for _, sw := range o.swaps {
			i := slot(sw.slot)
			outs[fill[i]] = sw.out
			fill[i]++
		}
		for _, sw := range o.swaps {
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
				if out != sw.out { // the swap-in waits on its own already
					o.dep(sw.in, out)
				}
			}
		}
	}

	// Persistent host-parking: swap in around each use.
	for _, id := range d.parked {
		var prevOut graph.OpID = -1
		for _, u := range live.Uses[id] {
			in := o.swapIn(id, u.Op, b.PrevOnStage(u.Op))
			if prevOut >= 0 {
				// A restore may only begin once the previous
				// eviction has drained the tensor to the host.
				o.dep(in, prevOut)
			}
			prevOut = o.swapOut(id, u.Op)
		}
	}

	opts.Overlay = o.Overlay
	return opts, nil
}

// overlay builds an exec.Overlay over the lowering graph g: its ops are
// numbered after g's, and each edge is added once. Its arrays are
// reused from one apply to the next, which is why a refinement worker
// keeps one for all its emulations.
type overlay struct {
	exec.Overlay
	g *graph.Graph
	// swaps lists the swapped activations in tensor order; off, outs and
	// fill are strict mode's counting sort of their swap-outs by slot.
	swaps     []swap
	off, fill []int32
	outs      []graph.OpID
}

// swap pairs a swapped activation's slot with its swap ops.
type swap struct {
	slot    pipeline.SlotKey
	out, in graph.OpID
}

// reset empties o for a plan over g whose overlay takes size ops.
func (o *overlay) reset(g *graph.Graph, size int) {
	o.g = g
	o.Ops = slices.Grow(o.Ops[:0], size)
	o.Deps = slices.Grow(o.Deps[:0], 3*size)
	o.swaps = o.swaps[:0]
}

// resize sets *s to n zeros, reusing its array when it is large enough,
// and returns it.
func resize[T any](s *[]T, n int) []T {
	*s = slices.Grow((*s)[:0], n)[:n]
	clear(*s)
	return *s
}

// add appends an op of the given kind acting on tensor t, with t's
// layer and MoveBytes its size, and returns it for the caller to fill
// in the rest. The op is built in place: a graph.Op is large, and an
// emulation adds thousands.
func (o *overlay) add(kind graph.OpKind, t tensor.ID, stage, microbatch int) *graph.Op {
	tn := o.g.Tensors.Get(t)
	o.Ops = append(o.Ops, graph.Op{})
	op := &o.Ops[len(o.Ops)-1]
	op.ID = graph.OpID(o.g.Len() + len(o.Ops) - 1)
	op.Kind, op.Stage, op.Layer, op.Microbatch = kind, stage, tn.Layer, microbatch
	op.MoveBytes, op.Subject = tn.Size, t
	return op
}

// dep makes op after wait for op before.
func (o *overlay) dep(after, before graph.OpID) {
	o.Deps = append(o.Deps, exec.Dep{After: after, Before: before})
}

// swapOut evicts tensor t once op after completes. Whether it goes to
// host memory or to peer GPUs is the executor's to read off its D2D
// stripe table.
func (o *overlay) swapOut(t tensor.ID, after graph.OpID) graph.OpID {
	out := o.add(graph.SwapOut, t, o.g.Tensors.Get(t).Stage, o.g.Op(after).Microbatch).ID
	o.dep(out, after)
	return out
}

// swapIn restores tensor t before op before, once gate completes (with
// gate >= 0): passing before's predecessor in the device schedule makes
// the restore overlap it, the just-in-time prefetch the paper's
// executor runs on separate swap streams (Sec. III-E).
func (o *overlay) swapIn(t tensor.ID, before, gate graph.OpID) graph.OpID {
	in := o.add(graph.SwapIn, t, o.g.Tensors.Get(t).Stage, o.g.Op(before).Microbatch).ID
	if gate >= 0 {
		o.dep(in, gate)
	}
	o.dep(before, in)
	return in
}

// recompute drops activation t once op after completes and re-runs its
// forward computation (flops) before op before, gated like swapIn
// (paper Sec. II-D). The recompute re-produces t, so each of t's
// consumers (uses, before among them in a lowering) waits for it.
func (o *overlay) recompute(t tensor.ID, after, before, gate graph.OpID, flops units.FLOPs, uses []graph.Use) {
	stage := o.g.Op(after).Stage
	drop := o.add(graph.Drop, t, stage, o.g.Op(after).Microbatch).ID
	o.dep(drop, after)
	op := o.add(graph.Recompute, t, stage, o.g.Op(before).Microbatch)
	op.FLOPs = flops
	rec := op.ID
	o.dep(rec, drop)
	if gate >= 0 {
		o.dep(rec, gate)
	}
	consumed := false
	for i, u := range uses {
		if i > 0 && u.Op == uses[i-1].Op {
			continue // an op consuming t twice waits once
		}
		o.dep(u.Op, rec)
		consumed = consumed || u.Op == before
	}
	if !consumed {
		o.dep(before, rec)
	}
}
