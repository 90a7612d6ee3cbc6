// Refinement (planner step 4) with parallel trial evaluation.
//
// Each candidate conversion is evaluated on a copy-on-write snapshot
// of the planner's mutable state (plan assignment, spare budget, group
// mechanisms) instead of mutating shared state and undoing on
// rejection. Snapshots make candidates independent, so a worker pool
// can emulate a wave of them concurrently; determinism is preserved by
// arbitrating in rank order, not completion order: the round's winner
// is the first improving candidate by the (overhead desc, stage,
// block) ranking — exactly the candidate the sequential scan would
// have accepted — so plans are byte-identical at any Options.Workers
// setting.
//
// One shortcut skips emulations without changing the outcome: a static
// lower bound prunes candidates that provably cannot beat the incumbent
// duration (acceptance needs emulated duration ≤ current, and the
// emulated duration can never fall below the busiest serial resource's
// total work). Every other candidate is settled by one emulation.
//
// An emulation pays for its overlay and its event loop, not for
// re-allocating what the last one had: each wave slot keeps one overlay
// (exec.Overlay) for the whole call and rebuilds it in place for each
// of its emulations over the frozen base, and exec.Run pools its own
// per-run slices.
package plan

import (
	"cmp"
	"maps"
	"slices"
	"sync"

	"mpress/internal/compaction"
	"mpress/internal/exec"
	"mpress/internal/fabric"
	"mpress/internal/graph"
	"mpress/internal/hw"
	"mpress/internal/units"
)

// trial is a copy-on-write snapshot of the planner state a candidate
// conversion mutates. Map values (stripe layouts, the mapping slice)
// are shared: conversions replace entries, never mutate them in place.
type trial struct {
	plan  *Plan
	spare compaction.SpareBudget
	inUse map[groupKey]Mechanism
}

// snapshot clones the refinement-mutable state. Mapping and
// HostPersist are fixed during refinement and shared; the summary maps
// are filled only after it (finalizeSummary).
func (p *planner) snapshot() *trial {
	return &trial{
		plan: &Plan{
			Mapping:     p.plan.Mapping,
			Act:         maps.Clone(p.plan.Act),
			Parts:       maps.Clone(p.plan.Parts),
			HostPersist: p.plan.HostPersist,
		},
		spare: p.spare.Clone(),
		inUse: maps.Clone(p.inUse),
	}
}

// adopt replaces the planner's working state with an accepted trial's.
func (p *planner) adopt(t *trial) {
	p.plan, p.spare, p.inUse = t.plan, t.spare, t.inUse
}

// candidate is one potential conversion, ranked worst overhead first.
type candidate struct {
	key      groupKey
	overhead units.Duration
	// recompute marks hostswap groups eligible for the trade-for-
	// recomputation fallback when the D2D attempt does not help.
	recompute bool
}

// evalResult is one candidate's evaluated outcome.
type evalResult struct {
	t   *trial // improving trial to adopt; nil when rejected
	dur units.Duration
	// arbs counts the emulations the candidate consumed (lower-bound
	// prunes are not emulated) — the deterministic currency behind
	// Plan.Emulations.
	arbs int
	err  error
}

// refineCtx carries one refineWithD2D call's inputs. Workers only
// read it: each evaluation mutates its own trial snapshot and its wave
// slot's overlay.
type refineCtx struct {
	p *planner
	// overlays[i] is wave slot i's overlay: the slot's emulations
	// rebuild it in turn, reusing its arrays. Waves are joined before
	// the next one starts, so one goroutine at a time uses a slot, and
	// the slots go when the call returns.
	overlays []exec.Overlay
	// base is per-device serial compute-queue work excluding
	// recomputation: forward/backward compute plus optimizer HBM
	// time, from the reference lowering.
	base []units.Duration
	rate units.FLOPSRate
	// current is the incumbent duration of the round being evaluated.
	current units.Duration
}

// refineWithD2D is step 4: convert the worst-overhead groups to D2D
// (or trade hostswap for recomputation) while the emulator agrees it
// helps, evaluating up to Options.Workers ranked candidates per wave.
func (p *planner) refineWithD2D(current units.Duration) (units.Duration, error) {
	workers := p.o.Workers
	if workers < 1 {
		workers = 1
	}
	rc := newRefineCtx(p)
	rc.overlays = make([]exec.Overlay, workers)
	for round := 0; round < maxRefinements; round++ {
		cands := rc.rank()
		if len(cands) == 0 {
			return current, nil
		}
		rc.current = current
		improved := false
		for lo := 0; lo < len(cands) && !improved; lo += workers {
			wave := cands[lo:min(lo+workers, len(cands))]
			results := make([]evalResult, len(wave))
			if workers == 1 {
				results[0] = rc.evaluate(&rc.overlays[0], wave[0])
			} else {
				var wg sync.WaitGroup
				for i := range wave {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						results[i] = rc.evaluate(&rc.overlays[i], wave[i])
					}(i)
				}
				wg.Wait()
			}
			// Arbitrate in rank order: charge each candidate's
			// arbitrations until (and including) the first improving
			// one — the arbitrations the sequential scan would have
			// consumed — then adopt it and end the round.
			for _, res := range results {
				if res.err != nil {
					return 0, res.err
				}
				p.emulations += res.arbs
				if res.t != nil {
					p.adopt(res.t)
					current = res.dur
					improved = true
					break
				}
			}
		}
		if !improved {
			return current, nil
		}
	}
	return current, nil
}

// rank enumerates this round's candidates worst static overhead first,
// with (stage, block) breaking ties so the order is total.
func (rc *refineCtx) rank() []candidate {
	p := rc.p
	var cands []candidate
	for key, mech := range p.inUse {
		if mech != MechRecompute && mech != MechHostSwap {
			continue
		}
		ids := p.groupTensors(key.Stage, key.Block)
		if len(ids) == 0 {
			continue
		}
		size := p.built.Graph.Tensors.Get(ids[0]).Size
		var ov units.Duration
		if mech == MechRecompute {
			flops, _ := p.built.RecomputeFLOPs(ids[0])
			ov = compaction.RecomputeCost(flops, rc.rate)
		} else {
			live := p.groupLive(key.Stage, key.Block)
			ov = compaction.Overhead(compaction.HostSwapCost(p.o.Topo, size), live)
		}
		// Zero static overhead still qualifies: PCIe queueing and
		// throttling costs are only visible to the emulator, which
		// arbitrates every conversion.
		cands = append(cands, candidate{
			key:       key,
			overhead:  ov,
			recompute: p.o.Allowed.Recompute && mech == MechHostSwap,
		})
	}
	slices.SortFunc(cands, func(a, b candidate) int {
		if a.overhead != b.overhead {
			return cmp.Compare(b.overhead, a.overhead) // worst first
		}
		if a.key.Stage != b.key.Stage {
			return cmp.Compare(a.key.Stage, b.key.Stage)
		}
		return cmp.Compare(a.key.Block, b.key.Block)
	})
	return cands
}

// evaluate prices one candidate on its wave slot's overlay: prefer
// retargeting to D2D (the paper's refinement); when spare memory is
// exhausted or D2D does not help, fall back to trading the hostswap
// group for recomputation. Pure with respect to shared planner state —
// all mutation happens on trial snapshots and the slot's overlay — so
// the slots' evaluations may run concurrently.
func (rc *refineCtx) evaluate(ov *exec.Overlay, c candidate) evalResult {
	var res evalResult
	t := rc.p.snapshot()
	if rc.p.convertToD2D(t, c.key) {
		if done := rc.arbitrate(t, ov, &res); done {
			return res
		}
	}
	if c.recompute {
		t = rc.p.snapshot()
		if rc.p.convertToRecompute(t, c.key) {
			if done := rc.arbitrate(t, ov, &res); done {
				return res
			}
		}
	}
	return res
}

// arbitrate prices trial t against the incumbent, building its overlay
// in ov, filling res and reporting whether the candidate is settled
// (improved or errored). Ties are accepted: an equal-duration D2D route
// still relieves the PCIe link and GPU compute the other mechanisms
// consume.
func (rc *refineCtx) arbitrate(t *trial, ov *exec.Overlay, res *evalResult) bool {
	if rc.lowerBound(t.plan) > rc.current {
		// Provably cannot improve: skip the emulation entirely. Not
		// charged as an arbitration — the sequential definition of
		// Plan.Emulations counts verdicts, and the prune is
		// deterministic at any worker count.
		return false
	}
	r, err := rc.p.simulate(t.plan, ov)
	if err != nil {
		res.err = err
		return true
	}
	res.arbs++
	if r.OOM == nil && r.Duration <= rc.current {
		res.t, res.dur = t, r.Duration
		return true
	}
	return false
}

// lowerBound returns a provable lower bound on pl's emulated duration
// from per-resource busy totals: a serial compute queue with total
// work W cannot finish before W, and a k-lane link set moving B bytes
// at per-lane bandwidth bw cannot finish before B/(k·bw). Both ignore
// idle gaps, dependencies and latency terms, so the bound only ever
// undercounts — a candidate is pruned only when even this undercount
// exceeds the incumbent.
func (rc *refineCtx) lowerBound(pl *Plan) units.Duration {
	p := rc.p
	extra := make([]units.Duration, len(rc.base))
	type pair struct{ src, dst hw.DeviceID }
	var link map[pair]units.Bytes
	// Integer sums and maxima: the map's iteration order cannot move
	// the bound.
	for id, mech := range pl.Act {
		switch mech {
		case MechRecompute:
			tn := p.built.Graph.Tensors.Get(id)
			dev := pl.Mapping[tn.Stage]
			flops, _ := p.built.RecomputeFLOPs(id)
			extra[dev] += compaction.RecomputeCost(flops, rc.rate)
		case MechD2D:
			tn := p.built.Graph.Tensors.Get(id)
			src := pl.Mapping[tn.Stage]
			if link == nil {
				link = make(map[pair]units.Bytes)
			}
			for _, part := range pl.Parts[id] {
				// One scatter and one gather per instance; count the
				// scatter direction only (the gather mirrors it on the
				// reverse lane set) — undercounting keeps the bound
				// sound.
				link[pair{src, part.Peer}] += part.Bytes
			}
		}
	}
	var bound units.Duration
	for dev, b := range rc.base {
		if t := b + extra[dev]; t > bound {
			bound = t
		}
	}
	for k, bytes := range link {
		lanes := p.o.Topo.LanesBetween(k.src, k.dst)
		if lanes <= 0 {
			continue
		}
		if t := p.o.Topo.NVLinkLaneBW.TransferTime(bytes) / units.Duration(lanes); t > bound {
			bound = t
		}
	}
	return bound
}

// newRefineCtx precomputes the call-lifetime inputs: the compute rate
// and the per-device base compute load.
func newRefineCtx(p *planner) *refineCtx {
	rc := &refineCtx{
		p:    p,
		rate: p.o.Topo.GPU.EffectiveRate(p.built.Cfg.Model.DType),
		base: make([]units.Duration, p.o.Topo.NumGPUs),
	}
	g := p.built.Graph
	for i := 0; i < g.Len(); i++ {
		op := g.Op(graph.OpID(i))
		switch op.Kind {
		case graph.Forward, graph.Backward:
			rc.base[p.plan.Mapping[op.Stage]] += rc.rate.ComputeTime(op.FLOPs)
		case graph.OptimizerStep:
			rc.base[p.plan.Mapping[op.Stage]] += p.o.Topo.GPU.HBM.TransferTime(op.MoveBytes)
		}
	}
	return rc
}

// convertToD2D retargets a group to D2D on trial t. When the spare
// budget cannot host all of the group's in-flight instances, the
// conversion is partial: only microbatch instances in coexistence
// slots with a planned stripe layout move to D2D (the paper likewise
// applies D2D tensor by tensor where spare allows).
func (p *planner) convertToD2D(t *trial, key groupKey) bool {
	ids := p.groupTensors(key.Stage, key.Block)
	if len(ids) == 0 || t.inUse[key] == MechD2D {
		return false
	}
	b := p.built
	inflight := b.Cfg.Kind.InFlight(key.Stage, b.NumStages(), b.Cfg.Microbatches)
	src := t.plan.Mapping[key.Stage]
	size := b.Graph.Tensors.Get(ids[0]).Size

	layouts := make([][]fabric.Part, 0, inflight)
	for i := 0; i < inflight; i++ {
		parts := p.planStripes(t.spare, src, size)
		if parts == nil {
			break
		}
		layouts = append(layouts, parts)
	}
	if len(layouts) == 0 {
		return false
	}
	// Instances whose coexistence slot (m mod inflight) lacks a layout
	// keep their previous mechanism; instances of the same slot never
	// overlap in time, so they share one layout. Already converted
	// instances (from an earlier partial pass) are skipped.
	converted := 0
	slotLayout := make(map[int][]fabric.Part)
	next := 0
	for i, id := range ids {
		if t.plan.Act[id] == MechD2D {
			continue
		}
		slot := i % inflight
		lay, ok := slotLayout[slot]
		if !ok {
			if next >= len(layouts) {
				continue
			}
			lay = layouts[next]
			next++
			slotLayout[slot] = lay
		}
		t.plan.Act[id] = MechD2D
		t.plan.Parts[id] = lay
		converted++
	}
	// Return unused layouts to the trial's budget.
	for _, l := range layouts[next:] {
		compaction.UnplanStripes(t.spare, l)
	}
	if converted == 0 {
		return false
	}
	allD2D := true
	for _, id := range ids {
		if t.plan.Act[id] != MechD2D {
			allD2D = false
			break
		}
	}
	if allD2D {
		t.inUse[key] = MechD2D
	}
	return true
}

// convertToRecompute retargets a hostswap group to recomputation on
// trial t. Instances an earlier partial pass already moved to D2D
// keep their stripes (their peer memory is paid for; dropping them
// would leak the trial's spare budget).
func (p *planner) convertToRecompute(t *trial, key groupKey) bool {
	ids := p.groupTensors(key.Stage, key.Block)
	if len(ids) == 0 {
		return false
	}
	converted := 0
	for _, id := range ids {
		if t.plan.Act[id] == MechD2D {
			continue
		}
		t.plan.Act[id] = MechRecompute
		converted++
	}
	if converted == 0 {
		return false
	}
	t.inUse[key] = MechRecompute
	return true
}

// simulate lays pl over the frozen base lowering, building the overlay
// in ov, and runs it bounded. Nothing of the Result aliases the
// overlay, so the next simulate may rebuild it. Pure with respect to
// planner state, so refinement workers may call it concurrently, each
// with its own overlay; emulate is the sequential counting wrapper the
// OOM-retry loop uses.
func (p *planner) simulate(pl *Plan, ov *exec.Overlay) (*exec.Result, error) {
	opts, err := apply(pl, p.built, p.o.Topo, ov)
	if err != nil {
		return nil, err
	}
	opts.Ctx = p.o.Ctx
	res, err := exec.Run(*opts)
	if Simulated != nil {
		Simulated(opts, res)
	}
	return res, err
}

// Simulated, when non-nil, is called with the options and result (nil
// on an error) of every emulation, charged or not (a wave's candidates
// after its first improving one are not), so tests can hold each one to
// a reference run. Wave slots call it concurrently.
var Simulated func(*exec.Options, *exec.Result)

// emulate is simulate, on a fresh overlay, plus the Plan.Emulations
// charge.
func (p *planner) emulate(pl *Plan) (*exec.Result, error) {
	p.emulations++
	return p.simulate(pl, new(exec.Overlay))
}
