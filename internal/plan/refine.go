// Refinement (planner step 4) with parallel trial evaluation.
//
// Each candidate conversion is evaluated on a copy-on-write snapshot
// of the round's incumbent (plan assignment, spare budget, group
// mechanisms) instead of mutating shared state and undoing on
// rejection. Snapshots make candidates independent, so a pool of
// workers can emulate them concurrently, as a sliding window over the
// ranking; determinism is preserved by settling in rank order, not
// completion order: the round's winner is the first improving
// candidate by the (overhead desc, stage, block) ranking — exactly the
// candidate the sequential scan would have accepted — so plans are
// byte-identical at any Options.Workers setting.
//
// One shortcut skips emulations without changing the outcome: a static
// lower bound prunes candidates that provably cannot beat the incumbent
// duration (acceptance needs emulated duration ≤ current, and the
// emulated duration can never fall below the busiest serial resource's
// total work). Every other candidate is settled by one emulation.
//
// An emulation pays for its overlay and its event loop, not for
// re-allocating what the last one had: each worker keeps one overlay
// (exec.Overlay) for the whole call and rebuilds it in place for each
// of its emulations over the frozen base, and exec.Run pools its own
// per-run slices.
package plan

import (
	"cmp"
	"context"
	"errors"
	"fmt"
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

// refineCtx carries one refineWithD2D call's fixed inputs. Workers
// only read it: each evaluation mutates its own trial snapshot and its
// worker's overlay.
type refineCtx struct {
	p *planner
	// base is per-device serial compute-queue work excluding
	// recomputation: forward/backward compute plus optimizer HBM
	// time, from the reference lowering.
	base []units.Duration
	rate units.FLOPSRate
}

// refineWithD2D is step 4: convert the worst-overhead groups to D2D
// (or trade hostswap for recomputation) while the emulator agrees it
// helps. Options.Workers workers, each with its own overlay, evaluate a
// round's ranked candidates as a sliding window: a free worker takes
// the next candidate, and the committer settles results in rank order,
// adopting the first improving candidate once every candidate ranked
// before it is settled. Evaluations ranked after the winner are
// abandoned: the round's context is cancelled, their results are
// discarded uncharged, and the next round starts on the free workers
// without waiting for them. Every worker has exited when this returns.
func (p *planner) refineWithD2D(current units.Duration) (units.Duration, error) {
	workers := max(1, p.o.Workers)
	parent := p.o.Ctx
	if parent == nil {
		parent = context.Background()
	}
	rc := newRefineCtx(p)

	type job struct {
		r *round
		i int
	}
	type done struct {
		job
		res evalResult
	}
	jobs := make(chan job)
	// At most workers jobs are out at once, so no worker blocks on a
	// send, even after the committer has returned.
	results := make(chan done, workers)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ov exec.Overlay
			for j := range jobs {
				results <- done{j, rc.evaluate(&ov, j.r, j.i)}
			}
		}()
	}
	var r *round
	defer func() {
		if r != nil {
			r.cancel(nil)
		}
		close(jobs)
		wg.Wait()
	}()

	busy := 0 // jobs out, of this round or an abandoned one
	// width bounds a round's unsettled candidates. A round whose winner
	// no emulated rejection preceded gains nothing from running ahead,
	// and the rank after it only takes a core from the winner, so the
	// next round opens one candidate at a time; its first emulated
	// rejection opens the window to every worker again.
	width := workers
	for n := 0; n < maxRefinements; n++ {
		cands := rc.rank()
		if len(cands) == 0 {
			return current, nil
		}
		r = p.newRound(parent, n, cands, current)
		res := make([]evalResult, len(cands))
		got := make([]bool, len(cands))
		next, head, winner := 0, 0, -1
		rejected := false
		for winner < 0 && head < len(cands) {
			for ; busy < workers && next-head < width && next < len(cands); next++ {
				jobs <- job{r, next}
				busy++
			}
			d := <-results
			busy--
			if d.r != r {
				continue // abandoned by an earlier round
			}
			res[d.i], got[d.i] = d.res, true
			// Settle in rank order: charge each candidate's
			// arbitrations until (and including) the first improving
			// one, the arbitrations the sequential scan would have
			// consumed.
			for ; winner < 0 && head < len(cands) && got[head]; head++ {
				if err := res[head].err; err != nil {
					return 0, err
				}
				p.emulations += res[head].arbs
				if res[head].t != nil {
					winner = head
				} else if res[head].arbs > 0 {
					rejected, width = true, workers
				}
			}
		}
		r.cancel(&Abandoned{Winner: winner})
		if winner < 0 {
			return current, nil
		}
		p.adopt(res[winner].t)
		current = res[winner].dur
		if !rejected {
			width = 1
		}
	}
	return current, nil
}

// round is one refinement round as its workers read it: the ranked
// candidates and the incumbent they are priced against. The incumbent
// is held by value and never written, so an evaluation still running
// after the committer has adopted a winner reads nothing the next round
// changes.
type round struct {
	n       int
	cands   []candidate
	inc     Plan
	spare   compaction.SpareBudget
	inUse   map[groupKey]Mechanism
	current units.Duration
	// ctx is a child of Options.Ctx, cancelled once the round settles.
	ctx    context.Context
	cancel context.CancelCauseFunc
}

// Abandoned is the cancel cause of a round's evaluations once the round
// has settled: each still running is ranked after Winner (-1 when
// nothing improved), and its result is discarded uncharged. A run it
// stops reports it to Simulated as its error.
type Abandoned struct{ Winner int }

func (a *Abandoned) Error() string {
	return fmt.Sprintf("plan: evaluation abandoned: its round settled on rank %d", a.Winner)
}

// newRound opens round n over cands against the planner's incumbent.
func (p *planner) newRound(parent context.Context, n int, cands []candidate, current units.Duration) *round {
	r := &round{n: n, cands: cands, inc: *p.plan, spare: p.spare, inUse: p.inUse, current: current}
	r.ctx, r.cancel = context.WithCancelCause(parent)
	return r
}

// snapshot clones the refinement-mutable state of the round's
// incumbent. Mapping and HostPersist are fixed during refinement and
// shared; the summary maps are filled only after it (finalizeSummary).
func (r *round) snapshot() *trial {
	return &trial{
		plan: &Plan{
			Mapping:     r.inc.Mapping,
			Act:         maps.Clone(r.inc.Act),
			Parts:       maps.Clone(r.inc.Parts),
			HostPersist: r.inc.HostPersist,
		},
		spare: r.spare.Clone(),
		inUse: maps.Clone(r.inUse),
	}
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

// evaluate prices round r's candidate i on its worker's overlay: prefer
// retargeting to D2D (the paper's refinement); when spare memory is
// exhausted or D2D does not help, fall back to trading the hostswap
// group for recomputation. It reads the round, never the planner's
// mutable state, and mutates only trial snapshots and the overlay, so
// workers may run it concurrently, and past the round's end.
func (rc *refineCtx) evaluate(ov *exec.Overlay, r *round, i int) evalResult {
	var res evalResult
	c := r.cands[i]
	t := r.snapshot()
	if rc.p.convertToD2D(t, c.key) {
		if done := rc.arbitrate(r, i, t, ov, &res); done {
			return res
		}
	}
	if c.recompute {
		t = r.snapshot()
		if rc.p.convertToRecompute(t, c.key) {
			if done := rc.arbitrate(r, i, t, ov, &res); done {
				return res
			}
		}
	}
	return res
}

// arbitrate prices trial t, for round r's candidate i, against the
// incumbent, building its overlay in ov, filling res and reporting
// whether the candidate is settled (improved or errored). Ties are
// accepted: an equal-duration D2D route still relieves the PCIe link
// and GPU compute the other mechanisms consume.
func (rc *refineCtx) arbitrate(r *round, i int, t *trial, ov *exec.Overlay, res *evalResult) bool {
	if rc.lowerBound(t.plan) > r.current {
		// Provably cannot improve: skip the emulation entirely. Not
		// charged as an arbitration — the sequential definition of
		// Plan.Emulations counts verdicts, and the prune is
		// deterministic at any worker count.
		return false
	}
	run, err := rc.p.simulate(r.ctx, t.plan, ov, r.n, i)
	if err != nil {
		res.err = err
		return true
	}
	res.arbs++
	if run.OOM == nil && run.Duration <= r.current {
		res.t, res.dur = t, run.Duration
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
// in ov, and runs it bounded by ctx. Nothing of the Result aliases the
// overlay, so the next simulate may rebuild it. Pure with respect to
// planner state, so refinement workers may call it concurrently, each
// with its own overlay; round and rank place it for Simulated. A run
// stopped because its round settled returns the round's *Abandoned.
func (p *planner) simulate(ctx context.Context, pl *Plan, ov *exec.Overlay, round, rank int) (*exec.Result, error) {
	if ctx != nil && ctx.Err() != nil {
		return nil, cancelled(ctx)
	}
	opts, err := apply(pl, p.built, p.o.Topo, ov)
	if err != nil {
		return nil, err
	}
	opts.Ctx = ctx
	res, err := exec.Run(*opts)
	if err != nil && ctx != nil && ctx.Err() != nil {
		err = cancelled(ctx)
	}
	if Simulated != nil {
		Simulated(Emulation{Opts: opts, Result: res, Err: err, Round: round, Rank: rank})
	}
	return res, err
}

// cancelled returns the error of a run ctx stopped: the round's
// *Abandoned, or the caller's own cancellation.
func cancelled(ctx context.Context) error {
	var ab *Abandoned
	if errors.As(context.Cause(ctx), &ab) {
		return ab
	}
	return ctx.Err()
}

// Emulation is one emulation as Simulated sees it.
type Emulation struct {
	Opts *exec.Options
	// Result is nil when Err is set.
	Result *exec.Result
	Err    error
	// Round and Rank place a refinement emulation: its round and its
	// candidate's rank there. Both are -1 for the planner's other
	// emulations.
	Round, Rank int
}

// Simulated, when non-nil, is called with every emulation that ran,
// charged or not (a round's evaluations after its winner are not), so
// tests can hold each one to a reference run. Refinement workers call
// it concurrently.
var Simulated func(Emulation)

// emulate is simulate, on a fresh overlay, plus the Plan.Emulations
// charge.
func (p *planner) emulate(pl *Plan) (*exec.Result, error) {
	p.emulations++
	return p.simulate(p.o.Ctx, pl, new(exec.Overlay), -1, -1)
}
