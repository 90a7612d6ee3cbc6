// Refinement (planner step 4) with parallel trial evaluation.
//
// Each candidate conversion is evaluated on a snapshot of the round's
// incumbent trial (its dense per-tensor decisions and spare budget),
// copied into its worker's own trial, instead of mutating shared state
// and undoing on rejection. Snapshots make candidates independent, so a
// pool of workers can emulate them concurrently, as a sliding window over the
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
// re-allocating what the last one had: each worker keeps one trial and
// one overlay builder (the exec.Overlay arrays and the options' maps)
// for the whole call, copying the incumbent into the one and
// rebuilding the other in place for each of its emulations over the
// frozen base, and exec.Run pools its own per-run slices.
package plan

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"mpress/internal/compaction"
	"mpress/internal/exec"
	"mpress/internal/graph"
	"mpress/internal/hw"
	"mpress/internal/tensor"
	"mpress/internal/units"
)

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
// only read it: each evaluation mutates only its worker's state.
type refineCtx struct {
	p *planner
	// base is per-device serial compute-queue work excluding
	// recomputation: forward/backward compute plus optimizer HBM
	// time, from the reference lowering.
	base []units.Duration
	rate units.FLOPSRate
}

// worker is one refinement worker's state, reused across its
// evaluations: the trial it prices candidates on (nil once it has
// handed an improving one to the committer) and its overlay.
type worker struct {
	t  *trial
	ov overlay
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
			var w worker
			for j := range jobs {
				results <- done{j, rc.evaluate(&w, j.r, j.i)}
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
		p.cur = res[winner].t
		current = res[winner].dur
		if !rejected {
			width = 1
		}
	}
	return current, nil
}

// round is one refinement round as its workers read it: the ranked
// candidates and the incumbent they are priced against. Nothing writes
// the incumbent: adopting a winner replaces the planner's trial, so an
// evaluation still running after the committer has adopted one reads
// nothing the next round changes.
type round struct {
	n       int
	cands   []candidate
	inc     *trial
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
	r := &round{n: n, cands: cands, inc: p.cur, current: current}
	r.ctx, r.cancel = context.WithCancelCause(parent)
	return r
}

// snapshot copies the round's incumbent into t, reusing its arrays (a
// new trial when t is nil), and returns it.
func (r *round) snapshot(t *trial) *trial {
	return r.inc.copyInto(t)
}

// rank enumerates this round's candidates worst static overhead first,
// with (stage, block) breaking ties so the order is total.
func (rc *refineCtx) rank() []candidate {
	p := rc.p
	var cands []candidate
	for key, ids := range p.groups {
		mech := groupMech(p.cur.act, ids)
		if mech != MechRecompute && mech != MechHostSwap {
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

// evaluate prices round r's candidate i on worker w's trial: prefer
// retargeting to D2D (the paper's refinement); when spare memory is
// exhausted or D2D does not help, fall back to trading the hostswap
// group for recomputation. It reads the round, never the planner's
// mutable state, and mutates only w, so workers may run it
// concurrently, and past the round's end.
func (rc *refineCtx) evaluate(w *worker, r *round, i int) evalResult {
	var res evalResult
	c := r.cands[i]
	w.t = r.snapshot(w.t)
	if rc.p.convertToD2D(w.t, c.key) {
		if done := rc.arbitrate(r, i, w, &res); done {
			return res
		}
	}
	if c.recompute {
		w.t = r.snapshot(w.t)
		if rc.p.convertToRecompute(w.t, c.key) {
			if done := rc.arbitrate(r, i, w, &res); done {
				return res
			}
		}
	}
	return res
}

// arbitrate prices w's trial, for round r's candidate i, against the
// incumbent, building its overlay in w's, filling res and reporting
// whether the candidate is settled (improved or errored). An improving
// trial passes to res, and w takes a new one next time. Ties are
// accepted: an equal-duration D2D route still relieves the PCIe link
// and GPU compute the other mechanisms consume.
func (rc *refineCtx) arbitrate(r *round, i int, w *worker, res *evalResult) bool {
	t := w.t
	if rc.lowerBound(&t.decisions) > r.current {
		// Provably cannot improve: skip the emulation entirely. Not
		// charged as an arbitration — the sequential definition of
		// Plan.Emulations counts verdicts, and the prune is
		// deterministic at any worker count.
		return false
	}
	run, err := rc.p.simulate(r.ctx, &t.decisions, &w.ov, r.n, i)
	if err != nil {
		res.err = err
		return true
	}
	res.arbs++
	if run.OOM == nil && run.Duration <= r.current {
		res.t, res.dur = t, run.Duration
		w.t = nil
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
func (rc *refineCtx) lowerBound(d *decisions) units.Duration {
	p := rc.p
	n := len(rc.base) // GPUs
	extra := make([]units.Duration, n)
	// link[src*n+dst] is the bytes D2D stripes move from src to dst.
	link := make([]units.Bytes, n*n)
	for i, mech := range d.act {
		switch id := tensor.ID(i); mech {
		case MechRecompute:
			tn := p.built.Graph.Tensors.Get(id)
			dev := d.mapping[tn.Stage]
			flops, _ := p.built.RecomputeFLOPs(id)
			extra[dev] += compaction.RecomputeCost(flops, rc.rate)
		case MechD2D:
			tn := p.built.Graph.Tensors.Get(id)
			src := int(d.mapping[tn.Stage])
			for _, part := range d.parts(id) {
				// One scatter and one gather per instance; count the
				// scatter direction only (the gather mirrors it on the
				// reverse lane set) — undercounting keeps the bound
				// sound.
				link[src*n+int(part.Peer)] += part.Bytes
			}
		}
	}
	var bound units.Duration
	for dev, b := range rc.base {
		if t := b + extra[dev]; t > bound {
			bound = t
		}
	}
	// Every stripe the planner lays carries bytes, so the pairs with
	// none are the ones no stripe crosses.
	for k, bytes := range link {
		if bytes == 0 {
			continue
		}
		lanes := p.o.Topo.LanesBetween(hw.DeviceID(k/n), hw.DeviceID(k%n))
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
			rc.base[p.cur.mapping[op.Stage]] += rc.rate.ComputeTime(op.FLOPs)
		case graph.OptimizerStep:
			rc.base[p.cur.mapping[op.Stage]] += p.o.Topo.GPU.HBM.TransferTime(op.MoveBytes)
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
	if len(ids) == 0 || groupMech(t.act, ids) == MechD2D {
		return false
	}
	b := p.built
	inflight := b.Cfg.Kind.InFlight(key.Stage, b.NumStages(), b.Cfg.Microbatches)
	src := t.mapping[key.Stage]
	size := b.Graph.Tensors.Get(ids[0]).Size

	first := len(t.layouts)
	for i := 0; i < inflight; i++ {
		parts := p.planStripes(t.spare, src, size)
		if parts == nil {
			break
		}
		t.layouts = append(t.layouts, parts)
	}
	planned := len(t.layouts)
	if planned == first {
		return false
	}
	// Instances whose coexistence slot (m mod inflight) lacks a layout
	// keep their previous mechanism; instances of the same slot never
	// overlap in time, so they share one layout. Already converted
	// instances (from an earlier partial pass) are skipped. slotLayout
	// holds each slot's layout index, 0 until it takes one.
	converted := 0
	slotLayout := make([]int32, inflight)
	next := first
	for i, id := range ids {
		if t.act[id] == MechD2D {
			continue
		}
		slot := i % inflight
		if slotLayout[slot] == 0 {
			if next >= planned {
				continue
			}
			slotLayout[slot] = int32(next)
			next++
		}
		t.act[id] = MechD2D
		t.layout[id] = slotLayout[slot]
		converted++
	}
	// Return unused layouts to the trial's budget.
	for _, l := range t.layouts[next:] {
		compaction.UnplanStripes(t.spare, l)
	}
	t.layouts = t.layouts[:next]
	return converted > 0
}

// convertToRecompute retargets a hostswap group to recomputation on
// trial t. Instances an earlier partial pass already moved to D2D
// keep their stripes (their peer memory is paid for; dropping them
// would leak the trial's spare budget).
func (p *planner) convertToRecompute(t *trial, key groupKey) bool {
	converted := 0
	for _, id := range p.groupTensors(key.Stage, key.Block) {
		if t.act[id] == MechD2D {
			continue
		}
		t.act[id] = MechRecompute
		converted++
	}
	return converted > 0
}

// simulate lays d over the frozen base lowering, building the overlay
// in ov, and runs it bounded by ctx. Nothing of the Result aliases the
// overlay, so the next simulate may rebuild it. Pure with respect to
// planner state, so refinement workers may call it concurrently, each
// with its own overlay; round and rank place it for Simulated. A run
// stopped because its round settled returns the round's *Abandoned; so
// does one whose round settled while its overlay was being built, which
// then runs no event.
func (p *planner) simulate(ctx context.Context, d *decisions, ov *overlay, round, rank int) (*exec.Result, error) {
	if ctx != nil && ctx.Err() != nil {
		return nil, cancelled(ctx)
	}
	opts, err := apply(d, p.built, p.o.Topo, ov)
	if err != nil {
		return nil, err
	}
	if ctx != nil && ctx.Err() != nil {
		return nil, cancelled(ctx)
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
	// Opts, with its overlay and maps, belongs to the refinement
	// worker, whose next emulation rebuilds it in place.
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
func (p *planner) emulate(d *decisions) (*exec.Result, error) {
	p.emulations++
	return p.simulate(p.o.Ctx, d, new(overlay), -1, -1)
}
