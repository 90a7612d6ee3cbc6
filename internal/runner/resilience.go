package runner

import (
	"context"
	"fmt"

	"mpress/internal/chaos"
	"mpress/internal/ckpt"
	"mpress/internal/cluster"
	"mpress/internal/exec"
	"mpress/internal/graph"
	"mpress/internal/hw"
	"mpress/internal/memsim"
	"mpress/internal/trace"
	"mpress/internal/units"
)

// This file orchestrates resilient runs: the Execute stage's fault-free
// result is the ideal baseline, then stageResilience replays the job
// under the fault schedule — running execution segments with periodic
// checkpoints, and on each injected failure rolling back to the last
// durable checkpoint, degrading the topology, re-running the
// partition/plan pipeline on the survivors and resuming. The outcome
// is a goodput model: total wall clock including checkpoint stalls,
// lost work and recovery latency.

// Recovery logs one fault's aftermath.
type Recovery struct {
	// Fault is the injected fault (its At is resilient wall-clock).
	Fault chaos.Fault `json:"fault"`
	// LostWork is the simulated progress discarded: time since the
	// last durable checkpoint of the failing segment.
	LostWork units.Duration `json:"lost_work"`
	// RecoveryTime is detection/restart delay plus the checkpoint
	// restore transfer on the degraded topology.
	RecoveryTime units.Duration `json:"recovery_time"`
	// ResumedMinibatch is the first minibatch index re-run after the
	// rollback (counting from the start of the job).
	ResumedMinibatch int `json:"resumed_minibatch"`
	// Topology names the (possibly degraded) topology the run resumed
	// on.
	Topology string `json:"topology"`
}

// resilSummary is stageResilience's hand-off to stageReport.
type resilSummary struct {
	wall         units.Duration // total resilient wall clock
	checkpoints  int
	ckptBytes    units.Bytes
	ckptTime     units.Duration // cumulative snapshot drain time
	lostWork     units.Duration
	recoveryTime units.Duration
	recoveries   []Recovery
	oom          *memsim.OOMError // degraded-topology OOM, if the run died
	segments     []resilSegment   // in run order; recoveries[i] follows segments[i]
}

// resilSegment is one execution segment's options, result and start.
type resilSegment struct {
	opts   exec.Options
	res    *exec.Result
	offset units.Duration
}

// Timeline merges a resilient run's segments (after Resilience; nil
// otherwise) and each fault's failure and recovery marks into one
// wall-clock trace, on every call: a job pays for it only when read.
func (st *State) Timeline() *trace.Timeline {
	sum := st.Resil
	if sum == nil {
		return nil
	}
	tl := &trace.Timeline{Stages: st.Built.NumStages(), Span: sum.wall}
	for i, seg := range sum.segments {
		part := trace.Collect(&seg.opts, seg.res)
		tl.Stages = max(tl.Stages, part.Stages)
		for _, e := range part.Events {
			e.Start, e.End = e.Start+seg.offset, e.End+seg.offset
			tl.Events = append(tl.Events, e)
		}
		if i < len(sum.recoveries) {
			rec, at := sum.recoveries[i], seg.offset+units.Duration(seg.res.Failure.At)
			tl.Events = append(tl.Events,
				trace.Event{Name: rec.Fault.String(), Kind: graph.Failure, Stage: -1, Microbatch: -1, Start: at, End: at},
				trace.Event{Name: "recovery", Kind: graph.Recovery, Stage: -1, Microbatch: -1, Start: at, End: at + rec.RecoveryTime})
		}
	}
	return tl
}

// aliveSet tracks which of the original GPUs survive, translating
// healthy-topology fault targets into the renumbered degraded
// topology.
type aliveSet struct {
	alive []bool
	links map[[2]hw.DeviceID]bool // downed NVLink pairs (original numbering)
}

func newAliveSet(n int) *aliveSet {
	a := &aliveSet{alive: make([]bool, n), links: map[[2]hw.DeviceID]bool{}}
	for i := range a.alive {
		a.alive[i] = true
	}
	return a
}

// current returns the degraded-topology index of original GPU g, or
// false if it is dead.
func (a *aliveSet) current(g hw.DeviceID) (hw.DeviceID, bool) {
	if !g.IsGPU() || int(g) >= len(a.alive) || !a.alive[g] {
		return 0, false
	}
	idx := 0
	for i := 0; i < int(g); i++ {
		if a.alive[i] {
			idx++
		}
	}
	return hw.DeviceID(idx), true
}

func pairKey(a, b hw.DeviceID) [2]hw.DeviceID {
	if a > b {
		a, b = b, a
	}
	return [2]hw.DeviceID{a, b}
}

// relevant reports whether the fault still targets live hardware —
// without mutating the alive set (applyFault does that, after the
// failing segment has been charged).
func (a *aliveSet) relevant(topo *hw.Topology, f chaos.Fault) bool {
	switch f.Kind {
	case chaos.GPUFail:
		_, ok := a.current(f.GPU)
		return ok
	case chaos.NVLinkFail:
		if a.links[pairKey(f.GPU, f.Peer)] {
			return false
		}
		ca, okA := a.current(f.GPU)
		cb, okB := a.current(f.Peer)
		return okA && okB && topo.LanesBetween(ca, cb) > 0
	default: // NICFlap, HostPressure always bite
		return true
	}
}

// applyFault degrades topo for a fault that relevant accepted on the
// same topology and alive set. NIC flaps leave the topology intact —
// they cost a rollback, nothing more.
func (a *aliveSet) applyFault(topo *hw.Topology, f chaos.Fault) (*hw.Topology, error) {
	switch f.Kind {
	case chaos.GPUFail:
		if topo.NumGPUs <= 1 {
			return nil, fmt.Errorf("mpress: fault %v leaves no GPUs", f)
		}
		cur, _ := a.current(f.GPU)
		deg, err := topo.WithoutGPU(cur)
		if err != nil {
			return nil, err
		}
		a.alive[f.GPU] = false
		return deg, nil
	case chaos.NVLinkFail:
		ca, _ := a.current(f.GPU)
		cb, _ := a.current(f.Peer)
		deg, err := topo.WithoutNVLink(ca, cb)
		if err != nil {
			return nil, err
		}
		a.links[pairKey(f.GPU, f.Peer)] = true
		return deg, nil
	case chaos.NICFlap:
		return topo, nil
	case chaos.HostPressure:
		mem := topo.HostMemory - f.HostLoss
		if min := units.GiB; mem < min {
			mem = min // a starved host still has something
		}
		return topo.WithHostMemory(mem)
	default:
		return nil, fmt.Errorf("mpress: unknown fault kind %v", f.Kind)
	}
}

// segment holds the executable artifacts of one run attempt.
type segment struct {
	topo  *hw.Topology
	state *State // Part/Built/Plan/Mapping/ExecOpts for the attempt
}

// replan re-runs the partition → apply pipeline for the remaining
// minibatches on a (possibly degraded) topology, reusing the runner's
// plan cache and shared lowerings across repeated failures with
// identical degradation. The segment's lowerings are held by the
// resilient job's own lease, st.
func replan(ctx context.Context, st *State, topo *hw.Topology, remaining int) (*segment, error) {
	base := st.Job.Config
	sub := base
	sub.Topology = topo
	sub.Faults, sub.Checkpoint = nil, nil
	sub.Minibatches = remaining
	// A one-stage-per-GPU pipeline re-partitions across the survivors;
	// explicitly virtual (plain-system) stage counts stay as configured
	// and wrap. The batch shape is the job's, not the machine's, so
	// MicrobatchSize/Microbatches are untouched.
	if sub.Stages > topo.NumGPUs &&
		(sub.System != SystemPlain || sub.Stages == base.Topology.NumGPUs) {
		sub.Stages = topo.NumGPUs
	}
	if sub.Cluster != nil && sub.Cluster.Server != topo {
		clus, err := cluster.New(sub.Cluster.Nodes, topo, sub.Cluster.Net)
		if err != nil {
			return nil, fmt.Errorf("mpress: recomposing degraded cluster: %w", err)
		}
		sub.Cluster = clus
	}
	j, err := NewJob(sub)
	if err != nil {
		return nil, fmt.Errorf("mpress: re-planning on %q: %w", topo.Name, err)
	}
	seg := &State{Job: j, cache: st.cache, lowers: st.lowers, workers: st.workers}
	for _, s := range prepStages {
		if err := s.run(ctx, seg); err != nil {
			return nil, fmt.Errorf("mpress: re-planning on %q: %w", topo.Name, err)
		}
	}
	return &segment{topo: topo, state: seg}, nil
}

// stageResilience runs the checkpointed, fault-injected replay. It
// requires the Execute stage's fault-free result (the ideal baseline)
// and leaves the final — possibly re-planned — Plan/Mapping on the
// State, plus the resilSummary for stageReport, whose segments
// State.Timeline merges on request.
func stageResilience(ctx context.Context, st *State) error {
	c := st.Job.Config
	if st.Exec.OOM != nil {
		return nil // the ideal run already died; nothing to replay
	}

	faults := c.Faults.Schedule(c.Topology, c.Replicas())
	var spec *exec.CheckpointSpec
	if c.Checkpoint != nil {
		var mtbf units.Duration
		if c.Faults != nil {
			mtbf = c.Faults.MTBF
		}
		every := c.Checkpoint.Resolve(ckpt.Cost(c.Topology, ckpt.StageBytes(st.Built)), mtbf)
		if every <= 0 {
			return fmt.Errorf("mpress: checkpoint interval resolved to %v; set Checkpoint.Interval or Faults.MTBF", every)
		}
		spec = &exec.CheckpointSpec{Every: every}
	}

	sum := &resilSummary{}
	alive := newAliveSet(c.Topology.NumGPUs)
	seg := &segment{topo: c.Topology, state: st}
	remaining := c.Minibatches
	var wall units.Duration
	fi := 0

	for {
		// Next fault that still targets live hardware — dead-target
		// faults are skipped for free.
		var fault *chaos.Fault
		for fi < len(faults) {
			f := faults[fi]
			if alive.relevant(seg.topo, f) {
				fault = &f
				break
			}
			fi++
		}

		opts := *seg.state.ExecOpts
		opts.Ctx = ctx
		opts.Checkpoint = spec
		if fault != nil {
			rel := fault.At - wall
			if rel <= 0 {
				rel = units.Microsecond // fault queued up during recovery
			}
			opts.FailAt = rel
		}
		res, err := exec.Run(opts)
		if err != nil {
			return err
		}
		sum.segments = append(sum.segments, resilSegment{opts, res, wall})
		sum.checkpoints += len(res.Checkpoints)
		sum.ckptBytes += res.CheckpointBytes
		for _, rec := range res.Checkpoints {
			sum.ckptTime += units.Duration(rec.End - rec.Start)
		}
		if res.OOM != nil {
			// The degraded machine cannot hold the job (e.g. host
			// pressure starved the swap space): the run dies here.
			sum.oom = res.OOM
			sum.wall = wall + res.Duration
			break
		}
		if res.Failure == nil {
			sum.wall = wall + res.Duration
			break
		}

		// The segment failed. Roll back to its last durable checkpoint.
		durable := 0
		lost := units.Duration(res.Failure.At)
		if n := len(res.Checkpoints); n > 0 {
			last := res.Checkpoints[n-1]
			durable = last.Minibatch + 1
			lost = units.Duration(res.Failure.At - last.End)
		}
		remaining -= durable
		wall += units.Duration(res.Failure.At)
		sum.lostWork += lost

		// Degrade the topology and re-plan on the survivors.
		newTopo, err := alive.applyFault(seg.topo, *fault)
		if err != nil {
			return err
		}
		fi++
		if newTopo != seg.topo {
			if seg, err = replan(ctx, st, newTopo, remaining); err != nil {
				return err
			}
		} else if remaining != seg.state.Built.Cfg.Minibatches {
			// Same topology (NIC flap), fewer minibatches left.
			if seg, err = replan(ctx, st, seg.topo, remaining); err != nil {
				return err
			}
		}

		// Pay detection plus the checkpoint restore onto the new
		// topology (nothing to restore before the first checkpoint —
		// the job restarts from its initial state).
		recovery := c.Faults.Detection()
		if c.Minibatches-remaining > 0 {
			recovery += ckpt.RestoreCost(seg.topo, ckpt.StageBytes(seg.state.Built))
		}
		sum.recoveryTime += recovery
		wall += recovery
		sum.recoveries = append(sum.recoveries, Recovery{
			Fault:            *fault,
			LostWork:         lost,
			RecoveryTime:     recovery,
			ResumedMinibatch: c.Minibatches - remaining,
			Topology:         seg.topo.Name,
		})
	}

	st.Resil = sum
	// Report the plan the job ended on: after a degradation this is the
	// re-planned one whose striping excludes the dead hardware.
	if seg.state != st {
		st.Plan = seg.state.Plan
		st.Mapping = seg.state.Mapping
		st.Recovered = seg.state.Built
	}
	return nil
}
