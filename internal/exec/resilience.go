package exec

import (
	"fmt"

	"mpress/internal/ckpt"
	"mpress/internal/graph"
	"mpress/internal/memsim"
	"mpress/internal/sim"
	"mpress/internal/units"
)

// This file is the engine's resilience surface: periodic checkpoint
// snapshots of persistent state to the host/NVMe tier, and injected
// hardware failures that cut a run short. The rollback / re-plan /
// resume orchestration lives in internal/runner; the engine only
// models what one process observes — snapshots draining over PCIe and
// the clock stopping dead at the fault.

// CheckpointSpec enables periodic checkpointing inside one run.
type CheckpointSpec struct {
	// Every is the minimum simulated time between snapshot starts.
	// Snapshots begin only at minibatch boundaries (every stage's
	// optimizer step for the minibatch has completed), the point where
	// the persistent state is consistent without quiescing the
	// pipeline.
	Every units.Duration
}

// Checkpoint records one completed snapshot.
type Checkpoint struct {
	Start sim.Time
	End   sim.Time
	// Bytes is the snapshot payload (weights + optimizer state of
	// every stage).
	Bytes units.Bytes
	// Minibatch is the last minibatch whose updates the snapshot
	// contains: a restore resumes after minibatch Minibatch.
	Minibatch int
}

// Failure records an injected hardware fault that stopped the run.
type Failure struct {
	// At is when the fault fired; work after the last completed
	// checkpoint is lost.
	At sim.Time
}

// ckptState is the engine's checkpoint/failure bookkeeping.
type ckptState struct {
	spec     *CheckpointSpec
	optMini  map[graph.OpID]int // optimizer op -> minibatch
	optLeft  []int              // outstanding optimizer ops per minibatch
	perStage []units.Bytes      // snapshot payload per stage
	total    units.Bytes
	tier     *memsim.Device // host, or NVMe when the topology has SSDs
	last     sim.Time       // start time of the newest snapshot
	retained units.Bytes    // bytes of the previous snapshot still held
	records  []Checkpoint
}

// initResilience wires checkpoint gating and the failure event. Called
// from init() after dependency bookkeeping exists.
func (e *engine) initResilience() error {
	b := e.o.Built
	if spec := e.o.Checkpoint; spec != nil {
		if spec.Every <= 0 {
			return fmt.Errorf("exec: checkpoint interval %v must be positive", spec.Every)
		}
		c := &ckptState{
			spec:     spec,
			optMini:  make(map[graph.OpID]int),
			optLeft:  make([]int, b.Cfg.Minibatches),
			perStage: ckpt.StageBytes(b),
			tier:     e.host,
		}
		c.total = ckpt.Total(c.perStage)
		if e.fab.HasNVMe() {
			c.tier = e.nvme
		}
		for _, perMini := range b.OptOps {
			for q, ops := range perMini {
				for _, id := range ops {
					c.optMini[id] = q
					c.optLeft[q]++
					// Gate minibatch q's optimizer steps behind the
					// snapshot (if any) taken at the q-1 boundary —
					// the snapshot reads the very state these steps
					// overwrite. Released by boundary().
					if q > 0 {
						e.preds[id]++
					}
				}
			}
		}
		e.ckpt = c
	}
	if e.o.FailAt < 0 {
		return fmt.Errorf("exec: negative FailAt %v", e.o.FailAt)
	}
	if e.o.FailAt > 0 {
		e.sim.Post(e.o.FailAt, sim.Event{Kind: evFail})
	}
	return nil
}

// failNow is the injected-fault event. If the graph already drained,
// the fault missed the run and is ignored (the spurious event still
// advanced the clock, which result() compensates for via lastEnd).
func (e *engine) failNow() {
	if e.opsLeft == 0 {
		return
	}
	e.failure = &Failure{At: e.sim.Now()}
	e.sim.Stop()
}

// boundary runs when every stage's optimizer step for minibatch q has
// completed: the moment persistent state is globally consistent. It
// either starts a snapshot (holding minibatch q+1's optimizer steps
// until the drain completes) or immediately releases them.
func (e *engine) boundary(q int) {
	c := e.ckpt
	if q+1 >= e.o.Built.Cfg.Minibatches {
		return // final state; nothing downstream is gated
	}
	now := e.sim.Now()
	if now-c.last < c.spec.Every {
		e.releaseOptGate(q + 1)
		return
	}
	c.last = now
	// The new snapshot coexists with the previous one until it is
	// durable (atomic replace); charge it before the transfer.
	if err := c.tier.Alloc(c.total, "checkpoint"); err != nil {
		e.fail(err.(*memsim.OOMError))
		return
	}
	end := now
	for s, bytes := range c.perStage {
		if bytes <= 0 {
			continue
		}
		if _, e1 := e.fab.HostLink(e.place.GPU(s), bytes, true); e1 > end {
			end = e1
		}
	}
	if e.fab.HasNVMe() {
		if _, e2 := e.fab.NVMeXfer(c.total); e2 > end {
			end = e2
		}
	}
	e.sim.Post(end, sim.Event{Kind: evDrained, Arg: int32(q), Start: now})
}

// drained runs when the snapshot taken at minibatch q's boundary, which
// started at start, is durable: it replaces the previous snapshot and
// releases minibatch q+1's optimizer steps.
func (e *engine) drained(q int, start sim.Time) {
	c := e.ckpt
	end := e.sim.Now()
	if c.retained > 0 {
		c.tier.Release(c.retained)
	}
	c.retained = c.total
	c.records = append(c.records, Checkpoint{Start: start, End: end, Bytes: c.total, Minibatch: q})
	if end > e.lastEnd {
		e.lastEnd = end
	}
	e.releaseOptGate(q + 1)
}

// releaseOptGate drops the checkpoint gate from every stage's
// optimizer step for minibatch q.
func (e *engine) releaseOptGate(q int) {
	for _, perMini := range e.o.Built.OptOps {
		for _, id := range perMini[q] {
			e.preds[id]--
			if e.preds[id] == 0 {
				e.dispatch(id)
			}
		}
	}
}
