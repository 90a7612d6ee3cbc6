// Package profiler implements the static part's first step (paper
// Fig. 5, steps 1-2): run one training iteration on the emulator with
// unbounded memory and collect, per tensor, its size, the latencies of
// the operators around it, and its live intervals — the inputs of the
// planner's cost model (Table III).
package profiler

import (
	"fmt"
	"sort"

	"mpress/internal/exec"
	"mpress/internal/graph"
	"mpress/internal/hw"
	"mpress/internal/pipeline"
	"mpress/internal/sim"
	"mpress/internal/tensor"
	"mpress/internal/units"
)

// Window is one eviction opportunity for a tensor: the idle gap
// between the operator that generates it (or last used it) and its
// next use. The paper calls the gap the tensor's live interval
// (Sec. III-A footnote 1).
type Window struct {
	// From is the op after which the tensor becomes idle; To is the
	// op that needs it next.
	From graph.OpID
	To   graph.OpID
	// Gap is the idle duration between From's end and To's start.
	Gap units.Duration
}

// TensorStat aggregates one tensor's profile.
type TensorStat struct {
	Tensor tensor.ID
	// Windows lists the tensor's idle gaps in execution order.
	Windows []Window
}

// LongestWindow returns the widest idle gap, or a zero Window with
// From/To == -1 if the tensor has none.
func (ts TensorStat) LongestWindow() Window {
	best := Window{From: -1, To: -1}
	for _, w := range ts.Windows {
		if w.From >= 0 && (best.From < 0 || w.Gap > best.Gap) {
			best = w
		}
	}
	return best
}

// Profile is the collected result of a profiling run.
type Profile struct {
	// Stats is indexed by tensor ID.
	Stats []TensorStat
	// StagePeak is the per-stage peak memory demand measured with
	// unbounded capacity (what the job *wants*, not what fits).
	StagePeak []units.Bytes
	// Duration is the unconstrained iteration time — the baseline the
	// planner's emulator feedback compares against.
	Duration units.Duration
	// Spans are the per-op execution windows of the profiling run.
	Spans []exec.Span
	// SlotDuration is the typical compute-slot length per stage (the
	// prefetch budget available to a gated swap-in).
	SlotDuration []units.Duration
}

// Collect profiles one training iteration of built on topo under the
// given stage mapping (pass nil for the identity mapping).
func Collect(topo *hw.Topology, built *pipeline.Built, mapping []hw.DeviceID) (*Profile, error) {
	if mapping == nil {
		mapping = exec.IdentityMapping(built.NumStages())
	}
	res, err := exec.Run(exec.Options{
		Topo:      topo,
		Built:     built,
		Mapping:   mapping,
		Unbounded: true,
	})
	if err != nil {
		return nil, fmt.Errorf("profiler: %w", err)
	}
	if res.OOM != nil {
		return nil, fmt.Errorf("profiler: unbounded run reported OOM: %v", res.OOM)
	}

	g := built.Graph
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	live, err := g.Liveness()
	if err != nil {
		return nil, err
	}

	p := &Profile{
		Stats:    make([]TensorStat, g.Tensors.Len()),
		Duration: res.Duration,
		Spans:    res.Spans,
	}
	for t := 0; t < g.Tensors.Len(); t++ {
		id := tensor.ID(t)
		st := TensorStat{Tensor: id}
		// The idle points: after the producer, then after each use.
		type point struct {
			op  graph.OpID
			end sim.Time
		}
		var prev point
		if live.Def[id] >= 0 {
			op := order[live.Def[id]]
			prev = point{op: op, end: res.Spans[op].End}
		} else {
			prev = point{op: -1} // persistent: idle from t=0
		}
		for _, u := range live.Uses[id] {
			start := res.Spans[u.Op].Start
			gap := units.Duration(start) - units.Duration(prev.end)
			if gap < 0 {
				gap = 0
			}
			st.Windows = append(st.Windows, Window{From: prev.op, To: u.Op, Gap: gap})
			prev = point{op: u.Op, end: res.Spans[u.Op].End}
		}
		p.Stats[id] = st
	}

	// Per-stage peaks, indexed by stage (not GPU).
	p.StagePeak = make([]units.Bytes, built.NumStages())
	for s := range p.StagePeak {
		p.StagePeak[s] = res.GPUs[mapping[s]].Peak
	}

	// Median forward-slot duration per stage approximates the
	// prefetch budget of a gated restore.
	p.SlotDuration = make([]units.Duration, built.NumStages())
	perStage := make([][]units.Duration, built.NumStages())
	for i, op := range g.Ops() {
		if op.Kind == graph.Forward {
			sp := res.Spans[i]
			perStage[op.Stage] = append(perStage[op.Stage], units.Duration(sp.End-sp.Start))
		}
	}
	for s, ds := range perStage {
		if len(ds) == 0 {
			continue
		}
		sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
		p.SlotDuration[s] = ds[len(ds)/2]
	}
	return p, nil
}
