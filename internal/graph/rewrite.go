package graph

import (
	"fmt"

	"mpress/internal/tensor"
	"mpress/internal/units"
)

// SwapPair identifies the two operators created by InstrumentSwap.
type SwapPair struct {
	Out OpID
	In  OpID
}

// InstrumentSwap rewrites the graph to evict tensor t after op
// `afterOp` finishes and restore it before op `beforeOp` starts.
//
// `gate` controls when the restore may begin: the swap-in runs only
// after gate completes, so passing beforeOp's predecessor in the
// device schedule makes the transfer overlap that predecessor — the
// just-in-time prefetch the paper's executor implements with separate
// swap streams (Sec. III-E). Pass gate < 0 to allow the swap-in to
// start as soon as the swap-out finishes (eager restore).
//
// This is the rewriter primitive for both GPU-CPU swap and D2D swap;
// the executor decides the route by whether the tensor appears in its
// D2D stripe table. route only labels the op names for reports.
func (g *Graph) InstrumentSwap(t tensor.ID, afterOp, beforeOp, gate OpID, route string) SwapPair {
	out := g.InstrumentSwapOut(t, afterOp, route)
	in := g.InstrumentSwapIn(t, beforeOp, gate, route)
	g.AddDep(in, out)
	return SwapPair{Out: out, In: in}
}

// gated returns the deps of an op that follows dep and, when gate >= 0,
// waits for gate too.
func gated(dep, gate OpID) []OpID {
	if gate >= 0 {
		return []OpID{dep, gate}
	}
	return []OpID{dep}
}

// InstrumentSwapIn adds a swap-in restoring tensor t before op
// beforeOp, gated on gate (see InstrumentSwap, whose restore half it
// is). On its own it restores persistent tensors that start the
// iteration parked in host memory (exec's InitiallySwapped set).
func (g *Graph) InstrumentSwapIn(t tensor.ID, beforeOp, gate OpID, route string) OpID {
	tn := g.Tensors.Get(t)
	var deps []OpID
	if gate >= 0 {
		deps = []OpID{gate}
	}
	in := g.addInstrument(Op{
		Name:       g.opName(route, "-swapin:", SwapIn, t),
		Kind:       SwapIn,
		Stage:      tn.Stage,
		Layer:      tn.Layer,
		Microbatch: g.ops[beforeOp].Microbatch,
		MoveBytes:  tn.Size,
		Subject:    t,
	}, deps...)
	g.AddDep(beforeOp, in)
	return in
}

// InstrumentSwapOut adds a swap-out evicting tensor t after op afterOp
// (InstrumentSwap's eviction half). On its own the tensor stays off-GPU
// until the run ends or a later InstrumentSwapIn restores it.
func (g *Graph) InstrumentSwapOut(t tensor.ID, afterOp OpID, route string) OpID {
	tn := g.Tensors.Get(t)
	return g.addInstrument(Op{
		Name:       g.opName(route, "-swapout:", SwapOut, t),
		Kind:       SwapOut,
		Stage:      tn.Stage,
		Layer:      tn.Layer,
		Microbatch: g.ops[afterOp].Microbatch,
		MoveBytes:  tn.Size,
		Subject:    t,
	}, afterOp)
}

// RecomputePair identifies the two operators created by
// InstrumentRecompute.
type RecomputePair struct {
	Drop      OpID
	Recompute OpID
}

// InstrumentRecompute rewrites the graph to drop activation t after op
// `afterOp` and re-run the producing forward computation (costing
// flops) before op `beforeOp` consumes it (paper Sec. II-D).
//
// As with InstrumentSwap, `gate` delays the recomputation until the
// consumer's predecessor completes so the tensor is not rematerialized
// long before it is needed; pass gate < 0 for eager rematerialization.
func (g *Graph) InstrumentRecompute(t tensor.ID, afterOp, beforeOp, gate OpID, flops units.FLOPs) RecomputePair {
	tn := g.Tensors.Get(t)
	if !tn.Class.Recomputable() {
		panic(fmt.Sprintf("graph: cannot recompute %s tensor %q", tn.Class, tn.Name))
	}
	if b := g.base; b != nil && len(b.live.Uses[t]) == 0 {
		// Only a consumed tensor keeps its base uses, and so its free
		// point, once a recompute re-produces it.
		panic(fmt.Sprintf("graph: cannot recompute tensor %q, which the frozen base never consumes", tn.Name))
	}
	stage := g.ops[afterOp].Stage
	drop := g.addInstrument(Op{
		Name:       g.opName("", "drop:", Drop, t),
		Kind:       Drop,
		Stage:      stage,
		Layer:      tn.Layer,
		Microbatch: g.ops[afterOp].Microbatch,
		MoveBytes:  tn.Size,
		Subject:    t,
	}, afterOp)
	rec := g.addInstrument(Op{
		Name:       g.opName("", "recompute:", Recompute, t),
		Kind:       Recompute,
		Stage:      stage,
		Layer:      tn.Layer,
		Microbatch: g.ops[beforeOp].Microbatch,
		FLOPs:      flops,
		MoveBytes:  tn.Size,
		Subject:    t,
		Outputs:    append(g.buf.outs.take(1), t),
	}, gated(drop, gate)...)
	g.AddDep(beforeOp, rec)
	return RecomputePair{Drop: drop, Recompute: rec}
}
