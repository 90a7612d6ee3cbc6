package plan

import (
	"errors"
	"slices"
	"testing"

	"mpress/internal/exec"
	"mpress/internal/fabric"
	"mpress/internal/graph"
	"mpress/internal/hw"
	"mpress/internal/pipeline"
	"mpress/internal/tensor"
)

// TestApplyInstrumentsAllMechanisms checks the instrumentation Apply
// lays over a lowering as an exec.Overlay: swap-outs, swap-ins, drops
// and recomputes. Most cases materialize the overlay into a reference
// graph and check it the way a graph reads it: kinds, subjects,
// names, MoveBytes, FLOPs and topological order.
func TestApplyInstrumentsAllMechanisms(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"Planned", applyPlanned},
		{"InstrumentSwap", applySwap},
		{"InstrumentSwapGateOrdering", applySwapGateOrdering},
		{"InstrumentSwapInOutStandalone", applySwapInOutStandalone},
		{"OpMoveBytesFlow", applyMoveBytes},
		{"InstrumentRecompute", applyRecompute},
		{"InstrumentRecomputeRejectsNonActivation", applyRecomputeRejectsNonActivation},
	} {
		t.Run(c.name, c.run)
	}
}

// applyPlanned: a plan Compute makes for an overflowing job, applied
// to a fresh lowering, swaps tensors.
func applyPlanned(t *testing.T) {
	build := smallJob(t, pipeline.PipeDream)
	peaks := measure(t, build, hw.DGX1())
	topo := topoWithCapacity(capacityBetween(t, peaks))
	pl, err := Compute(Options{Topo: topo, Build: build, Allowed: AllMechanisms()})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := build()
	opts, err := Apply(pl, b, topo)
	if err != nil {
		t.Fatal(err)
	}
	var swapOps int
	for _, op := range opts.Overlay.Ops {
		if op.Kind == graph.SwapOut || op.Kind == graph.SwapIn {
			swapOps++
		}
	}
	if len(pl.Act)+len(pl.HostPersist) > 0 && swapOps == 0 {
		t.Error("plan with assignments produced no swap ops")
	}
}

// frozenSmall builds and freezes smallJob's DAPPLE lowering.
func frozenSmall(t *testing.T) *pipeline.Built {
	t.Helper()
	b, err := smallJob(t, pipeline.DAPPLE)()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Freeze(); err != nil {
		t.Fatal(err)
	}
	return b
}

// instrumented is one plan applied to a frozen lowering, with the
// overlay materialized into ref.
type instrumented struct {
	b    *pipeline.Built
	opts *exec.Options
	view exec.OpView
	ref  *graph.Graph
	pos  []int                      // each op's position in ref's topological order
	of   map[tensor.ID][]graph.OpID // each tensor's overlay ops, in overlay order

	swapped, striped, dropped, parked tensor.ID
}

// instrument applies a plan that host-swaps one stage-1 activation,
// D2D-swaps a second, recomputes a third and parks one stage-2
// optimizer state in host memory.
func instrument(t *testing.T) *instrumented {
	t.Helper()
	b := frozenSmall(t)
	act := func(m int) tensor.ID {
		for _, id := range b.Acts(pipeline.SlotKey{Stage: 1, Microbatch: m}) {
			if _, ok := b.RecomputeFLOPs(id); ok {
				return id
			}
		}
		return -1
	}
	in := &instrumented{b: b, swapped: act(0), striped: act(1), dropped: act(2), parked: -1}
	for _, id := range b.Persistent[2] {
		if b.Graph.Tensors.Get(id).Class == tensor.OptimizerState {
			in.parked = id
		}
	}
	if in.swapped < 0 || in.striped < 0 || in.dropped < 0 || in.parked < 0 {
		t.Fatal("degenerate lowering")
	}
	size := b.Graph.Tensors.Get(in.striped).Size
	pl := &Plan{
		Mapping:     exec.IdentityMapping(b.NumStages()),
		Act:         map[tensor.ID]Mechanism{in.swapped: MechHostSwap, in.striped: MechD2D, in.dropped: MechRecompute},
		Parts:       map[tensor.ID][]fabric.Part{in.striped: {{Peer: 5, Bytes: size}}},
		HostPersist: map[tensor.ID]bool{in.parked: true},
	}
	opts, err := Apply(pl, b, hw.DGX1())
	if err != nil {
		t.Fatal(err)
	}
	in.opts, in.view = opts, opts.Ops()
	// The reference: the lowering's ops, then the overlay's, and every
	// overlay dep, which alone must order them.
	in.ref = graph.New(b.Graph.Tensors)
	for _, op := range b.Graph.Ops() {
		in.ref.AddOp(op)
	}
	in.of = map[tensor.ID][]graph.OpID{}
	for i, op := range opts.Overlay.Ops {
		id := graph.OpID(b.Graph.Len() + i)
		if op.ID != id {
			t.Fatalf("overlay op %d has ID %d, want %d", i, op.ID, id)
		}
		in.ref.AddOp(op)
		in.of[op.Subject] = append(in.of[op.Subject], id)
	}
	for _, d := range opts.Overlay.Deps {
		in.ref.AddDep(d.After, d.Before)
	}
	if err := in.ref.Validate(); err != nil {
		t.Fatalf("instrumented graph invalid: %v", err)
	}
	order, err := in.ref.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	in.pos = make([]int, len(order))
	for i, id := range order {
		in.pos[id] = i
	}
	return in
}

// before fails t unless ids are in topological order; a negative id
// (no gate) is skipped.
func (in *instrumented) before(t *testing.T, ids ...graph.OpID) {
	t.Helper()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] < 0 {
			continue
		}
		if in.pos[ids[i-1]] >= in.pos[ids[i]] {
			t.Errorf("%s does not precede %s", in.view.Name(ids[i-1]), in.view.Name(ids[i]))
		}
	}
}

// kinds returns tensor id's overlay ops, failing t unless they are of
// the wanted kinds.
func (in *instrumented) kinds(t *testing.T, id tensor.ID, want ...graph.OpKind) []graph.OpID {
	t.Helper()
	ids := in.of[id]
	if len(ids) != len(want) {
		t.Fatalf("tensor %d has %d overlay ops, want %d", id, len(ids), len(want))
	}
	for i, op := range ids {
		if k := in.view.Op(op).Kind; k != want[i] {
			t.Fatalf("%s is a %v, want %v", in.view.Name(op), k, want[i])
		}
	}
	return ids
}

// anchors returns the forward producing activation id, the backward
// consuming it, and that backward's predecessor on its stage: the gate
// of the tensor's just-in-time restore.
func (in *instrumented) anchors(id tensor.ID) (fw, bw, gate graph.OpID) {
	k, _ := in.b.ActSlot(id)
	bw = in.b.BwOp(k)
	return in.b.FwOp(k), bw, in.b.PrevOnStage(bw)
}

// applySwap: a host swap and a D2D swap each evict their
// tensor after its forward and restore it before its backward, the
// swap-in after the swap-out, named by route.
func applySwap(t *testing.T) {
	in := instrument(t)
	for _, c := range []struct {
		id    tensor.ID
		route string
	}{{in.swapped, "h2d"}, {in.striped, "d2d"}} {
		ids := in.kinds(t, c.id, graph.SwapOut, graph.SwapIn)
		fw, bw, _ := in.anchors(c.id)
		in.before(t, fw, ids[0], ids[1], bw)
		name := in.b.Graph.Tensors.Get(c.id).Name
		if got := in.view.Name(ids[0]); got != c.route+"-swapout:"+name {
			t.Errorf("swap-out named %q, want route %s", got, c.route)
		}
		if got := in.view.Name(ids[1]); got != c.route+"-swapin:"+name {
			t.Errorf("swap-in named %q, want route %s", got, c.route)
		}
	}
	st := in.opts.Stripes
	if st.Of[in.striped] == 0 || !slices.Equal(st.Layouts[st.Of[in.striped]], []fabric.Part{{Peer: 5, Bytes: in.b.Graph.Tensors.Get(in.striped).Size}}) ||
		st.Of[in.swapped] != 0 || st.Of[in.dropped] != 0 {
		t.Error("Apply's stripe table does not route exactly the D2D-swapped tensor, over its parts")
	}
}

// applySwapGateOrdering: each swap-in waits for its gate, the
// backward's predecessor on the stage, so the restore overlaps that
// predecessor instead of starting eagerly.
func applySwapGateOrdering(t *testing.T) {
	in := instrument(t)
	for _, id := range []tensor.ID{in.swapped, in.striped} {
		ids := in.kinds(t, id, graph.SwapOut, graph.SwapIn)
		_, _, gate := in.anchors(id)
		if gate < 0 {
			t.Fatalf("tensor %d's backward has no gate", id)
		}
		in.before(t, gate, ids[1])
	}
}

// applySwapInOutStandalone: a tensor parked in host memory is
// restored before and evicted after each of its uses, with no swap-out
// before its first use, and starts the run swapped out.
func applySwapInOutStandalone(t *testing.T) {
	in := instrument(t)
	live, err := in.b.Graph.Liveness()
	if err != nil {
		t.Fatal(err)
	}
	uses := live.Uses[in.parked]
	ops := in.of[in.parked]
	if len(uses) == 0 || len(ops) != 2*len(uses) {
		t.Fatalf("parked tensor: %d overlay ops for %d uses", len(ops), len(uses))
	}
	for i, u := range uses {
		swapIn, swapOut := ops[2*i], ops[2*i+1]
		if in.view.Op(swapIn).Kind != graph.SwapIn || in.view.Op(swapOut).Kind != graph.SwapOut {
			t.Fatalf("use %d: ops %v, %v", i, in.view.Op(swapIn).Kind, in.view.Op(swapOut).Kind)
		}
		if in.view.Op(swapIn).Subject != in.parked || in.view.Op(swapOut).Subject != in.parked {
			t.Fatalf("use %d: subjects not set", i)
		}
		in.before(t, swapIn, u.Op, swapOut)
		if i > 0 {
			in.before(t, ops[2*i-1], swapIn)
		}
	}
	if !slices.Equal(in.opts.Parked, []tensor.ID{in.parked}) {
		t.Error("the parked tensor does not start the run swapped out")
	}
}

// applyMoveBytes: every swap, drop and recompute op carries its
// tensor's size as MoveBytes for the executor's transfer timing.
func applyMoveBytes(t *testing.T) {
	in := instrument(t)
	if len(in.opts.Overlay.Ops) == 0 {
		t.Fatal("the plan added no ops")
	}
	for i, op := range in.opts.Overlay.Ops {
		id := graph.OpID(in.b.Graph.Len() + i)
		if size := in.b.Graph.Tensors.Get(op.Subject).Size; op.MoveBytes != size {
			t.Errorf("%s moves %v, want the tensor's %v", in.view.Name(id), op.MoveBytes, size)
		}
	}
}

// applyRecompute: a recomputed activation is dropped after
// its forward and re-produced, at the forward's FLOPs, after the
// backward's gate and before every consumer of the tensor.
func applyRecompute(t *testing.T) {
	in := instrument(t)
	ids := in.kinds(t, in.dropped, graph.Drop, graph.Recompute)
	fw, bw, gate := in.anchors(in.dropped)
	in.before(t, fw, ids[0], ids[1], bw)
	in.before(t, gate, ids[1])
	flops, _ := in.b.RecomputeFLOPs(in.dropped)
	rec := in.view.Op(ids[1])
	if rec.FLOPs != flops {
		t.Errorf("%s carries %v FLOPs, want %v", in.view.Name(ids[1]), rec.FLOPs, flops)
	}
	if got, want := in.view.Name(ids[1]), "recompute:"+in.b.Graph.Tensors.Get(in.dropped).Name; got != want {
		t.Errorf("recompute named %q, want %q", got, want)
	}
	live, err := in.b.Graph.Liveness()
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range live.Uses[in.dropped] {
		in.before(t, ids[1], u.Op)
	}
}

// applyRecomputeRejectsNonActivation: only an activation has
// a forward to replay, so a plan recomputing a parameter is refused
// with an *InvalidError naming it, and nothing is instrumented.
func applyRecomputeRejectsNonActivation(t *testing.T) {
	b := frozenSmall(t)
	var param tensor.ID = -1
	for _, id := range b.Persistent[0] {
		if b.Graph.Tensors.Get(id).Class == tensor.Parameter {
			param = id
			break
		}
	}
	if param < 0 {
		t.Fatal("stage 0 has no parameter")
	}
	pl := &Plan{
		Mapping:     exec.IdentityMapping(b.NumStages()),
		Act:         map[tensor.ID]Mechanism{param: MechRecompute},
		Parts:       map[tensor.ID][]fabric.Part{},
		HostPersist: map[tensor.ID]bool{},
	}
	opts, err := Apply(pl, b, hw.DGX1())
	var inv *InvalidError
	if !errors.As(err, &inv) {
		t.Fatalf("Apply = %v, want *InvalidError", err)
	}
	if inv.Tensor != param {
		t.Errorf("error names tensor %d, want %d (%v)", inv.Tensor, param, err)
	}
	if opts != nil {
		t.Error("a rejected plan returned options")
	}
}
