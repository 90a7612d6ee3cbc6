package plan

import (
	"testing"

	"mpress/internal/exec"
	"mpress/internal/fabric"
	"mpress/internal/hw"
	"mpress/internal/pipeline"
	"mpress/internal/tensor"
	"mpress/internal/units"
)

// buildForWindows creates a Built and a plan that host-swaps every
// block activation of stage 0.
func buildForWindows(t *testing.T) (*pipeline.Built, *Plan) {
	t.Helper()
	build := smallJob(t, pipeline.DAPPLE)
	b, err := build()
	if err != nil {
		t.Fatal(err)
	}
	pl := &Plan{
		Mapping:     exec.IdentityMapping(b.NumStages()),
		Act:         make(map[tensor.ID]Mechanism),
		Parts:       make(map[tensor.ID][]fabric.Part),
		HostPersist: make(map[tensor.ID]bool),
	}
	for m := 0; m < b.TotalMicrobatches; m++ {
		k := pipeline.SlotKey{Stage: 0, Microbatch: m}
		for _, id := range b.Acts(k) {
			if _, ok := b.RecomputeFLOPs(id); ok {
				pl.Act[id] = MechHostSwap
			}
		}
	}
	return b, pl
}

func TestSwapWindowsTightCapacitySerializes(t *testing.T) {
	b, pl := buildForWindows(t)
	topo := hw.DGX1()
	// Shrink capacity to barely above one instance: restores must
	// serialize and the window collapses to 1.
	var persistent units.Bytes
	for _, id := range b.Persistent[0] {
		if !pl.HostPersist[id] {
			persistent += b.Graph.Tensors.Get(id).Size
		}
	}
	var instance units.Bytes
	k := pipeline.SlotKey{Stage: 0, Microbatch: 0}
	for _, id := range b.Acts(k) {
		if _, ok := pl.Act[id]; ok {
			instance += b.Graph.Tensors.Get(id).Size
		}
	}
	topo.GPU.Memory = pipeline.RuntimeReserve + persistent + instance + units.GB(1)
	windows, serialize := swapWindows(decide(pl, b), b, topo)
	if windows[0] != 1 {
		t.Errorf("tight capacity window = %d, want 1", windows[0])
	}
	if !serialize[0] {
		t.Error("tight capacity must serialize restores")
	}
}

func TestSwapWindowsAmpleCapacity(t *testing.T) {
	b, pl := buildForWindows(t)
	topo := hw.DGX1()
	topo.GPU.Memory = 512 * units.GiB
	windows, serialize := swapWindows(decide(pl, b), b, topo)
	inflight := b.Cfg.Kind.InFlight(0, b.NumStages(), b.Cfg.Microbatches)
	if windows[0] != inflight {
		t.Errorf("ample capacity window = %d, want in-flight %d", windows[0], inflight)
	}
	if serialize[0] {
		t.Error("ample capacity must not serialize")
	}
}

func TestSwapWindowsNoEvictionsUnconstrained(t *testing.T) {
	b, _ := buildForWindows(t)
	empty := &Plan{
		Mapping:     exec.IdentityMapping(b.NumStages()),
		Act:         make(map[tensor.ID]Mechanism),
		Parts:       make(map[tensor.ID][]fabric.Part),
		HostPersist: make(map[tensor.ID]bool),
	}
	windows, serialize := swapWindows(decide(empty, b), b, hw.DGX1())
	for s, w := range windows {
		inflight := b.Cfg.Kind.InFlight(s, b.NumStages(), b.Cfg.Microbatches)
		if w != inflight || serialize[s] {
			t.Errorf("stage %d: window %d serialize %v with no evictions", s, w, serialize[s])
		}
	}
}

func TestApplyRejectsBadPlans(t *testing.T) {
	build := smallJob(t, pipeline.DAPPLE)
	b, err := build()
	if err != nil {
		t.Fatal(err)
	}
	topo := hw.DGX1()

	// A D2D assignment without stripes must be rejected.
	var act tensor.ID = -1
	for t := 0; act < 0; t++ {
		if _, ok := b.RecomputeFLOPs(tensor.ID(t)); ok {
			act = tensor.ID(t)
		}
	}
	bad := &Plan{
		Mapping: exec.IdentityMapping(b.NumStages()),
		Act:     map[tensor.ID]Mechanism{act: MechD2D},
		Parts:   map[tensor.ID][]fabric.Part{},
	}
	if _, err := Apply(bad, b, topo); err == nil {
		t.Error("D2D without stripes accepted")
	}

	// A persistent tensor assigned an activation mechanism must be
	// rejected (it has no slot).
	b2, _ := build()
	bad2 := &Plan{
		Mapping: exec.IdentityMapping(b2.NumStages()),
		Act:     map[tensor.ID]Mechanism{b2.Persistent[0][0]: MechRecompute},
		Parts:   map[tensor.ID][]fabric.Part{},
	}
	if _, err := Apply(bad2, b2, topo); err == nil {
		t.Error("persistent tensor as activation accepted")
	}
}

func TestApplyEmptyPlanIsIdentityRun(t *testing.T) {
	build := smallJob(t, pipeline.DAPPLE)
	b, err := build()
	if err != nil {
		t.Fatal(err)
	}
	empty := &Plan{
		Mapping:     exec.IdentityMapping(b.NumStages()),
		Act:         map[tensor.ID]Mechanism{},
		Parts:       map[tensor.ID][]fabric.Part{},
		HostPersist: map[tensor.ID]bool{},
	}
	opts, err := Apply(empty, b, hw.DGX1())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(opts.Overlay.Ops) + len(opts.Overlay.Deps); n != 0 {
		t.Errorf("empty plan's overlay has %d ops and deps", n)
	}
	if len(opts.D2D) != 0 || len(opts.InitiallySwapped) != 0 {
		t.Error("empty plan produced routes")
	}
}
