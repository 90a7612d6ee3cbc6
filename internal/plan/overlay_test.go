package plan

import (
	"reflect"
	"slices"
	"testing"

	"mpress/internal/exec"
	"mpress/internal/fabric"
	"mpress/internal/pipeline"
	"mpress/internal/tensor"
	"mpress/internal/units"
)

// TestRecycledOverlayMatchesFresh lays plans over one frozen lowering
// through one recycled overlay, the way refinement's wave slots do,
// ordered so the overlay shrinks and then grows again: host swap plus
// D2D under strict serialization, the empty plan, recompute only,
// host-parked persistent tensors, and the first plan again. Each run's
// Result and overlay must equal the same plan's from Apply.
func TestRecycledOverlayMatchesFresh(t *testing.T) {
	b, swapped := buildForWindows(t)
	if err := b.Freeze(); err != nil {
		t.Fatal(err)
	}
	// Capacity for barely one evicted instance forces strict
	// serialization (see TestSwapWindowsTightCapacitySerializes); runs
	// are unbounded so every plan runs to the end.
	topo := topoWithCapacity(0)
	var persistent, instance units.Bytes
	for _, id := range b.Persistent[0] {
		persistent += b.Graph.Tensors.Get(id).Size
	}
	for _, id := range b.Acts(pipeline.SlotKey{Stage: 0, Microbatch: 0}) {
		if _, ok := swapped.Act[id]; ok {
			instance += b.Graph.Tensors.Get(id).Size
		}
	}
	topo.GPU.Memory = pipeline.RuntimeReserve + persistent + instance + units.GB(1)

	empty := func() *Plan {
		return &Plan{
			Mapping:     exec.IdentityMapping(b.NumStages()),
			Act:         map[tensor.ID]Mechanism{},
			Parts:       map[tensor.ID][]fabric.Part{},
			HostPersist: map[tensor.ID]bool{},
		}
	}
	mixed := empty()
	for i, id := range sortedKeys(swapped.Act) {
		mixed.Act[id] = MechHostSwap
		if i%2 == 0 {
			size := b.Graph.Tensors.Get(id).Size
			mixed.Act[id] = MechD2D
			mixed.Parts[id] = []fabric.Part{{Peer: 5, Bytes: size / 2}, {Peer: 6, Bytes: size - size/2}}
		}
	}
	if _, serialize := swapWindows(decide(mixed, b), b, topo); !serialize[0] {
		t.Fatal("the mixed plan does not serialize restores")
	}
	recompute := empty()
	for m := 0; m < b.TotalMicrobatches; m++ {
		for _, id := range b.Acts(pipeline.SlotKey{Stage: 1, Microbatch: m}) {
			if _, ok := b.RecomputeFLOPs(id); ok {
				recompute.Act[id] = MechRecompute
			}
		}
	}
	parked := empty()
	for _, id := range b.Persistent[2] {
		if b.Graph.Tensors.Get(id).Class == tensor.OptimizerState {
			parked.HostPersist[id] = true
		}
	}
	if len(recompute.Act) == 0 || len(parked.HostPersist) == 0 {
		t.Fatal("degenerate plans")
	}

	run := func(opts *exec.Options) *exec.Result {
		t.Helper()
		opts.Unbounded = true
		r, err := exec.Run(*opts)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	var recycled overlay
	for _, tc := range []struct {
		name string
		pl   *Plan
	}{
		{"swap+d2d", mixed}, {"empty", empty()}, {"recompute", recompute},
		{"parked", parked}, {"swap+d2d again", mixed},
	} {
		fresh, err := Apply(tc.pl, b, topo)
		if err != nil {
			t.Fatal(err)
		}
		reused, err := apply(decide(tc.pl, b), b, topo, &recycled)
		if err != nil {
			t.Fatal(err)
		}
		if len(fresh.Overlay.Ops) == 0 && tc.name != "empty" {
			t.Fatalf("%s: the plan added no ops", tc.name)
		}
		if !slices.Equal(reused.Overlay.Deps, fresh.Overlay.Deps) || len(reused.Overlay.Ops) != len(fresh.Overlay.Ops) ||
			(len(fresh.Overlay.Ops) > 0 && !reflect.DeepEqual(reused.Overlay.Ops, fresh.Overlay.Ops)) {
			t.Fatalf("%s: the recycled overlay differs from a fresh one", tc.name)
		}
		want, got := run(fresh), run(reused)
		if got.Duration != want.Duration || got.Events != want.Events || !reflect.DeepEqual(got.Spans, want.Spans) ||
			!reflect.DeepEqual(got.GPUs, want.GPUs) || !reflect.DeepEqual(got.OOM, want.OOM) {
			t.Fatalf("%s: recycled overlay ran %v in %d events, a fresh one %v in %d events", tc.name, got.Duration, got.Events, want.Duration, want.Events)
		}
	}
}
