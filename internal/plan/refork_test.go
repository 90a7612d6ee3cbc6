package plan

import (
	"reflect"
	"slices"
	"testing"

	"mpress/internal/exec"
	"mpress/internal/fabric"
	"mpress/internal/graph"
	"mpress/internal/pipeline"
	"mpress/internal/tensor"
	"mpress/internal/units"
)

// TestReforkMatchesFreshFork runs plans through one recycled fork, the
// way refinement's wave slots do, ordered so the overlay shrinks and
// then grows again: host swap plus D2D under strict serialization, the
// empty plan, recompute only, host-parked persistent tensors, and the
// first plan again. Each run's Result, and the fork's ops, Deps and
// Preds/Succs rows, must equal the same plan's on a fresh Fork.
func TestReforkMatchesFreshFork(t *testing.T) {
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
	for _, id := range b.Acts[pipeline.SlotKey{Stage: 0, Microbatch: 0}] {
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
	for i, id := range sortedIDs(swapped.Act, b.Graph.Tensors.Len()) {
		mixed.Act[id] = MechHostSwap
		if i%2 == 0 {
			size := b.Graph.Tensors.Get(id).Size
			mixed.Act[id] = MechD2D
			mixed.Parts[id] = []fabric.Part{{Peer: 5, Bytes: size / 2}, {Peer: 6, Bytes: size - size/2}}
		}
	}
	if _, serialize := swapWindows(mixed, b, topo); !serialize[0] {
		t.Fatal("the mixed plan does not serialize restores")
	}
	recompute := empty()
	for m := 0; m < b.TotalMicrobatches; m++ {
		for _, id := range b.Acts[pipeline.SlotKey{Stage: 1, Microbatch: m}] {
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

	run := func(pl *Plan, f *pipeline.Built) *exec.Result {
		t.Helper()
		opts, err := Apply(pl, f, topo)
		if err != nil {
			t.Fatal(err)
		}
		opts.Unbounded = true
		r, err := exec.Run(*opts)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	var recycled *pipeline.Built
	for _, tc := range []struct {
		name string
		pl   *Plan
	}{
		{"swap+d2d", mixed}, {"empty", empty()}, {"recompute", recompute},
		{"parked", parked}, {"swap+d2d again", mixed},
	} {
		fresh := b.Fork()
		want := run(tc.pl, fresh)
		recycled = b.Refork(recycled)
		got := run(tc.pl, recycled)
		if got.Duration != want.Duration || got.Events != want.Events || !reflect.DeepEqual(got.Spans, want.Spans) ||
			!reflect.DeepEqual(got.GPUs, want.GPUs) || !reflect.DeepEqual(got.OOM, want.OOM) {
			t.Fatalf("%s: recycled fork ran %v in %d events, a fresh fork %v in %d events", tc.name, got.Duration, got.Events, want.Duration, want.Events)
		}
		g, w := recycled.Graph, fresh.Graph
		if g.Len() == b.Graph.Len() && tc.name != "empty" {
			t.Fatalf("%s: the plan added no ops", tc.name)
		}
		if !reflect.DeepEqual(g.Ops(), w.Ops()) {
			t.Fatalf("%s: recycled fork's ops or Deps differ from a fresh fork's", tc.name)
		}
		for id := range g.Len() {
			op := graph.OpID(id)
			if !slices.Equal(g.Preds(op), w.Preds(op)) || !slices.Equal(g.Succs(op), w.Succs(op)) {
				t.Fatalf("%s: op %d's rows differ: preds %v / %v, succs %v / %v", tc.name, id, g.Preds(op), w.Preds(op), g.Succs(op), w.Succs(op))
			}
		}
	}
}
