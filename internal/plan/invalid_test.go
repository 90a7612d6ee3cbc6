package plan

import (
	"errors"
	"maps"
	"testing"

	"mpress/internal/exec"
	"mpress/internal/fabric"
	"mpress/internal/hw"
	"mpress/internal/pipeline"
	"mpress/internal/tensor"
)

// TestApplyRejectsInvalidPlans: one poisoned field per case, each of
// which used to pass Apply and panic (or silently misbehave) in the
// executor. Apply must return an *InvalidError naming the tensor.
func TestApplyRejectsInvalidPlans(t *testing.T) {
	build := smallJob(t, pipeline.DAPPLE)
	base, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Freeze(); err != nil {
		t.Fatal(err)
	}
	topo := hw.DGX1()

	// A valid starting point: one stage-0 activation D2D-swapped to GPU 5.
	var acts []tensor.ID
	for t := 0; t < base.Graph.Tensors.Len(); t++ {
		id := tensor.ID(t)
		k, _ := base.ActSlot(id)
		if _, ok := base.RecomputeFLOPs(id); ok && k.Stage == 0 {
			acts = append(acts, id)
		}
	}
	act := acts[0]
	size := base.Graph.Tensors.Get(act).Size
	valid := func() *Plan {
		return &Plan{
			Mapping:     exec.IdentityMapping(base.NumStages()),
			Act:         map[tensor.ID]Mechanism{act: MechD2D},
			Parts:       map[tensor.ID][]fabric.Part{act: {{Peer: 5, Bytes: size}}},
			HostPersist: map[tensor.ID]bool{},
		}
	}
	opts, err := Apply(valid(), base, topo)
	if err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if _, err := exec.Run(*opts); err != nil {
		t.Fatalf("valid plan does not run: %v", err)
	}

	var grad tensor.ID = -1
	for _, id := range base.Persistent[0] {
		if base.Graph.Tensors.Get(id).Class == tensor.Gradient {
			grad = id
			break
		}
	}
	// late is a tensor after act that is no activation.
	late := act + 1
	for ; ; late++ {
		if _, ok := base.ActSlot(late); !ok {
			break
		}
	}
	if int(late) >= base.Graph.Tensors.Len() {
		t.Fatal("no tensor after the activation is a non-activation")
	}
	cases := []struct {
		name   string
		tensor tensor.ID
		poison func(pl *Plan)
	}{
		{"peer outside the topology", act, func(pl *Plan) {
			pl.Parts[act] = []fabric.Part{{Peer: 99, Bytes: size}}
		}},
		{"peer is the host", act, func(pl *Plan) {
			pl.Parts[act] = []fabric.Part{{Peer: hw.Host, Bytes: size}}
		}},
		{"peer is the tensor's own device", act, func(pl *Plan) {
			pl.Parts[act] = []fabric.Part{{Peer: 0, Bytes: size}}
		}},
		{"empty stripe", act, func(pl *Plan) {
			pl.Parts[act] = []fabric.Part{{Peer: 5, Bytes: size}, {Peer: 6, Bytes: 0}}
		}},
		{"mechanism out of range", act, func(pl *Plan) {
			pl.Act[act] = MechD2D + 1
		}},
		{"negative mechanism", act, func(pl *Plan) {
			pl.Act[act] = -1
		}},
		{"host-parked tensor not persistent", act, func(pl *Plan) {
			pl.HostPersist[act] = true
		}},
		{"host-parked tensor out of range", 1 << 30, func(pl *Plan) {
			pl.HostPersist[1<<30] = true
		}},
		{"host-parking entry is false", grad, func(pl *Plan) {
			pl.HostPersist[grad] = false
		}},
		{"two bad host-parked tensors name the smaller", act, func(pl *Plan) {
			pl.HostPersist[act] = true
			pl.HostPersist[act+1] = true
		}},
		{"false entry and a non-persistent one name the smaller", grad, func(pl *Plan) {
			pl.HostPersist[grad] = false
			pl.HostPersist[act] = true
		}},
		{"mapping too short", -1, func(pl *Plan) {
			pl.Mapping = pl.Mapping[:len(pl.Mapping)-1]
		}},
		{"activation mechanism on a persistent tensor", grad, func(pl *Plan) {
			pl.Act[grad] = MechRecompute
		}},
		{"no mechanism on a persistent tensor", grad, func(pl *Plan) {
			pl.Act[grad] = MechNone
		}},
		{"activation key out of range", 1 << 30, func(pl *Plan) {
			pl.Act[1<<30] = MechRecompute
		}},
		{"negative activation key names before a bad stripe", -5, func(pl *Plan) {
			pl.Act[-5] = MechD2D + 1
			pl.Parts[act] = []fabric.Part{{Peer: 0, Bytes: size}}
		}},
		{"bad stripe names before a key out of range", act, func(pl *Plan) {
			pl.Act[1<<30] = MechRecompute
			pl.Parts[act] = []fabric.Part{{Peer: 0, Bytes: size}}
		}},
		{"bad stripe names before a no-mechanism entry past it", act, func(pl *Plan) {
			pl.Act[late] = MechNone
			pl.Parts[act] = []fabric.Part{{Peer: 0, Bytes: size}}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pl := valid()
			pl.Parts = maps.Clone(pl.Parts)
			c.poison(pl)
			// Map order varies run to run: the error must not.
			for i := 0; i < 8; i++ {
				_, err := Apply(pl, base, topo)
				var inv *InvalidError
				if !errors.As(err, &inv) {
					t.Fatalf("Apply = %v, want *InvalidError", err)
				}
				if inv.Tensor != c.tensor {
					t.Fatalf("error names tensor %d, want %d (%v)", inv.Tensor, c.tensor, err)
				}
			}
		})
	}
}
