package exec_test

import (
	"testing"

	"mpress/internal/cluster"
	"mpress/internal/exec"
	"mpress/internal/fabric"
	"mpress/internal/hw"
	"mpress/internal/model"
	"mpress/internal/pipeline"
	"mpress/internal/plan"
	"mpress/internal/tensor"
)

// TestEventLoopAllocsFlat: Run's allocations do not grow with the
// number of events. One job lowered at two and at four minibatches, with
// half its swappable activations routed D2D and half to host memory,
// runs about twice the events in the second lowering; its allocation
// count may differ only by a small constant (slice growth, map buckets),
// so no event allocates — no closure, no per-op record. The data-parallel
// case runs the job as one of two replicas, so every minibatch adds
// gradient all-reduces whose ring steps are events too.
func TestEventLoopAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, tc := range []struct {
		name string
		dp   *exec.DPSpec
	}{
		{"single-node", nil},
		{"data-parallel", &exec.DPSpec{Cluster: cluster.MustNew(2, hw.DGX2(), cluster.InfiniBand4x100()), Buckets: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) { testAllocsFlat(t, tc.dp) })
	}
}

func testAllocsFlat(t *testing.T, dp *exec.DPSpec) {
	type run struct {
		events int64
		allocs float64
	}
	measure := func(minibatches int) run {
		cfg := tinyModel()
		prec := model.MixedAdam()
		part, err := pipeline.PartitionModel(cfg, 4, pipeline.ComputeBalanced, pipeline.DAPPLE, prec, 2, 8)
		if err != nil {
			t.Fatal(err)
		}
		b, err := pipeline.Build(pipeline.BuildConfig{
			Model: cfg, Prec: prec, Part: part, Kind: pipeline.DAPPLE,
			MicrobatchSize: 2, Microbatches: 8, Minibatches: minibatches,
		})
		if err != nil {
			t.Fatal(err)
		}
		pl := &plan.Plan{Mapping: exec.IdentityMapping(4), Act: map[tensor.ID]plan.Mechanism{}, Parts: map[tensor.ID][]fabric.Part{}}
		for m := 0; m < b.TotalMicrobatches; m++ {
			k := pipeline.SlotKey{Stage: 0, Microbatch: m}
			for i, id := range b.Acts(k) {
				if _, ok := b.RecomputeFLOPs(id); !ok {
					continue
				}
				pl.Act[id] = plan.MechHostSwap
				if i%2 == 0 {
					size := b.Graph.Tensors.Get(id).Size
					pl.Act[id] = plan.MechD2D
					pl.Parts[id] = []fabric.Part{{Peer: 3, Bytes: size / 2}, {Peer: 2, Bytes: size - size/2}}
				}
			}
		}
		opts, err := plan.Apply(pl, b, hw.DGX2())
		if err != nil {
			t.Fatal(err)
		}
		o := *opts
		o.DataParallel = dp
		r, err := exec.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		if r.OOM != nil || len(o.Stripes.Layouts) < 2 {
			t.Fatalf("degenerate run: OOM %v, %d stripe layouts", r.OOM, len(o.Stripes.Layouts)-1)
		}
		if dp != nil && r.NICBytes == 0 {
			t.Fatalf("data-parallel run sent nothing over the NICs (%d all-reduces)", r.AllReduces)
		}
		return run{r.Events, testing.AllocsPerRun(20, func() {
			if _, err := exec.Run(o); err != nil {
				t.Fatal(err)
			}
		})}
	}
	one, two := measure(2), measure(4)
	t.Logf("2 minibatches: %d events, %.0f allocs; 4 minibatches: %d events, %.0f allocs", one.events, one.allocs, two.events, two.allocs)
	if two.events < 19*one.events/10 {
		t.Fatalf("second lowering runs %d events, want about twice %d", two.events, one.events)
	}
	if grew := two.allocs - one.allocs; grew > 16 {
		t.Errorf("allocations grew by %.0f for %d more events", grew, two.events-one.events)
	}
}
