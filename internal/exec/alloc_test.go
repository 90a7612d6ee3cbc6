package exec

import (
	"testing"

	"mpress/internal/cluster"
	"mpress/internal/fabric"
	"mpress/internal/graph"
	"mpress/internal/hw"
	"mpress/internal/model"
	"mpress/internal/pipeline"
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
		dp   *DPSpec
	}{
		{"single-node", nil},
		{"data-parallel", &DPSpec{Cluster: cluster.MustNew(2, hw.DGX2(), cluster.InfiniBand4x100()), Buckets: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) { testAllocsFlat(t, tc.dp) })
	}
}

func testAllocsFlat(t *testing.T, dp *DPSpec) {
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
		routes := map[graph.OpID][]fabric.Part{}
		for m := 0; m < b.TotalMicrobatches; m++ {
			k := pipeline.SlotKey{Stage: 0, Microbatch: m}
			for i, id := range b.Acts[k] {
				if _, ok := b.RecomputeFLOPs(id); !ok {
					continue
				}
				pair := b.Graph.InstrumentSwap(id, b.FwOp(k), b.BwOp(k), b.PrevOnStage(b.BwOp(k)), "swap")
				if i%2 == 0 {
					size := b.Graph.Tensors.Get(id).Size
					parts := []fabric.Part{{Peer: 3, Bytes: size / 2}, {Peer: 2, Bytes: size - size/2}}
					routes[pair.Out], routes[pair.In] = parts, parts
				}
			}
		}
		o := Options{Topo: hw.DGX2(), Built: b, Mapping: IdentityMapping(4), D2DRoutes: routes, DataParallel: dp}
		r, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		if r.OOM != nil || len(routes) == 0 {
			t.Fatalf("degenerate run: OOM %v, %d routes", r.OOM, len(routes))
		}
		if dp != nil && r.NICBytes == 0 {
			t.Fatalf("data-parallel run sent nothing over the NICs (%d all-reduces)", r.AllReduces)
		}
		return run{r.Events, testing.AllocsPerRun(20, func() {
			if _, err := Run(o); err != nil {
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
