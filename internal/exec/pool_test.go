package exec_test

import (
	"mpress/internal/exec"
	"reflect"
	"testing"

	"mpress/internal/cluster"
	"mpress/internal/fabric"
	"mpress/internal/hw"
	"mpress/internal/pipeline"
	"mpress/internal/plan"
	"mpress/internal/tensor"
)

// TestScratchCarriesNothing: Run's pooled scratch carries nothing from
// one run to the next. A large job with D2D-swapped activations, the
// same job host-swapping them, then with persistent tensors starting in
// host memory, a smaller job with fewer tensors and ops, a data-parallel
// one, the large D2D and host-swap jobs again and then a job on a GPU
// smaller than the runtime reserve, whose OOM reports the residents
// before any staging, run in that order on one pool: each run's stripe
// routes, initially swapped flags and pinned buffers by tensor must not
// reach the next. Each Result must equal the same job's first run,
// taken on an empty pool.
func TestScratchCarriesNothing(t *testing.T) {
	large := buildTinyM(t, pipeline.PipeDream, 4, 8)
	small := buildTinyM(t, pipeline.DAPPLE, 2, 2)
	if small.Graph.Len() >= large.Graph.Len() || small.Graph.Tensors.Len() >= large.Graph.Tensors.Len() {
		t.Fatal("the small job is not smaller")
	}
	tiny := hw.DGX1()
	tiny.GPU.Memory = pipeline.RuntimeReserve / 2
	jobs := map[string]exec.Options{
		"large":     *planned(t, large, hw.DGX1(), plan.MechD2D),
		"host-swap": *planned(t, large, hw.DGX1(), plan.MechHostSwap),
		"parked":    *parked(t, large, hw.DGX1()),
		"small":     {Topo: hw.DGX1(), Built: small, Mapping: exec.IdentityMapping(2)},
		"data-parallel": {Topo: hw.DGX2(), Built: buildTiny(t, pipeline.DAPPLE, 4), Mapping: exec.IdentityMapping(4),
			DataParallel: &exec.DPSpec{Cluster: cluster.MustNew(2, hw.DGX2(), cluster.InfiniBand4x100()), Buckets: 4}},
		"below-reserve": {Topo: tiny, Built: small, Mapping: exec.IdentityMapping(2)},
	}
	run := func(name string) *exec.Result {
		t.Helper()
		r, err := exec.Run(jobs[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return r
	}
	first := map[string]*exec.Result{}
	for name := range jobs {
		exec.ResetScratchPool()
		first[name] = run(name)
	}
	exec.ResetScratchPool()
	if r := first["below-reserve"]; r.OOM == nil || len(r.OOMResidents) != 1 {
		t.Fatalf("below-reserve: OOM %v with residents %v, want an OOM naming only the reserve", r.OOM, r.OOMResidents)
	}
	if r := first["host-swap"]; r.Host.Peak == 0 {
		t.Fatal("host-swap: nothing was swapped to host memory")
	}
	if o := jobs["parked"]; len(o.InitiallySwapped) == 0 {
		t.Fatal("parked: no persistent tensor starts in host memory")
	}
	for _, name := range []string{"large", "host-swap", "parked", "small", "data-parallel", "large", "host-swap", "below-reserve"} {
		if got := run(name); !reflect.DeepEqual(got, first[name]) {
			t.Fatalf("%s: a run on the used pool differs from the first run (%v in %d events, first %v in %d)",
				name, got.Duration, got.Events, first[name].Duration, first[name].Events)
		}
	}
}

// parked returns b's options on topo with stage 0's optimizer states
// parked in host memory.
func parked(t *testing.T, b *pipeline.Built, topo *hw.Topology) *exec.Options {
	t.Helper()
	pl := &plan.Plan{
		Mapping:     exec.IdentityMapping(b.NumStages()),
		Act:         map[tensor.ID]plan.Mechanism{},
		Parts:       map[tensor.ID][]fabric.Part{},
		HostPersist: map[tensor.ID]bool{},
	}
	for _, id := range b.Persistent[0] {
		if b.Graph.Tensors.Get(id).Class == tensor.OptimizerState {
			pl.HostPersist[id] = true
		}
	}
	o, err := plan.Apply(pl, b, topo)
	if err != nil {
		t.Fatal(err)
	}
	return o
}
