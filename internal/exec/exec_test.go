package exec_test

import (
	"errors"
	"mpress/internal/exec"
	"slices"
	"strings"
	"testing"

	"mpress/internal/fabric"
	"mpress/internal/graph"
	"mpress/internal/hw"
	"mpress/internal/model"
	"mpress/internal/pipeline"
	"mpress/internal/plan"
	"mpress/internal/tensor"
	"mpress/internal/units"
)

// tinyModel is small enough to simulate instantly but structured like
// the real variants.
func tinyModel() model.Config {
	return model.Config{
		Name: "Tiny", Arch: model.GPT,
		Layers: 8, Hidden: 512, Heads: 8, SeqLen: 128, Vocab: 4096,
		DType: tensor.FP16,
	}
}

func buildTiny(t *testing.T, kind pipeline.ScheduleKind, stages int) *pipeline.Built {
	return buildTinyM(t, kind, stages, 4)
}

func buildTinyM(t *testing.T, kind pipeline.ScheduleKind, stages, micro int) *pipeline.Built {
	t.Helper()
	cfg := tinyModel()
	prec := model.MixedAdam()
	part, err := pipeline.PartitionModel(cfg, stages, pipeline.ComputeBalanced, kind, prec, 2, micro)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pipeline.Build(pipeline.BuildConfig{
		Model: cfg, Prec: prec, Part: part, Kind: kind,
		MicrobatchSize: 2, Microbatches: micro, Minibatches: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRunCompletes(t *testing.T) {
	for _, kind := range []pipeline.ScheduleKind{pipeline.PipeDream, pipeline.DAPPLE, pipeline.GPipe} {
		b := buildTiny(t, kind, 4)
		r, err := exec.Run(exec.Options{Topo: hw.DGX1(), Built: b, Mapping: exec.IdentityMapping(4)})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if r.OOM != nil {
			t.Fatalf("%v: unexpected OOM: %v", kind, r.OOM)
		}
		if r.Duration <= 0 || r.TFLOPS <= 0 || r.SamplesPerSec <= 0 {
			t.Errorf("%v: degenerate result %+v", kind, r)
		}
		for i, sp := range r.Spans {
			if sp.End < sp.Start {
				t.Errorf("%v: op %d span inverted", kind, i)
			}
			if sp.End == 0 && sp.Start == 0 && b.Graph.Op(graph.OpID(i)).Kind != graph.Drop {
				// Drop ops may legitimately run at t=0... but only ops
				// that ran have spans; everything must have run.
				if b.Graph.Op(graph.OpID(i)).Name != "" && i > 0 {
					// The first op can legitimately start at 0.
					continue
				}
			}
		}
		// All GPU memory besides the reserve and persistent state must
		// be returned at the end.
		for s := 0; s < 4; s++ {
			var persistent units.Bytes
			for _, id := range b.Persistent[s] {
				persistent += b.Graph.Tensors.Get(id).Size
			}
			want := persistent + pipeline.RuntimeReserve
			if got := r.GPUs[s].InUse; got != want {
				t.Errorf("%v: gpu%d leaks memory: in use %v, want %v", kind, s, got, want)
			}
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	b1 := buildTiny(t, pipeline.DAPPLE, 4)
	b2 := buildTiny(t, pipeline.DAPPLE, 4)
	r1, err := exec.Run(exec.Options{Topo: hw.DGX1(), Built: b1, Mapping: exec.IdentityMapping(4)})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := exec.Run(exec.Options{Topo: hw.DGX1(), Built: b2, Mapping: exec.IdentityMapping(4)})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Duration != r2.Duration {
		t.Errorf("durations differ: %v vs %v", r1.Duration, r2.Duration)
	}
	for i := range r1.GPUs {
		if r1.GPUs[i].Peak != r2.GPUs[i].Peak {
			t.Errorf("gpu%d peaks differ", i)
		}
	}
}

func TestRunRejectsBadMapping(t *testing.T) {
	b := buildTiny(t, pipeline.DAPPLE, 4)
	topo := hw.DGX1()
	cases := [][]hw.DeviceID{
		nil,
		{0, 1, 2},          // too short
		{0, 1, 2, 2},       // duplicate
		{0, 1, 2, 99},      // out of range
		{0, 1, 2, hw.Host}, // not a GPU
	}
	for _, m := range cases {
		if _, err := exec.Run(exec.Options{Topo: topo, Built: b, Mapping: m}); err == nil {
			t.Errorf("mapping %v accepted", m)
		}
	}
}

// TestRunReportsOverlayCycle: an overlay is plain data no Validate
// checks, so a dependency cycle it closes over a frozen lowering is the
// event loop's to find. Run must return a *graph.CycleError naming the
// stalled ops, not a partial Result. An overlay Run can check cheaply
// (an edge out of range, between two graph ops or on the op itself; an
// op of another kind or on no tensor) is an error before anything runs.
func TestRunReportsOverlayCycle(t *testing.T) {
	b := buildTiny(t, pipeline.DAPPLE, 4)
	if err := b.Freeze(); err != nil {
		t.Fatal(err)
	}
	order, _ := b.Graph.TopoOrder()
	first := order[0]
	next := b.Graph.Succs(first)[0]
	// An overlay op that waits for next and that first waits for.
	x := graph.OpID(b.Graph.Len())
	ov := exec.Overlay{
		Ops:  []graph.Op{{ID: x, Kind: graph.SwapIn, Subject: b.Persistent[0][0]}},
		Deps: []exec.Dep{{After: x, Before: next}, {After: first, Before: x}},
	}
	r, err := exec.Run(exec.Options{Topo: hw.DGX1(), Built: b, Overlay: ov, Mapping: exec.IdentityMapping(4)})
	var cyc *graph.CycleError
	if !errors.As(err, &cyc) || r != nil {
		t.Fatalf("Run = %v, %v; want a *graph.CycleError and no Result", r, err)
	}
	for _, id := range []graph.OpID{first, next, x} {
		if !slices.Contains(cyc.Remaining, id) {
			t.Errorf("stalled ops %v miss op %d of the cycle %d -> %d -> %d", cyc.Remaining, id, first, next, x)
		}
	}
	if _, err := exec.Run(exec.Options{Topo: hw.DGX1(), Built: b, Mapping: exec.IdentityMapping(4)}); err != nil {
		t.Fatalf("the frozen lowering with an empty overlay: %v", err)
	}
	for name, bad := range map[string]exec.Overlay{
		"a dep past the overlay":  {Ops: ov.Ops, Deps: []exec.Dep{{After: x, Before: x + 1}}},
		"a dep between graph ops": {Ops: ov.Ops, Deps: []exec.Dep{{After: next, Before: first}}},
		"a dep on the op itself":  {Ops: ov.Ops, Deps: []exec.Dep{{After: x, Before: x}}},
		"a forward op":            {Ops: []graph.Op{{ID: x, Kind: graph.Forward}}},
		"a tensor past the graph": {Ops: []graph.Op{{ID: x, Kind: graph.Drop, Subject: tensor.ID(b.Graph.Tensors.Len())}}},
	} {
		if _, err := exec.Run(exec.Options{Topo: hw.DGX1(), Built: b, Overlay: bad, Mapping: exec.IdentityMapping(4)}); err == nil {
			t.Errorf("an overlay with %s ran", name)
		}
	}
}

func TestPipeDreamSlowerSchedulesMoreMemory(t *testing.T) {
	// GPipe retains all microbatches' activations; 1F1B retains at
	// most numStages-s. With 8 microbatches per minibatch, GPipe's
	// stage-0 peak must exceed DAPPLE's (which caps at 4 in flight).
	gp := buildTinyM(t, pipeline.GPipe, 4, 8)
	da := buildTinyM(t, pipeline.DAPPLE, 4, 8)
	rg, err := exec.Run(exec.Options{Topo: hw.DGX1(), Built: gp, Mapping: exec.IdentityMapping(4)})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := exec.Run(exec.Options{Topo: hw.DGX1(), Built: da, Mapping: exec.IdentityMapping(4)})
	if err != nil {
		t.Fatal(err)
	}
	if rg.GPUs[0].Peak <= rd.GPUs[0].Peak {
		t.Errorf("GPipe stage-0 peak %v must exceed DAPPLE's %v", rg.GPUs[0].Peak, rd.GPUs[0].Peak)
	}
}

func TestMemoryImbalanceAcrossStages(t *testing.T) {
	// Fig. 2: earlier stages peak higher under 1F1B.
	b := buildTiny(t, pipeline.PipeDream, 4)
	r, err := exec.Run(exec.Options{Topo: hw.DGX1(), Built: b, Mapping: exec.IdentityMapping(4)})
	if err != nil {
		t.Fatal(err)
	}
	if r.GPUs[0].Peak <= r.GPUs[3].Peak {
		t.Errorf("stage-0 peak %v must exceed stage-3 peak %v", r.GPUs[0].Peak, r.GPUs[3].Peak)
	}
}

func TestPeakTracksAnalyticDemand(t *testing.T) {
	// The simulated peak should approximate the closed-form Demand
	// model for a synchronous schedule.
	b := buildTiny(t, pipeline.DAPPLE, 4)
	r, err := exec.Run(exec.Options{Topo: hw.DGX1(), Built: b, Mapping: exec.IdentityMapping(4)})
	if err != nil {
		t.Fatal(err)
	}
	d := pipeline.Demand(b.Cfg.Model, b.Cfg.Prec, b.Cfg.Part, pipeline.DAPPLE, 2, 4)
	for s := 0; s < 4; s++ {
		got := float64(r.GPUs[s].Peak)
		want := float64(d[s])
		if got < want*0.7 || got > want*1.3 {
			t.Errorf("stage %d: simulated peak %v vs analytic %v", s, r.GPUs[s].Peak, d[s])
		}
	}
}

func TestOOMDetected(t *testing.T) {
	topo := hw.DGX1()
	topo.GPU.Memory = pipeline.RuntimeReserve + 20*units.MiB
	b := buildTiny(t, pipeline.DAPPLE, 4)
	r, err := exec.Run(exec.Options{Topo: topo, Built: b, Mapping: exec.IdentityMapping(4)})
	if err != nil {
		t.Fatal(err)
	}
	if r.OOM == nil {
		t.Fatal("expected OOM on a 20MiB GPU")
	}
	if r.TFLOPS != 0 {
		t.Error("OOM result must not report throughput")
	}
}

func TestUnboundedMeasuresDemand(t *testing.T) {
	topo := hw.DGX1()
	topo.GPU.Memory = pipeline.RuntimeReserve + 20*units.MiB
	b := buildTiny(t, pipeline.DAPPLE, 4)
	r, err := exec.Run(exec.Options{Topo: topo, Built: b, Mapping: exec.IdentityMapping(4), Unbounded: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.OOM != nil {
		t.Fatalf("unbounded run must not OOM: %v", r.OOM)
	}
	if r.GPUs[0].Peak <= topo.GPU.Memory {
		t.Errorf("peak %v should exceed the tiny capacity", r.GPUs[0].Peak)
	}
}

func TestInitiallySwappedPersistent(t *testing.T) {
	b := buildTiny(t, pipeline.DAPPLE, 4)
	// Start all stage-0 optimizer states on the host and never touch
	// them (no optimizer use instrumentation here; we only check
	// placement accounting).
	var swapped []tensor.ID
	var optBytes units.Bytes
	for _, id := range b.Persistent[0] {
		tn := b.Graph.Tensors.Get(id)
		if tn.Class == tensor.OptimizerState {
			swapped = append(swapped, id)
			optBytes += tn.Size
		}
	}
	slices.Sort(swapped)
	r, err := exec.Run(exec.Options{Topo: hw.DGX1(), Built: b, Mapping: exec.IdentityMapping(4), Parked: swapped})
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := exec.Run(exec.Options{Topo: hw.DGX1(), Built: buildTiny(t, pipeline.DAPPLE, 4), Mapping: exec.IdentityMapping(4)})
	if got, want := plain.GPUs[0].Peak-r.GPUs[0].Peak, optBytes; got != want {
		t.Errorf("initially-swapped saves %v on gpu0, want %v", got, want)
	}
	if r.Host.Peak < optBytes {
		t.Errorf("host must hold the swapped state: %v < %v", r.Host.Peak, optBytes)
	}
}

func TestNonIdentityMapping(t *testing.T) {
	b := buildTiny(t, pipeline.DAPPLE, 4)
	r, err := exec.Run(exec.Options{Topo: hw.DGX1(), Built: b, Mapping: []hw.DeviceID{3, 2, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if r.OOM != nil {
		t.Fatal(r.OOM)
	}
	// Stage 0's memory pressure must follow the mapping to gpu3.
	if r.GPUs[3].Peak <= r.GPUs[0].Peak {
		t.Errorf("reversed mapping: gpu3 peak %v should exceed gpu0 %v", r.GPUs[3].Peak, r.GPUs[0].Peak)
	}
}

func TestIdentityMappingHelper(t *testing.T) {
	m := exec.IdentityMapping(3)
	if len(m) != 3 || m[0] != 0 || m[2] != 2 {
		t.Errorf("IdentityMapping = %v", m)
	}
}

// TestD2DImportOOMLabel: a D2D stripe that does not fit its peer
// reports the OOM against that peer, labelled "d2d import:" plus the
// swapped tensor's name.
func TestD2DImportOOMLabel(t *testing.T) {
	b := buildTiny(t, pipeline.DAPPLE, 4)
	o := planned(t, b, hw.DGX1(), plan.MechD2D)
	first := firstSwapped(o)
	if first < 0 {
		t.Fatal("no swap-outs planned")
	}
	huge := []fabric.Part{{Peer: 3, Bytes: hw.DGX1().GPU.Memory}}
	o.Stripes = routeTo(o.Stripes, first, huge)
	r, err := exec.Run(*o)
	if err != nil {
		t.Fatal(err)
	}
	want := "d2d import:" + b.Graph.Tensors.Get(first).Name
	if r.OOM == nil || r.OOM.What != want || r.OOM.Requested != huge[0].Bytes {
		t.Fatalf("OOM = %+v, want %q of %v", r.OOM, want, huge[0].Bytes)
	}
}

// firstSwapped returns the tensor of o's first swap-out, or -1.
func firstSwapped(o *exec.Options) tensor.ID {
	for _, op := range o.Overlay.Ops {
		if op.Kind == graph.SwapOut {
			return op.Subject
		}
	}
	return -1
}

// routeTo returns st with tensor id routed over parts, a layout added
// after st's; st's arrays, which the plan's decisions share, stay as
// they are.
func routeTo(st exec.Stripes, id tensor.ID, parts []fabric.Part) exec.Stripes {
	of := slices.Clone(st.Of)
	of[id] = int32(len(st.Layouts))
	return exec.Stripes{Of: of, Layouts: append(slices.Clip(st.Layouts), parts)}
}

// TestRunRejectsBadRoutes: Run validates Options.Stripes and Parked up
// front and returns an error, never panics, for each rule: the table
// has an entry per tensor of the graph (or none), each index names a
// layout, peers are other GPUs of the topology, bytes are non-negative,
// and parked IDs are tensors of the graph, ascending, with no route.
func TestRunRejectsBadRoutes(t *testing.T) {
	good := []fabric.Part{{Peer: 3, Bytes: 1 << 20}, {Peer: 2, Bytes: 1 << 20}}
	cases := []struct {
		name string
		edit func(b *pipeline.Built, o *exec.Options, swapped tensor.ID)
		want string
	}{
		{"key past the graph", func(_ *pipeline.Built, o *exec.Options, _ tensor.ID) {
			o.Stripes.Of = append(slices.Clone(o.Stripes.Of), 1)
		}, "stripe table has"},
		{"table short of the graph", func(_ *pipeline.Built, o *exec.Options, _ tensor.ID) {
			o.Stripes.Of = o.Stripes.Of[:len(o.Stripes.Of)-1]
		}, "stripe table has"},
		{"layout past the layouts", func(_ *pipeline.Built, o *exec.Options, id tensor.ID) {
			o.Stripes.Of = slices.Clone(o.Stripes.Of)
			o.Stripes.Of[id] = int32(len(o.Stripes.Layouts))
		}, "takes layout"},
		{"negative layout", func(_ *pipeline.Built, o *exec.Options, id tensor.ID) {
			o.Stripes.Of = slices.Clone(o.Stripes.Of)
			o.Stripes.Of[id] = -1
		}, "takes layout"},
		{"peer is the host", func(_ *pipeline.Built, o *exec.Options, id tensor.ID) {
			o.Stripes = routeTo(o.Stripes, id, []fabric.Part{{Peer: hw.Host, Bytes: 1}})
		}, "stripes to"},
		{"peer past the topology", func(_ *pipeline.Built, o *exec.Options, id tensor.ID) {
			o.Stripes = routeTo(o.Stripes, id, []fabric.Part{{Peer: 8, Bytes: 1}})
		}, "stripes to"},
		{"peer is the tensor's own GPU", func(_ *pipeline.Built, o *exec.Options, id tensor.ID) {
			o.Stripes = routeTo(o.Stripes, id, []fabric.Part{{Peer: 0, Bytes: 1}})
		}, "stripes to"},
		{"negative bytes", func(_ *pipeline.Built, o *exec.Options, id tensor.ID) {
			o.Stripes = routeTo(o.Stripes, id, []fabric.Part{{Peer: 3, Bytes: -1}})
		}, "stripes -1 bytes"},
		{"tensor starts in host memory", func(_ *pipeline.Built, o *exec.Options, id tensor.ID) {
			o.Parked = []tensor.ID{id}
		}, "starts in host memory"},
		{"parked past the graph", func(b *pipeline.Built, o *exec.Options, _ tensor.ID) {
			o.Parked = []tensor.ID{tensor.ID(b.Graph.Tensors.Len())}
		}, "-tensor graph"},
		{"negative parked", func(_ *pipeline.Built, o *exec.Options, _ tensor.ID) {
			o.Parked = []tensor.ID{-1}
		}, "-tensor graph"},
		{"parked out of order", func(b *pipeline.Built, o *exec.Options, _ tensor.ID) {
			p := b.Persistent[0]
			o.Parked = []tensor.ID{max(p[0], p[1]), min(p[0], p[1])}
		}, "listed after"},
		{"valid routes", func(_ *pipeline.Built, o *exec.Options, id tensor.ID) {
			o.Stripes = routeTo(o.Stripes, id, good)
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := buildTiny(t, pipeline.DAPPLE, 4)
			o := planned(t, b, hw.DGX1(), plan.MechD2D)
			swapped := firstSwapped(o)
			if swapped < 0 {
				t.Fatal("no routed swap pair")
			}
			tc.edit(b, o, swapped)
			r, err := exec.Run(*o)
			if tc.want == "" {
				if err != nil || r.OOM != nil {
					t.Fatalf("valid routes: err %v, OOM %v", err, r.OOM)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// planned lays over b a plan that puts every stage-0 block activation
// of every microbatch under mech, D2D stripes going half to GPU 3 and
// half to GPU 2, and returns plan.Apply's options for topo with the
// identity mapping.
func planned(t *testing.T, b *pipeline.Built, topo *hw.Topology, mech plan.Mechanism) *exec.Options {
	t.Helper()
	pl := &plan.Plan{
		Mapping: exec.IdentityMapping(b.NumStages()),
		Act:     map[tensor.ID]plan.Mechanism{},
		Parts:   map[tensor.ID][]fabric.Part{},
	}
	for m := 0; m < b.TotalMicrobatches; m++ {
		for _, id := range b.Acts(pipeline.SlotKey{Stage: 0, Microbatch: m}) {
			if _, ok := b.RecomputeFLOPs(id); !ok {
				continue
			}
			pl.Act[id] = mech
			if mech == plan.MechD2D {
				size := b.Graph.Tensors.Get(id).Size
				pl.Parts[id] = []fabric.Part{{Peer: 3, Bytes: size / 2}, {Peer: 2, Bytes: size - size/2}}
			}
		}
	}
	o, err := plan.Apply(pl, b, topo)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestRecomputeSavesMemoryCostsTime(t *testing.T) {
	plain := buildTiny(t, pipeline.DAPPLE, 4)
	rp, err := exec.Run(exec.Options{Topo: hw.DGX1(), Built: plain, Mapping: exec.IdentityMapping(4)})
	if err != nil {
		t.Fatal(err)
	}
	rec := buildTiny(t, pipeline.DAPPLE, 4)
	rr, err := exec.Run(*planned(t, rec, hw.DGX1(), plan.MechRecompute))
	if err != nil {
		t.Fatal(err)
	}
	if rr.OOM != nil {
		t.Fatal(rr.OOM)
	}
	if rr.GPUs[0].Peak >= rp.GPUs[0].Peak {
		t.Errorf("recompute peak %v must beat plain %v", rr.GPUs[0].Peak, rp.GPUs[0].Peak)
	}
	if rr.Duration < rp.Duration {
		t.Errorf("recompute duration %v must not beat plain %v", rr.Duration, rp.Duration)
	}
	// Useful FLOPs (the TFLOPS numerator) must not count recompute.
	if rr.UsefulFLOPs != rp.UsefulFLOPs {
		t.Error("recompute inflated useful FLOPs")
	}
}

func TestHostSwapSavesMemory(t *testing.T) {
	plain := buildTiny(t, pipeline.DAPPLE, 4)
	rp, _ := exec.Run(exec.Options{Topo: hw.DGX1(), Built: plain, Mapping: exec.IdentityMapping(4)})

	sw := buildTiny(t, pipeline.DAPPLE, 4)
	rs, err := exec.Run(*planned(t, sw, hw.DGX1(), plan.MechHostSwap))
	if err != nil {
		t.Fatal(err)
	}
	if rs.OOM != nil {
		t.Fatal(rs.OOM)
	}
	// On this tiny model the PCIe drain is slower than the fill rate,
	// so the warmup spike still bounds the peak (the paper's "tension
	// between the huge amount of tensors that demand swapping and the
	// limited PCI-e bandwidth"); transient prefetch may even nudge it
	// up slightly. The durable saving shows in the host residency.
	if float64(rs.GPUs[0].Peak) > float64(rp.GPUs[0].Peak)*1.05 {
		t.Errorf("swap peak %v far exceeds plain %v", rs.GPUs[0].Peak, rp.GPUs[0].Peak)
	}
	if rs.Host.Peak == 0 {
		t.Error("host swap must use host memory")
	}
	if rs.Duration <= rp.Duration {
		t.Errorf("PCIe swap should slow the tiny job: %v vs %v", rs.Duration, rp.Duration)
	}
}

func TestD2DSwapFasterThanHostSwap(t *testing.T) {
	host := buildTiny(t, pipeline.DAPPLE, 4)
	rh, err := exec.Run(*planned(t, host, hw.DGX1(), plan.MechHostSwap))
	if err != nil {
		t.Fatal(err)
	}

	d2d := buildTiny(t, pipeline.DAPPLE, 4)
	rd, err := exec.Run(*planned(t, d2d, hw.DGX1(), plan.MechD2D))
	if err != nil {
		t.Fatal(err)
	}
	if rd.OOM != nil {
		t.Fatal(rd.OOM)
	}
	if rd.Duration >= rh.Duration {
		t.Errorf("D2D swap %v must beat GPU-CPU swap %v", rd.Duration, rh.Duration)
	}
	// The peers that imported stripes must have seen extra peak usage.
	var persistent3 units.Bytes
	for _, id := range d2d.Persistent[3] {
		persistent3 += d2d.Graph.Tensors.Get(id).Size
	}
	if rd.GPUs[3].Peak <= persistent3+pipeline.RuntimeReserve {
		t.Error("peer gpu3 shows no imported stripes")
	}
}
