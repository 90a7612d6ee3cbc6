package plan

import (
	"testing"

	"mpress/internal/exec"
	"mpress/internal/hw"
	"mpress/internal/model"
	"mpress/internal/pipeline"
	"mpress/internal/tensor"
	"mpress/internal/units"
)

// smallJob returns a build factory for an 8-block model over 4 stages
// of an 8-GPU server, sized so stage 0 overflows `capacity` while
// later stages (and the four unused GPUs) have spare memory.
func smallJob(t *testing.T, kind pipeline.ScheduleKind) func() (*pipeline.Built, error) {
	t.Helper()
	cfg := model.Config{
		Name: "Small", Arch: model.GPT,
		Layers: 8, Hidden: 2048, Heads: 32, SeqLen: 512, Vocab: 8192,
		DType: tensor.FP16,
	}
	prec := model.MixedAdam()
	part, err := pipeline.PartitionModel(cfg, 4, pipeline.ComputeBalanced, kind, prec, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	return func() (*pipeline.Built, error) {
		return pipeline.Build(pipeline.BuildConfig{
			Model: cfg, Prec: prec, Part: part, Kind: kind,
			MicrobatchSize: 4, Microbatches: 4, Minibatches: 2,
		})
	}
}

// topoWithCapacity returns a DGX-1 with overridden per-GPU memory.
func topoWithCapacity(capGiB float64) *hw.Topology {
	topo := hw.DGX1()
	topo.GPU.Memory = units.GB(capGiB)
	return topo
}

// measure returns the unbounded per-stage peaks of the job.
func measure(t *testing.T, build func() (*pipeline.Built, error), topo *hw.Topology) []units.Bytes {
	t.Helper()
	b, err := build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := exec.Run(exec.Options{Topo: topo, Built: b, Mapping: exec.IdentityMapping(4), Unbounded: true})
	if err != nil {
		t.Fatal(err)
	}
	peaks := make([]units.Bytes, 4)
	for s := 0; s < 4; s++ {
		peaks[s] = r.GPUs[s].Peak
	}
	return peaks
}

// capacityBetween picks a capacity between the max and second-max
// stage peaks so exactly the top stage overflows.
func capacityBetween(t *testing.T, peaks []units.Bytes) float64 {
	t.Helper()
	max, second := units.Bytes(0), units.Bytes(0)
	for _, p := range peaks {
		if p > max {
			second = max
			max = p
		} else if p > second {
			second = p
		}
	}
	if max == second {
		t.Fatal("degenerate peaks")
	}
	return (float64(max)*0.7 + float64(second)*0.3) / float64(units.GiB)
}

func runPlanned(t *testing.T, pl *Plan, build func() (*pipeline.Built, error), topo *hw.Topology) *exec.Result {
	t.Helper()
	b, err := build()
	if err != nil {
		t.Fatal(err)
	}
	opts, err := Apply(pl, b, topo)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(*opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFullPlannerRescuesOOM(t *testing.T) {
	build := smallJob(t, pipeline.PipeDream)
	peaks := measure(t, build, hw.DGX1())
	topo := topoWithCapacity(capacityBetween(t, peaks))

	// Sanity: the plain job must OOM at this capacity.
	b, _ := build()
	plain, err := exec.Run(exec.Options{Topo: topo, Built: b, Mapping: exec.IdentityMapping(4)})
	if err != nil {
		t.Fatal(err)
	}
	if plain.OOM == nil {
		t.Fatal("test setup: plain job should OOM")
	}

	pl, err := Compute(Options{Topo: topo, Build: build, Allowed: AllMechanisms()})
	if err != nil {
		t.Fatal(err)
	}
	res := runPlanned(t, pl, build, topo)
	if res.OOM != nil {
		t.Fatalf("planned job still OOMs: %v", res.OOM)
	}
	if len(pl.Act)+len(pl.HostPersist) == 0 {
		t.Error("plan is empty despite overflow")
	}
	if pl.Emulations == 0 {
		t.Error("planner never consulted the emulator")
	}
	var total units.Bytes
	for _, v := range pl.SavedByMech {
		total += v
	}
	if total <= 0 {
		t.Error("no savings recorded")
	}
}

func TestPlannerNoOverflowMakesEmptyPlan(t *testing.T) {
	build := smallJob(t, pipeline.DAPPLE)
	pl, err := Compute(Options{Topo: hw.DGX1(), Build: build, Allowed: AllMechanisms()})
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Act) != 0 || len(pl.HostPersist) != 0 {
		t.Errorf("plan not empty: %d acts, %d persists", len(pl.Act), len(pl.HostPersist))
	}
	res := runPlanned(t, pl, build, hw.DGX1())
	if res.OOM != nil {
		t.Fatal(res.OOM)
	}
}

func TestRecomputeOnlyPlanner(t *testing.T) {
	build := smallJob(t, pipeline.PipeDream)
	peaks := measure(t, build, hw.DGX1())
	topo := topoWithCapacity(capacityBetween(t, peaks))
	pl, err := Compute(Options{
		Topo: topo, Build: build,
		Allowed: Allowed{Recompute: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, mech := range pl.Act {
		if mech != MechRecompute {
			t.Errorf("tensor %d uses %v in recompute-only mode", id, mech)
		}
	}
	if len(pl.HostPersist) != 0 {
		t.Error("recompute-only plan parked persistent tensors")
	}
	res := runPlanned(t, pl, build, topo)
	if res.OOM != nil {
		t.Fatalf("recompute-only plan OOMs on a mild overflow: %v", res.OOM)
	}
}

func TestD2DOnlyPlanner(t *testing.T) {
	build := smallJob(t, pipeline.PipeDream)
	peaks := measure(t, build, hw.DGX1())
	topo := topoWithCapacity(capacityBetween(t, peaks))
	pl, err := Compute(Options{
		Topo: topo, Build: build,
		Allowed: Allowed{D2D: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, mech := range pl.Act {
		if mech != MechD2D {
			t.Errorf("tensor %d uses %v in D2D-only mode", id, mech)
		}
		if len(pl.Parts[id]) == 0 {
			t.Errorf("tensor %d has no stripes", id)
		}
	}
	res := runPlanned(t, pl, build, topo)
	if res.OOM != nil {
		t.Fatalf("D2D-only plan OOMs on a mild overflow: %v", res.OOM)
	}
	if pl.SavedByMech[MechD2D] <= 0 {
		t.Error("no D2D savings recorded")
	}
}

func TestD2DOnlyFailsUnderHeavyPressure(t *testing.T) {
	// When every stage overflows, spare memory vanishes and the
	// D2D-only variant cannot save the job (the red crosses of
	// Fig. 7, "Large size").
	build := smallJob(t, pipeline.PipeDream)
	peaks := measure(t, build, hw.DGX1())
	var min units.Bytes = peaks[0]
	for _, p := range peaks {
		if p < min {
			min = p
		}
	}
	topo := topoWithCapacity(float64(min) * 0.98 / float64(units.GiB))
	pl, err := Compute(Options{
		Topo: topo, Build: build,
		Allowed: Allowed{D2D: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := runPlanned(t, pl, build, topo)
	if res.OOM == nil {
		t.Error("D2D-only should not survive when no stage has spare memory")
	}
}

func TestFullBeatsHostSwapOnly(t *testing.T) {
	build := smallJob(t, pipeline.PipeDream)
	peaks := measure(t, build, hw.DGX1())
	topo := topoWithCapacity(capacityBetween(t, peaks))

	full, err := Compute(Options{Topo: topo, Build: build, Allowed: AllMechanisms()})
	if err != nil {
		t.Fatal(err)
	}
	swapOnly, err := Compute(Options{Topo: topo, Build: build, Allowed: Allowed{HostSwap: true}})
	if err != nil {
		t.Fatal(err)
	}
	rFull := runPlanned(t, full, build, topo)
	rSwap := runPlanned(t, swapOnly, build, topo)
	if rFull.OOM != nil || rSwap.OOM != nil {
		t.Fatalf("OOMs: %v / %v", rFull.OOM, rSwap.OOM)
	}
	if rFull.Duration > rSwap.Duration {
		t.Errorf("full MPress (%v) must not lose to GPU-CPU swap only (%v)",
			rFull.Duration, rSwap.Duration)
	}
}

func TestPlanDeterministic(t *testing.T) {
	build := smallJob(t, pipeline.PipeDream)
	peaks := measure(t, build, hw.DGX1())
	topo := topoWithCapacity(capacityBetween(t, peaks))
	a, err := Compute(Options{Topo: topo, Build: build, Allowed: AllMechanisms()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compute(Options{Topo: topo, Build: build, Allowed: AllMechanisms()})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Act) != len(b.Act) || a.Planned != b.Planned {
		t.Errorf("plans differ: %d/%d acts, %v/%v durations",
			len(a.Act), len(b.Act), a.Planned, b.Planned)
	}
	for id, mech := range a.Act {
		if b.Act[id] != mech {
			t.Fatalf("tensor %d: %v vs %v", id, mech, b.Act[id])
		}
	}
}

func TestDisableMappingSearchKeepsIdentity(t *testing.T) {
	build := smallJob(t, pipeline.PipeDream)
	peaks := measure(t, build, hw.DGX1())
	topo := topoWithCapacity(capacityBetween(t, peaks))
	pl, err := Compute(Options{
		Topo: topo, Build: build, Allowed: AllMechanisms(),
		DisableMappingSearch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for s, g := range pl.Mapping {
		if int(g) != s {
			t.Fatalf("mapping not identity: %v", pl.Mapping)
		}
	}
}

func TestMechanismString(t *testing.T) {
	if MechRecompute.String() != "Recomputation" || MechHostSwap.String() != "GPU-CPU swap" ||
		MechD2D.String() != "D2D swap" || MechNone.String() != "none" {
		t.Error("mechanism names wrong")
	}
}

func TestComputeValidatesOptions(t *testing.T) {
	if _, err := Compute(Options{}); err == nil {
		t.Error("empty options accepted")
	}
}
