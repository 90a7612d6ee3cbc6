package exec_test

import (
	"mpress/internal/exec"
	"strings"
	"testing"

	"mpress/internal/hw"
	"mpress/internal/pipeline"
	"mpress/internal/units"
)

func TestOOMResidentsPopulated(t *testing.T) {
	topo := hw.DGX1()
	topo.GPU.Memory = pipeline.RuntimeReserve + 40*units.MiB
	b := buildTiny(t, pipeline.DAPPLE, 4)
	r, err := exec.Run(exec.Options{Topo: topo, Built: b, Mapping: exec.IdentityMapping(4)})
	if err != nil {
		t.Fatal(err)
	}
	if r.OOM == nil {
		t.Fatal("expected OOM")
	}
	if r.OOMResidents == nil {
		t.Fatal("OOMResidents missing")
	}
	if r.OOMResidents["reserve"] != pipeline.RuntimeReserve {
		t.Errorf("reserve entry = %v", r.OOMResidents["reserve"])
	}
	var counted units.Bytes
	for k, v := range r.OOMResidents {
		if v <= 0 {
			t.Errorf("non-positive resident %s = %v", k, v)
		}
		if !strings.HasPrefix(k, "stage") && k != "reserve" {
			t.Errorf("unexpected key %q", k)
		}
		counted += v
	}
	if counted == 0 {
		t.Error("no residents recorded")
	}
	// A successful run must not carry the diagnostic.
	ok, err := exec.Run(exec.Options{Topo: hw.DGX1(), Built: buildTiny(t, pipeline.DAPPLE, 4), Mapping: exec.IdentityMapping(4)})
	if err != nil {
		t.Fatal(err)
	}
	if ok.OOMResidents != nil {
		t.Error("successful run has OOMResidents")
	}
}

// TestNonAdjacentMappingPaysPCIe: mapping consecutive stages to GPUs
// without direct NVLink (e.g. gpu0 and gpu5 on the cube mesh) forces
// boundary traffic onto the PCIe fallback and slows the run — the
// pressure that motivates the device-mapping search.
func TestNonAdjacentMappingPaysPCIe(t *testing.T) {
	b1 := buildTiny(t, pipeline.DAPPLE, 4)
	good, err := exec.Run(exec.Options{Topo: hw.DGX1(), Built: b1, Mapping: []hw.DeviceID{0, 1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	b2 := buildTiny(t, pipeline.DAPPLE, 4)
	// 0-5, 5-2, 2-7: all NVLink-unreachable hops on the DGX-1.
	bad, err := exec.Run(exec.Options{Topo: hw.DGX1(), Built: b2, Mapping: []hw.DeviceID{0, 5, 2, 7}})
	if err != nil {
		t.Fatal(err)
	}
	if bad.Duration <= good.Duration {
		t.Errorf("unreachable mapping (%v) must be slower than adjacent (%v)",
			bad.Duration, good.Duration)
	}
}

// TestPipeDreamOverlapsMinibatches: async scheduling lets the second
// minibatch start before the first minibatch's optimizer step gates it,
// so PipeDream finishes the same work faster than DAPPLE.
func TestPipeDreamOverlapsMinibatches(t *testing.T) {
	pd := buildTiny(t, pipeline.PipeDream, 4)
	da := buildTiny(t, pipeline.DAPPLE, 4)
	rp, err := exec.Run(exec.Options{Topo: hw.DGX1(), Built: pd, Mapping: exec.IdentityMapping(4)})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := exec.Run(exec.Options{Topo: hw.DGX1(), Built: da, Mapping: exec.IdentityMapping(4)})
	if err != nil {
		t.Fatal(err)
	}
	if rp.Duration >= rd.Duration {
		t.Errorf("PipeDream (%v) must beat DAPPLE (%v) on the same work (no flush)",
			rp.Duration, rd.Duration)
	}
}

// TestComputeBusyBounded: no stream can be busier than the run is long,
// and the bottleneck stage must be meaningfully utilized.
func TestComputeBusyBounded(t *testing.T) {
	b := buildTiny(t, pipeline.DAPPLE, 4)
	r, err := exec.Run(exec.Options{Topo: hw.DGX1(), Built: b, Mapping: exec.IdentityMapping(4)})
	if err != nil {
		t.Fatal(err)
	}
	var max units.Duration
	for g, busy := range r.ComputeBusy {
		if busy > r.Duration {
			t.Errorf("gpu%d busy %v exceeds run %v", g, busy, r.Duration)
		}
		if busy > max {
			max = busy
		}
	}
	if float64(max) < 0.3*float64(r.Duration) {
		t.Errorf("bottleneck utilization %.0f%% suspiciously low",
			float64(max)/float64(r.Duration)*100)
	}
}

// TestSamplesPerSecConsistent: samples/s × duration = samples.
func TestSamplesPerSecConsistent(t *testing.T) {
	b := buildTiny(t, pipeline.DAPPLE, 4)
	r, err := exec.Run(exec.Options{Topo: hw.DGX1(), Built: b, Mapping: exec.IdentityMapping(4)})
	if err != nil {
		t.Fatal(err)
	}
	got := r.SamplesPerSec * r.Duration.Secondsf()
	want := float64(b.SamplesProcessed())
	if got < want*0.999 || got > want*1.001 {
		t.Errorf("samples/s inconsistent: %.2f vs %v", got, want)
	}
}

// TestFasterGPUFasterRun: the same job on A100s must finish sooner.
func TestFasterGPUFasterRun(t *testing.T) {
	v := buildTiny(t, pipeline.DAPPLE, 4)
	rv, err := exec.Run(exec.Options{Topo: hw.DGX1(), Built: v, Mapping: exec.IdentityMapping(4)})
	if err != nil {
		t.Fatal(err)
	}
	a := buildTiny(t, pipeline.DAPPLE, 4)
	ra, err := exec.Run(exec.Options{Topo: hw.DGX2(), Built: a, Mapping: exec.IdentityMapping(4)})
	if err != nil {
		t.Fatal(err)
	}
	if ra.Duration >= rv.Duration {
		t.Errorf("A100 run (%v) must beat V100 run (%v)", ra.Duration, rv.Duration)
	}
}

// TestCapacityMonotonicity: if the job survives at capacity C, it
// survives at every larger capacity (with identical duration — more
// memory never changes timing for an uninstrumented run).
func TestCapacityMonotonicity(t *testing.T) {
	base := buildTiny(t, pipeline.DAPPLE, 4)
	ref, err := exec.Run(exec.Options{Topo: hw.DGX1(), Built: base, Mapping: exec.IdentityMapping(4), Unbounded: true})
	if err != nil {
		t.Fatal(err)
	}
	var peak units.Bytes
	for _, g := range ref.GPUs {
		if g.Peak > peak {
			peak = g.Peak
		}
	}
	var prevOK bool
	for _, capacity := range []units.Bytes{peak - units.MiB, peak, peak + units.GiB, 2 * peak} {
		topo := hw.DGX1()
		topo.GPU.Memory = capacity
		b := buildTiny(t, pipeline.DAPPLE, 4)
		r, err := exec.Run(exec.Options{Topo: topo, Built: b, Mapping: exec.IdentityMapping(4)})
		if err != nil {
			t.Fatal(err)
		}
		ok := r.OOM == nil
		if prevOK && !ok {
			t.Fatalf("survived at a smaller capacity but OOMs at %v", capacity)
		}
		if ok {
			if r.Duration != ref.Duration {
				t.Errorf("capacity %v changed timing: %v vs %v", capacity, r.Duration, ref.Duration)
			}
			prevOK = true
		}
	}
	if !prevOK {
		t.Error("job never survived, even at 2x its own peak")
	}
}
