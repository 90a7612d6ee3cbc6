package exec_test

import (
	"mpress/internal/exec"
	"testing"

	"mpress/internal/hw"
	"mpress/internal/pipeline"
	"mpress/internal/plan"
	"mpress/internal/units"
)

// TestHostSwapSpillsToNVMe: when host memory is too small for the
// pinned pool, swap traffic spills onto the SSD tier instead of dying.
func TestHostSwapSpillsToNVMe(t *testing.T) {
	topo := hw.DGX1WithNVMe()
	topo.HostMemory = 4 * units.MiB // far below the swapped activations
	b := buildTiny(t, pipeline.DAPPLE, 4)
	r, err := exec.Run(*planned(t, b, topo, plan.MechHostSwap))
	if err != nil {
		t.Fatal(err)
	}
	if r.OOM != nil {
		t.Fatalf("spill path should save the job: %v", r.OOM)
	}
	if r.NVMe.Peak == 0 {
		t.Error("no NVMe residency recorded despite host exhaustion")
	}
	if r.Fabric.NVMeBytes == 0 {
		t.Error("no NVMe traffic recorded")
	}
	// NVMe round trips must fully return the tier's bytes by the end.
	if r.NVMe.InUse != 0 {
		t.Errorf("NVMe leaks %v", r.NVMe.InUse)
	}
}

// TestHostSwapWithoutNVMeFails: the same tiny host with no SSD tier is
// a hard OOM.
func TestHostSwapWithoutNVMeFails(t *testing.T) {
	topo := hw.DGX1()
	topo.HostMemory = 4 * units.MiB
	b := buildTiny(t, pipeline.DAPPLE, 4)
	r, err := exec.Run(*planned(t, b, topo, plan.MechHostSwap))
	if err != nil {
		t.Fatal(err)
	}
	if r.OOM == nil {
		t.Fatal("expected host OOM without an NVMe tier")
	}
	if r.OOM.Device != "host" {
		t.Errorf("OOM on %s, want host", r.OOM.Device)
	}
}

// TestNVMeSpillSlowerThanHost: the SSD path must cost more time than
// plain host swapping.
func TestNVMeSpillSlowerThanHost(t *testing.T) {
	host := buildTiny(t, pipeline.DAPPLE, 4)
	rh, err := exec.Run(*planned(t, host, hw.DGX1WithNVMe(), plan.MechHostSwap))
	if err != nil {
		t.Fatal(err)
	}

	spill := buildTiny(t, pipeline.DAPPLE, 4)
	topo := hw.DGX1WithNVMe()
	topo.HostMemory = 4 * units.MiB
	topo.NVMeBW = units.GBps(2) // slow SSDs make the difference visible
	rs, err := exec.Run(*planned(t, spill, topo, plan.MechHostSwap))
	if err != nil {
		t.Fatal(err)
	}
	if rs.OOM != nil {
		t.Fatal(rs.OOM)
	}
	if rs.Duration <= rh.Duration {
		t.Errorf("NVMe spill (%v) should be slower than host swap (%v)", rs.Duration, rh.Duration)
	}
}

// TestMemorySampling: the Fig. 1 curves — samples are time-ordered,
// cover every GPU, and their maxima match the device peaks.
func TestMemorySampling(t *testing.T) {
	b := buildTiny(t, pipeline.PipeDream, 4)
	r, err := exec.Run(exec.Options{Topo: hw.DGX1(), Built: b, Mapping: exec.IdentityMapping(4), SampleMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.MemorySamples) == 0 {
		t.Fatal("no samples recorded")
	}
	maxSeen := make([]units.Bytes, len(r.GPUs))
	var prev units.Duration
	for _, s := range r.MemorySamples {
		if units.Duration(s.At) < prev {
			t.Fatal("samples out of order")
		}
		prev = units.Duration(s.At)
		if len(s.InUse) != len(r.GPUs) {
			t.Fatalf("sample covers %d GPUs", len(s.InUse))
		}
		for g, v := range s.InUse {
			if v > maxSeen[g] {
				maxSeen[g] = v
			}
		}
	}
	for g := range maxSeen {
		if maxSeen[g] > r.GPUs[g].Peak {
			t.Errorf("gpu%d sampled %v above device peak %v", g, maxSeen[g], r.GPUs[g].Peak)
		}
	}
	// Stage-0's curve must dominate stage-3's (the Fig. 1 shape).
	if maxSeen[0] <= maxSeen[3] {
		t.Errorf("sampled curves lost the imbalance: %v vs %v", maxSeen[0], maxSeen[3])
	}
	// Sampling off => no samples.
	b2 := buildTiny(t, pipeline.PipeDream, 4)
	r2, _ := exec.Run(exec.Options{Topo: hw.DGX1(), Built: b2, Mapping: exec.IdentityMapping(4)})
	if r2.MemorySamples != nil {
		t.Error("samples recorded without SampleMemory")
	}
}

// TestFabricStatsInResult: a pipeline run reports NVLink boundary
// traffic and (with host swaps) PCIe traffic.
func TestFabricStatsInResult(t *testing.T) {
	b := buildTiny(t, pipeline.DAPPLE, 4)
	r, err := exec.Run(exec.Options{Topo: hw.DGX1(), Built: b, Mapping: exec.IdentityMapping(4)})
	if err != nil {
		t.Fatal(err)
	}
	if r.Fabric.NVLinkBytes == 0 {
		t.Error("boundary transfers must appear as NVLink traffic")
	}
	if r.Fabric.PCIeBytes != 0 {
		t.Errorf("plain run reports PCIe traffic: %v", r.Fabric.PCIeBytes)
	}
	sw := buildTiny(t, pipeline.DAPPLE, 4)
	rs, err := exec.Run(*planned(t, sw, hw.DGX1(), plan.MechHostSwap))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Fabric.PCIeBytes == 0 {
		t.Error("host swaps must appear as PCIe traffic")
	}
}
