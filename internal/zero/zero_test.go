package zero

import (
	"testing"

	"mpress/internal/hw"
	"mpress/internal/model"
	"mpress/internal/units"
)

func gptCfg(t *testing.T, size string) model.Config {
	t.Helper()
	cfg, err := model.GPTVariants.Lookup(size)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func run(t *testing.T, topo *hw.Topology, m model.Config, v Variant) *Result {
	t.Helper()
	r, err := Run(Config{
		Topo: topo, Model: m, Prec: model.MixedAdam(), Variant: v,
		MicrobatchSize: 2, GradAccum: 2, Steps: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPerGPUPeakSymmetry pins the documented Result.PerGPUPeak
// contract: one entry per rank, all equal, because every data-parallel
// rank holds an even partition and runs an identical schedule.
func TestPerGPUPeakSymmetry(t *testing.T) {
	for _, v := range []Variant{ZeRO3, ZeROOffload, ZeROInfinity} {
		r := run(t, hw.DGX1WithNVMe(), gptCfg(t, "10.3B"), v)
		if r.OOM != nil {
			t.Fatalf("%v: %v", v, r.OOM)
		}
		if len(r.PerGPUPeak) != hw.DGX1WithNVMe().NumGPUs {
			t.Fatalf("%v: %d peak entries for %d ranks", v, len(r.PerGPUPeak), hw.DGX1WithNVMe().NumGPUs)
		}
		for i, p := range r.PerGPUPeak {
			if p == 0 || p != r.PerGPUPeak[0] {
				t.Errorf("%v: rank %d peak %v breaks symmetry with rank 0 (%v)", v, i, p, r.PerGPUPeak[0])
			}
		}
	}
}

func TestVariantString(t *testing.T) {
	if ZeRO3.String() != "ZeRO-3" || ZeROOffload.String() != "ZeRO-Offload" ||
		ZeROInfinity.String() != "ZeRO-Infinity" {
		t.Error("variant names wrong")
	}
}

func TestBaselinesScaleToLargestGPT(t *testing.T) {
	// Fig. 8: both ZeRO variants sustain GPT models the pipeline
	// systems cannot, up to 25.5B.
	topo := hw.DGX1WithNVMe()
	for _, size := range []string{"5.3B", "10.3B", "15.4B", "20.4B"} {
		for _, v := range []Variant{ZeROOffload, ZeROInfinity} {
			r := run(t, topo, gptCfg(t, size), v)
			if r.OOM != nil {
				t.Errorf("%v on GPT-%s OOMs: %v", v, size, r.OOM)
				continue
			}
			if r.TFLOPS <= 0 {
				t.Errorf("%v on GPT-%s has no throughput", v, size)
			}
		}
	}
	d2 := hw.DGX2()
	for _, v := range []Variant{ZeROOffload, ZeROInfinity} {
		if r := run(t, d2, gptCfg(t, "25.5B"), v); r.OOM != nil {
			t.Errorf("%v on GPT-25.5B/DGX-2 OOMs: %v", v, r.OOM)
		}
	}
}

func TestInfinityBeatsOffloadWithFastNVMe(t *testing.T) {
	// Fig. 8a (DGX-1-class server with healthy SSDs): ZeRO-Infinity
	// outperforms ZeRO-Offload by ~20-24%.
	topo := hw.DGX1WithNVMe()
	m := gptCfg(t, "10.3B")
	off := run(t, topo, m, ZeROOffload)
	inf := run(t, topo, m, ZeROInfinity)
	if off.OOM != nil || inf.OOM != nil {
		t.Fatalf("OOMs: %v / %v", off.OOM, inf.OOM)
	}
	gain := inf.TFLOPS/off.TFLOPS - 1
	if gain < 0.05 || gain > 0.60 {
		t.Errorf("Infinity/Offload gain = %.1f%%, want roughly 20%%", gain*100)
	}
}

func TestInfinityLosesWithSlowNVMe(t *testing.T) {
	// Fig. 8b: on the rented DGX-2 the SSDs were slow, making
	// ZeRO-Infinity slower than ZeRO-Offload on large models.
	topo := hw.DGX2()
	m := gptCfg(t, "20.4B")
	off := run(t, topo, m, ZeROOffload)
	inf := run(t, topo, m, ZeROInfinity)
	if off.OOM != nil || inf.OOM != nil {
		t.Fatalf("OOMs: %v / %v", off.OOM, inf.OOM)
	}
	if inf.TFLOPS >= off.TFLOPS {
		t.Errorf("slow-NVMe Infinity (%.1f) must lose to Offload (%.1f)",
			inf.TFLOPS, off.TFLOPS)
	}
}

func TestZeRO3MemorySmallest(t *testing.T) {
	topo := hw.DGX1WithNVMe()
	m := gptCfg(t, "10.3B")
	z3 := run(t, topo, m, ZeRO3)
	off := run(t, topo, m, ZeROOffload)
	inf := run(t, topo, m, ZeROInfinity)
	if z3.OOM != nil {
		t.Fatalf("ZeRO-3 OOM: %v", z3.OOM)
	}
	// GPU residency strictly shrinks as more state moves off-device.
	if !(inf.PerGPUPeak[0] < off.PerGPUPeak[0] && off.PerGPUPeak[0] < z3.PerGPUPeak[0]) {
		t.Errorf("residency ordering wrong: %v < %v < %v",
			inf.PerGPUPeak[0], off.PerGPUPeak[0], z3.PerGPUPeak[0])
	}
	// Offload's host footprint is the full fp32 optimizer state.
	wantHost := units.Bytes(m.TotalParams() * 12)
	if off.HostPeak != wantHost {
		t.Errorf("Offload host peak = %v, want %v", off.HostPeak, wantHost)
	}
	if inf.NVMePeak == 0 || z3.NVMePeak != 0 {
		t.Error("NVMe accounting wrong")
	}
}

func TestInfinityRequiresNVMe(t *testing.T) {
	if _, err := Run(Config{
		Topo: hw.DGX1(), Model: gptCfg(t, "5.3B"), Prec: model.MixedAdam(),
		Variant: ZeROInfinity, MicrobatchSize: 1, GradAccum: 1,
	}); err == nil {
		t.Error("Infinity without NVMe accepted")
	}
}

func TestRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Run(Config{Topo: hw.DGX1(), Model: gptCfg(t, "5.3B"),
		Prec: model.MixedAdam(), MicrobatchSize: 0, GradAccum: 1}); err == nil {
		t.Error("zero microbatch accepted")
	}
}

func TestThroughputScalesWithGPUSpeed(t *testing.T) {
	// DGX-2's A100s should more than double DGX-1's throughput for
	// compute-bound configs (paper Sec. IV-C).
	m := gptCfg(t, "5.3B")
	v100 := run(t, hw.DGX1WithNVMe(), m, ZeROOffload)
	a100 := run(t, hw.DGX2(), m, ZeROOffload)
	if v100.OOM != nil || a100.OOM != nil {
		t.Fatalf("OOMs: %v / %v", v100.OOM, a100.OOM)
	}
	if a100.TFLOPS <= v100.TFLOPS*1.5 {
		t.Errorf("A100 %.1f vs V100 %.1f: expected a clear speedup", a100.TFLOPS, v100.TFLOPS)
	}
}

func TestDeterministic(t *testing.T) {
	m := gptCfg(t, "10.3B")
	a := run(t, hw.DGX2(), m, ZeROInfinity)
	b := run(t, hw.DGX2(), m, ZeROInfinity)
	if a.Duration != b.Duration {
		t.Errorf("durations differ: %v vs %v", a.Duration, b.Duration)
	}
}

func TestOOMOnTinyGPU(t *testing.T) {
	topo := hw.DGX1WithNVMe()
	topo.GPU.Memory = 3 * units.GiB
	r := run(t, topo, gptCfg(t, "20.4B"), ZeRO3)
	if r.OOM == nil {
		t.Error("expected OOM on a 3GiB GPU")
	}
}
