package hw

import (
	"strings"
	"testing"

	"mpress/internal/units"
)

func TestDeviceIDString(t *testing.T) {
	if Host.String() != "host" || NVMe.String() != "nvme" || DeviceID(3).String() != "gpu3" {
		t.Error("device names wrong")
	}
	if DeviceID(-5).String() != "device(-5)" {
		t.Error("unknown device name wrong")
	}
	if Host.IsGPU() || NVMe.IsGPU() || !DeviceID(0).IsGPU() {
		t.Error("IsGPU wrong")
	}
}

func TestGPUSpecEffective(t *testing.T) {
	v := V100()
	if v.Memory != 32*units.GiB {
		t.Errorf("V100 memory = %v", v.Memory)
	}
	wantFP16 := units.FLOPSRate(float64(v.PeakFP16) * v.Efficiency)
	if v.EffectiveFP16() != wantFP16 {
		t.Errorf("EffectiveFP16 = %v, want %v", v.EffectiveFP16(), wantFP16)
	}
	if v.EffectiveFP32() >= v.PeakFP32 {
		t.Error("effective rate must be below peak")
	}
	a := A100()
	if a.Memory != 40*units.GiB {
		t.Errorf("A100 memory = %v", a.Memory)
	}
	// The paper observes DGX-2 performance "more than doubled" over
	// DGX-1 (Sec. IV-C); that requires the fp16 rate ratio > 2.
	if float64(a.EffectiveFP16())/float64(v.EffectiveFP16()) <= 2 {
		t.Error("A100/V100 fp16 ratio must exceed 2×")
	}
}

func TestDGX1Valid(t *testing.T) {
	d := DGX1()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Switched {
		t.Error("DGX-1 must be a direct (asymmetric) topology")
	}
	// Every V100 terminates exactly 6 NVLink lanes.
	for g := 0; g < d.NumGPUs; g++ {
		if got := d.TotalLanes(DeviceID(g)); got != 6 {
			t.Errorf("gpu%d has %d lanes, want 6", g, got)
		}
	}
	// Paper Fig. 3: GPU0 reaches GPU3 at ~50 GB/s (two lanes).
	if got := d.LanesBetween(0, 3); got != 2 {
		t.Errorf("lanes(0,3) = %d, want 2", got)
	}
	bw := d.PairBandwidth(0, 3)
	if bw.GBpsf() < 45 || bw.GBpsf() > 52 {
		t.Errorf("pair bandwidth gpu0->gpu3 = %v, want ~50GB/s", bw)
	}
	// GPU0 and GPU5 are not directly connected in the cube mesh.
	if d.LanesBetween(0, 5) != 0 {
		t.Error("gpu0-gpu5 should have no direct lanes")
	}
	if d.PairBandwidth(0, 5) != 0 {
		t.Error("unreachable pair must have zero bandwidth")
	}
}

func TestDGX1Neighbors(t *testing.T) {
	d := DGX1()
	nbh := d.NVLinkNeighbors(0)
	want := []DeviceID{1, 2, 3, 4}
	if len(nbh) != len(want) {
		t.Fatalf("gpu0 neighbors = %v, want %v", nbh, want)
	}
	for i := range want {
		if nbh[i] != want[i] {
			t.Fatalf("gpu0 neighbors = %v, want %v", nbh, want)
		}
	}
}

func TestDGX1Fig4Ratios(t *testing.T) {
	// Fig. 4: aggregated NVLink bandwidth is 3.9–12.5× PCIe over 2–6
	// lanes.
	d := DGX1()
	two := 2 * float64(d.NVLinkLaneBW)
	six := 6 * float64(d.NVLinkLaneBW)
	pcie := float64(d.PCIeBW)
	if r := two / pcie; r < 3.5 || r > 4.5 {
		t.Errorf("NV2/PCIe ratio = %.2f, want ≈3.9", r)
	}
	if r := six / pcie; r < 11.5 || r > 13.5 {
		t.Errorf("NV6/PCIe ratio = %.2f, want ≈12.5", r)
	}
}

func TestDGX2Valid(t *testing.T) {
	d := DGX2()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if !d.Switched {
		t.Error("DGX-2 must be switched")
	}
	// Symmetric: every pair reachable at the full per-GPU lane budget.
	for i := 0; i < d.NumGPUs; i++ {
		for j := 0; j < d.NumGPUs; j++ {
			if i == j {
				continue
			}
			if got := d.LanesBetween(DeviceID(i), DeviceID(j)); got != d.LanesPerGPU {
				t.Fatalf("lanes(%d,%d) = %d, want %d", i, j, got, d.LanesPerGPU)
			}
		}
	}
	if len(d.NVLinkNeighbors(0)) != 7 {
		t.Error("switched topology: every peer is a neighbor")
	}
	if d.NVMeBW <= 0 || d.NVMeSize != 6*units.TiB {
		t.Error("DGX-2 must model its NVMe tier")
	}
	if DGX2FastNVMe().NVMeBW <= d.NVMeBW {
		t.Error("fast-NVMe variant must be faster")
	}
}

func TestTopologyValidateRejectsBadMatrices(t *testing.T) {
	d := DGX1()
	d.NVLinkLanes[0][1] = 9 // asymmetric now
	if err := d.Validate(); err == nil {
		t.Error("asymmetric matrix not caught")
	}
	d = DGX1()
	d.NVLinkLanes[2][2] = 1
	if err := d.Validate(); err == nil {
		t.Error("self lanes not caught")
	}
	d = DGX1()
	d.NVLinkLanes[0][1] = 5
	d.NVLinkLanes[1][0] = 5
	if err := d.Validate(); err == nil {
		t.Error("lane budget overflow not caught")
	}
	d = DGX1()
	d.NumGPUs = 4
	if err := d.Validate(); err == nil {
		t.Error("matrix/NumGPUs mismatch not caught")
	}
	s := DGX2()
	s.LanesPerGPU = 0
	if err := s.Validate(); err == nil {
		t.Error("switched without lanes not caught")
	}
}

func TestLanesBetweenBounds(t *testing.T) {
	d := DGX1()
	if d.LanesBetween(Host, 0) != 0 || d.LanesBetween(0, NVMe) != 0 {
		t.Error("non-GPU endpoints must have zero NVLink lanes")
	}
	if d.LanesBetween(0, 0) != 0 {
		t.Error("self pair must have zero lanes")
	}
	if d.LanesBetween(0, 99) != 0 {
		t.Error("out-of-range GPU must have zero lanes")
	}
}

func TestAggregateAndTotals(t *testing.T) {
	d := DGX1()
	agg := d.AggregateNVLinkBW(0)
	if got, want := agg.GBpsf(), 6*24.3; got < want-0.5 || got > want+0.5 {
		t.Errorf("aggregate bw = %.1f, want %.1f", got, want)
	}
	if d.TotalGPUMemory() != 256*units.GiB {
		t.Errorf("total memory = %v, want 256GiB", d.TotalGPUMemory())
	}
}

func TestLaneMatrixString(t *testing.T) {
	s := DGX1().LaneMatrixString()
	if !strings.Contains(s, "NV2") || !strings.Contains(s, "NV1") || !strings.Contains(s, "--") || !strings.Contains(s, "X") {
		t.Errorf("matrix rendering missing markers:\n%s", s)
	}
}

func TestGraceHopper(t *testing.T) {
	g := GraceHopper()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.GPU.Memory != 96*units.GiB {
		t.Errorf("GH HBM = %v, want 96GiB", g.GPU.Memory)
	}
	// Sec. V: C2C link is 64 GB/s, far above PCIe but below the
	// 140 GB/s needed to fully hide swap.
	if g.PCIeBW.GBpsf() != 64 {
		t.Errorf("C2C bw = %v", g.PCIeBW)
	}
}
