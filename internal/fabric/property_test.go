package fabric

import (
	"testing"
	"testing/quick"

	"mpress/internal/hw"
	"mpress/internal/sim"
	"mpress/internal/units"
)

// TestP2PBandwidthNeverExceedsPhysical: no transfer can beat the lane
// aggregate of its pair.
func TestP2PBandwidthNeverExceedsPhysical(t *testing.T) {
	topo := hw.DGX1()
	f := func(sizeIn uint32, srcIn, dstIn uint8) bool {
		src := hw.DeviceID(int(srcIn) % 8)
		dst := hw.DeviceID(int(dstIn) % 8)
		if src == dst {
			return true
		}
		size := units.Bytes(sizeIn%(1<<28)) + 1
		bw := EffectiveBandwidth(topo, src, dst, size, 0)
		limit := topo.PairBandwidth(src, dst)
		if limit == 0 {
			limit = topo.PCIeBW // the host fallback path
		}
		return float64(bw) <= float64(limit)*1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestScatterConservesBytes: every byte handed to Scatter is recorded
// as moved through the fabric.
func TestScatterConservesBytes(t *testing.T) {
	topo := hw.DGX1()
	f := func(a, b, c uint24ish) bool {
		parts := []Part{
			{Peer: 1, Bytes: units.Bytes(a % (1 << 24))},
			{Peer: 3, Bytes: units.Bytes(b % (1 << 24))},
			{Peer: 4, Bytes: units.Bytes(c % (1 << 24))},
		}
		var want units.Bytes
		for _, p := range parts {
			want += p.Bytes
		}
		s := sim.New()
		f := New(s, topo)
		start, end := f.Scatter(0, parts)
		if want == 0 {
			return start == end
		}
		return end > start
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

type uint24ish = uint32

// TestSerializedTransfersAccumulate: N same-direction transfers take N
// times one transfer (no magical parallelism on a single pair).
func TestSerializedTransfersAccumulate(t *testing.T) {
	topo := hw.DGX1()
	s := sim.New()
	f := New(s, topo)
	size := 64 * units.MiB
	_, end1 := f.P2P(0, 1, size, 0)
	var endN sim.Time
	for i := 0; i < 4; i++ {
		_, endN = f.P2P(0, 1, size, 0)
	}
	ratio := float64(endN) / float64(end1)
	if ratio < 4.9 || ratio > 5.1 {
		t.Errorf("5 serialized transfers = %.2fx one, want 5x", ratio)
	}
}

// TestDisjointPairsDontContend: transfers on disjoint DGX-1 pairs run
// fully in parallel.
func TestDisjointPairsDontContend(t *testing.T) {
	topo := hw.DGX1()
	s := sim.New()
	f := New(s, topo)
	size := 64 * units.MiB
	// Three disjoint single-lane pairs of the cube mesh.
	_, e1 := f.P2P(0, 1, size, 0)
	_, e2 := f.P2P(2, 6, size, 0)
	_, e3 := f.P2P(3, 7, size, 0)
	if e2 != e1 || e3 != e1 {
		t.Errorf("disjoint transfers ended at %v, %v, %v", e1, e2, e3)
	}
}

// TestOppositeDirectionsFullDuplex: NVLink lanes are modelled per
// direction, so A->B and B->A do not contend.
func TestOppositeDirectionsFullDuplex(t *testing.T) {
	topo := hw.DGX1()
	s := sim.New()
	f := New(s, topo)
	size := 64 * units.MiB
	_, e1 := f.P2P(0, 3, size, 0)
	_, e2 := f.P2P(3, 0, size, 0)
	if e2 != e1 {
		t.Errorf("duplex directions contended: %v vs %v", e1, e2)
	}
}

// TestGraceHopperC2CStandsInForPCIe: the Sec. V platform's host link
// runs at NVLink-C2C speed.
func TestGraceHopperC2CStandsInForPCIe(t *testing.T) {
	bw := EffectiveHostBandwidth(hw.GraceHopper(), 0, 512*units.MiB)
	if g := bw.GBpsf(); g < 60 || g > 64.5 {
		t.Errorf("C2C host link = %.1f GB/s, want ≈64", g)
	}
}
