package fabric

import (
	"fmt"
	"sync"
	"testing"

	"mpress/internal/hw"
	"mpress/internal/sim"
	"mpress/internal/units"
)

func TestP2PDirectUsesAllPairLanes(t *testing.T) {
	topo := hw.DGX1()
	size := 100 * units.MiB
	// gpu0->gpu3 has two lanes: ~2× the bandwidth of gpu0->gpu1 (one).
	bw2 := EffectiveBandwidth(topo, 0, 3, size, 0)
	bw1 := EffectiveBandwidth(topo, 0, 1, size, 0)
	ratio := float64(bw2) / float64(bw1)
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("2-lane/1-lane ratio = %.2f, want ≈2", ratio)
	}
	// Single-lane effective bandwidth approaches the lane rate.
	if g := bw1.GBpsf(); g < 23 || g > 24.5 {
		t.Errorf("single lane = %.1f GB/s, want ≈24.3", g)
	}
}

func TestP2PMaxStripesCap(t *testing.T) {
	topo := hw.DGX1()
	size := 100 * units.MiB
	capped := EffectiveBandwidth(topo, 0, 3, size, 1)
	full := EffectiveBandwidth(topo, 0, 3, size, 0)
	if float64(full)/float64(capped) < 1.9 {
		t.Errorf("stripe cap ignored: capped %v vs full %v", capped, full)
	}
}

func TestP2PFallbackOverPCIe(t *testing.T) {
	topo := hw.DGX1()
	// gpu0 and gpu5 share no NVLink lanes: the route degrades to PCIe
	// bandwidth.
	bw := EffectiveBandwidth(topo, 0, 5, 100*units.MiB, 0)
	if g := bw.GBpsf(); g < 9 || g > 12 {
		t.Errorf("PCIe fallback = %.1f GB/s, want ≈11.7", g)
	}
}

func TestBandwidthRampsWithSize(t *testing.T) {
	// Fig. 4: setup latency suppresses small-transfer bandwidth.
	topo := hw.DGX1()
	small := EffectiveBandwidth(topo, 0, 3, 64*units.KiB, 0)
	large := EffectiveBandwidth(topo, 0, 3, 256*units.MiB, 0)
	if float64(small) >= float64(large)*0.8 {
		t.Errorf("bandwidth should ramp with size: small %v, large %v", small, large)
	}
}

func TestScatterAggregatesLanes(t *testing.T) {
	topo := hw.DGX1()
	// gpu0's six lanes: 1 to gpu1, 1 to gpu2, 2 to gpu3, 2 to gpu4.
	// Scattering proportionally should approach 6× lane bandwidth
	// (paper Fig. 4: ~146 GB/s with 6 links).
	size := 600 * units.MiB
	parts := []Part{
		{Peer: 1, Bytes: size / 6},
		{Peer: 2, Bytes: size / 6},
		{Peer: 3, Bytes: size / 3},
		{Peer: 4, Bytes: size / 3},
	}
	bw := EffectiveScatterBandwidth(topo, 0, parts)
	if g := bw.GBpsf(); g < 135 || g > 150 {
		t.Errorf("6-lane scatter = %.1f GB/s, want ≈146", g)
	}
}

func TestScatterWeightingMatters(t *testing.T) {
	// Equal-sized parts over unequal lanes waste the fat pair: the
	// weighted split must beat the naive one (motivates the paper's
	// weighted data stripping on DGX-1).
	topo := hw.DGX1()
	size := 600 * units.MiB
	naive := []Part{
		{Peer: 1, Bytes: size / 4}, {Peer: 2, Bytes: size / 4},
		{Peer: 3, Bytes: size / 4}, {Peer: 4, Bytes: size / 4},
	}
	weighted := []Part{
		{Peer: 1, Bytes: size / 6}, {Peer: 2, Bytes: size / 6},
		{Peer: 3, Bytes: size / 3}, {Peer: 4, Bytes: size / 3},
	}
	bwNaive := EffectiveScatterBandwidth(topo, 0, naive)
	bwWeighted := EffectiveScatterBandwidth(topo, 0, weighted)
	if float64(bwWeighted) <= float64(bwNaive)*1.15 {
		t.Errorf("weighted %v should clearly beat naive %v", bwWeighted, bwNaive)
	}
}

func TestSwitchedScatter(t *testing.T) {
	topo := hw.DGX2()
	size := 600 * units.MiB
	// On the symmetric fabric a single pair already reaches the full
	// per-GPU lane budget.
	pair := EffectiveBandwidth(topo, 0, 1, size, 0)
	if g := pair.GBpsf(); g < 250 || g > 300 {
		t.Errorf("switched pair = %.1f GB/s, want ≈12×24.3", g)
	}
	// Scattering to several peers cannot exceed the egress budget.
	parts := []Part{{Peer: 1, Bytes: size / 3}, {Peer: 2, Bytes: size / 3}, {Peer: 3, Bytes: size / 3}}
	scat := EffectiveScatterBandwidth(topo, 0, parts)
	if float64(scat) > float64(pair)*1.05 {
		t.Errorf("scatter %v exceeds egress budget %v", scat, pair)
	}
}

func TestSwitchedIngressContention(t *testing.T) {
	// Two GPUs pushing full-budget transfers into the same dst must
	// share its ingress lanes: combined completion is ~2× slower than
	// a lone transfer.
	topo := hw.DGX2()
	size := 300 * units.MiB
	s := sim.New()
	f := New(s, topo)
	_, endA := f.P2P(0, 2, size, 0)
	_, endB := f.P2P(1, 2, size, 0)
	lone := sim.New()
	fl := New(lone, topo)
	_, endLone := fl.P2P(0, 2, size, 0)
	last := endA
	if endB > last {
		last = endB
	}
	ratio := float64(last) / float64(endLone)
	if ratio < 1.8 || ratio > 2.3 {
		t.Errorf("ingress contention ratio = %.2f, want ≈2", ratio)
	}
}

func TestHostLinkDirectionsIndependent(t *testing.T) {
	topo := hw.DGX1()
	s := sim.New()
	f := New(s, topo)
	size := 100 * units.MiB
	_, e1 := f.HostLink(0, size, true)
	_, e2 := f.HostLink(0, size, false) // opposite direction: no contention
	if e2 > e1+sim.Time(units.Millisecond) {
		t.Errorf("full-duplex PCIe contended: %v vs %v", e1, e2)
	}
	// Same direction serializes.
	_, e3 := f.HostLink(0, size, true)
	if e3 <= e1 {
		t.Errorf("same-direction PCIe must queue: %v after %v", e3, e1)
	}
}

func TestNVMe(t *testing.T) {
	topo := hw.DGX2()
	s := sim.New()
	f := New(s, topo)
	if !f.HasNVMe() {
		t.Fatal("DGX-2 must expose NVMe")
	}
	start, end := f.NVMeXfer(18 * 100 * units.MiB / 100)
	if end <= start {
		t.Error("NVMe transfer has no duration")
	}
	// DGX-1 has no SSD tier.
	f1 := New(sim.New(), hw.DGX1())
	if f1.HasNVMe() {
		t.Error("DGX-1 must not expose NVMe")
	}
	defer func() {
		if recover() == nil {
			t.Error("NVMeXfer on DGX-1 must panic")
		}
	}()
	f1.NVMeXfer(units.MiB)
}

func TestGatherSymmetricToScatter(t *testing.T) {
	topo := hw.DGX1()
	parts := []Part{{Peer: 3, Bytes: 100 * units.MiB}, {Peer: 4, Bytes: 100 * units.MiB}}
	s1 := sim.New()
	f1 := New(s1, topo)
	_, endOut := f1.Scatter(0, parts)
	s2 := sim.New()
	f2 := New(s2, topo)
	_, endIn := f2.Gather(0, parts)
	if endOut != endIn {
		t.Errorf("scatter %v != gather %v on an idle fabric", endOut, endIn)
	}
}

func TestScatterEmptyParts(t *testing.T) {
	s := sim.New()
	f := New(s, hw.DGX1())
	start, end := f.Scatter(0, nil)
	if start != end || start != s.Now() {
		t.Errorf("empty scatter = %v..%v", start, end)
	}
	start, end = f.Scatter(0, []Part{{Peer: 1, Bytes: 0}})
	if start != end {
		t.Errorf("zero-byte scatter = %v..%v", start, end)
	}
}

func TestP2PSelfPanics(t *testing.T) {
	s := sim.New()
	f := New(s, hw.DGX1())
	defer func() {
		if recover() == nil {
			t.Error("self transfer must panic")
		}
	}()
	f.P2P(2, 2, units.MiB, 0)
}

func TestFig4Shape(t *testing.T) {
	// The calibration targets from the paper's Fig. 4: with large
	// transfers, NV2 ≈ 45 GB/s, NV6 ≈ 146 GB/s, PCIe ≈ 11.7 GB/s,
	// giving 3.9–12.5×.
	topo := hw.DGX1()
	size := 512 * units.MiB
	nv2 := EffectiveBandwidth(topo, 0, 3, size, 0)
	pcie := EffectiveHostBandwidth(topo, 0, size)
	parts := []Part{
		{Peer: 1, Bytes: size / 6}, {Peer: 2, Bytes: size / 6},
		{Peer: 3, Bytes: size / 3}, {Peer: 4, Bytes: size / 3},
	}
	nv6 := EffectiveScatterBandwidth(topo, 0, parts)
	if r := float64(nv2) / float64(pcie); r < 3.5 || r > 4.5 {
		t.Errorf("NV2/PCIe = %.2f, want ≈3.9", r)
	}
	if r := float64(nv6) / float64(pcie); r < 11.5 || r > 13.0 {
		t.Errorf("NV6/PCIe = %.2f, want ≈12.5", r)
	}
}

// TestNamesMatchFormat holds Names to fmt.Sprintf below and past the
// bound of names formatted once, after a first use from several
// goroutines at once (concurrent runs share the tables): device names
// reach error messages such as memsim's "gpu7 out of memory …", which
// must not change.
func TestNamesMatchFormat(t *testing.T) {
	one, pair := Names{Format: "gpu%d"}, Names{Format: "nv%d->%d"}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			one.Of(3, 0)
			pair.Of(2, 5)
		}()
	}
	wg.Wait()
	for i := 0; i < namedGPUs+2; i++ {
		for j := 0; j < namedGPUs+2; j++ {
			if got, want := one.Of(i, j), fmt.Sprintf("gpu%d", i); got != want {
				t.Errorf("Of(%d, %d) = %q, want %q", i, j, got, want)
			}
			if got, want := pair.Of(i, j), fmt.Sprintf("nv%d->%d", i, j); got != want {
				t.Errorf("pair Of(%d, %d) = %q, want %q", i, j, got, want)
			}
		}
	}
	if n := testing.AllocsPerRun(10, func() { one.Of(7, 0); pair.Of(3, 5) }); n != 0 {
		t.Errorf("a name below the bound costs %v allocations, want 0", n)
	}
}
