package compaction

import (
	"testing"

	"mpress/internal/fabric"
	"mpress/internal/hw"
	"mpress/internal/units"
)

func TestCostModelsMatchTableIII(t *testing.T) {
	// Paper Table III, tensor t1: 216 MB — GPU-CPU swap 42 ms, D2D
	// swap over four NVLinks 6 ms.
	topo := hw.DGX1()
	size := 216 * units.MiB

	host := HostSwapCost(topo, size)
	if ms := host.Millisecondsf(); ms < 34 || ms > 45 {
		t.Errorf("host swap cost = %.1fms, want ≈42ms (Table III t1)", ms)
	}

	// Four lanes from gpu0: two to gpu3, two to gpu4.
	parts := []fabric.Part{
		{Peer: 3, Bytes: size / 2},
		{Peer: 4, Bytes: size / 2},
	}
	d2d := D2DSwapCost(topo, 0, parts)
	if ms := d2d.Millisecondsf(); ms < 3.5 || ms > 7 {
		t.Errorf("4-lane D2D cost = %.2fms, want ≈6ms (Table III t1)", ms)
	}
	if float64(host)/float64(d2d) < 6 {
		t.Errorf("D2D must be ≈7.6× faster than GPU-CPU swap (Table III), got %.1f×",
			float64(host)/float64(d2d))
	}
}

func TestRecomputeCost(t *testing.T) {
	rate := units.TFLOPS(40)
	if got := RecomputeCost(units.FLOPs(40e12), rate); got != units.Second {
		t.Errorf("recompute cost = %v, want 1s", got)
	}
}

func TestOverhead(t *testing.T) {
	if Overhead(10, 20) != 0 {
		t.Error("cost hidden by live interval must have zero overhead")
	}
	if Overhead(30, 20) != 10 {
		t.Error("overhead must be cost - live")
	}
}

func TestD2DFallbackForUnreachablePeer(t *testing.T) {
	topo := hw.DGX1()
	// gpu0 cannot reach gpu5 over NVLink: the cost degrades to PCIe.
	bad := D2DSwapCost(topo, 0, []fabric.Part{{Peer: 5, Bytes: 216 * units.MiB}})
	good := D2DSwapCost(topo, 0, []fabric.Part{{Peer: 3, Bytes: 216 * units.MiB}})
	if bad <= good*2 {
		t.Errorf("unreachable peer must be much slower: %v vs %v", bad, good)
	}
}

func TestPlanStripesWeighted(t *testing.T) {
	topo := hw.DGX1()
	budget := SpareBudget{1: units.GB(4), 2: units.GB(4), 3: units.GB(4), 4: units.GB(4)}
	size := units.Bytes(600 * units.MiB)
	parts := PlanStripes(topo, 0, size, budget)
	if parts == nil {
		t.Fatal("stripes not planned")
	}
	byPeer := map[hw.DeviceID]units.Bytes{}
	var total units.Bytes
	for _, p := range parts {
		byPeer[p.Peer] += p.Bytes
		total += p.Bytes
	}
	if total != size {
		t.Fatalf("stripes cover %v of %v", total, size)
	}
	// Weighted by lanes: gpu3 and gpu4 (2 lanes) get 2× gpu1/gpu2.
	if byPeer[3] != 2*byPeer[1] || byPeer[4] != 2*byPeer[2] {
		t.Errorf("weighting wrong: %v", byPeer)
	}
	// Budgets must be debited.
	if budget[3] != units.GB(4)-byPeer[3] {
		t.Errorf("budget not debited: %v", budget[3])
	}
}

func TestPlanStripesRespectsBudgetLimits(t *testing.T) {
	topo := hw.DGX1()
	// gpu3 has almost nothing spare: its lane weight cannot be used.
	budget := SpareBudget{1: units.GB(4), 2: units.GB(4), 3: units.MB(1), 4: units.GB(4)}
	size := units.Bytes(600 * units.MiB)
	parts := PlanStripes(topo, 0, size, budget)
	if parts == nil {
		t.Fatal("stripes not planned")
	}
	var total units.Bytes
	for _, p := range parts {
		if p.Peer == 3 && p.Bytes > units.MB(1) {
			t.Errorf("gpu3 overcommitted: %v", p.Bytes)
		}
		total += p.Bytes
	}
	if total != size {
		t.Errorf("stripes cover %v of %v", total, size)
	}
}

func TestPlanStripesInsufficientSpare(t *testing.T) {
	topo := hw.DGX1()
	budget := SpareBudget{1: units.MB(10)}
	if parts := PlanStripes(topo, 0, units.GB(1), budget); parts != nil {
		t.Errorf("partial plan returned: %v", parts)
	}
	// Budget must be untouched on failure.
	if budget[1] != units.MB(10) {
		t.Error("failed plan debited budget")
	}
}

func TestPlanStripesIgnoresUnreachablePeers(t *testing.T) {
	topo := hw.DGX1()
	// gpu5/6/7 are not gpu0's neighbors; only their budget exists.
	budget := SpareBudget{5: units.GB(8), 6: units.GB(8), 7: units.GB(8)}
	if parts := PlanStripes(topo, 0, units.MB(100), budget); parts != nil {
		t.Errorf("planned stripes to unreachable peers: %v", parts)
	}
}

func TestPlanStripesSwitchedEqualSplit(t *testing.T) {
	topo := hw.DGX2()
	budget := SpareBudget{1: units.GB(8), 2: units.GB(8), 3: units.GB(8)}
	size := units.Bytes(300 * units.MiB)
	parts := PlanStripes(topo, 0, size, budget)
	if len(parts) != 3 {
		t.Fatalf("parts = %v", parts)
	}
	for _, p := range parts {
		if p.Bytes < size/3-units.KiB || p.Bytes > size/3+units.KiB {
			t.Errorf("switched split must be equal: %v", parts)
		}
	}
}

func TestUnplanStripes(t *testing.T) {
	budget := SpareBudget{1: 100}
	parts := []fabric.Part{{Peer: 1, Bytes: 40}}
	UnplanStripes(budget, parts)
	if budget[1] != 140 {
		t.Errorf("budget = %v", budget[1])
	}
}

func TestSpareBudgetHelpers(t *testing.T) {
	b := SpareBudget{1: 10, 2: 20}
	c := b.Clone()
	c[1] = 99
	if b[1] != 10 {
		t.Error("clone aliases original")
	}
	if b.Total() != 30 {
		t.Errorf("total = %v", b.Total())
	}
}

func TestEqualAndSingleStripes(t *testing.T) {
	single := SingleStripe(4, 77)
	if len(single) != 1 || single[0].Peer != 4 || single[0].Bytes != 77 {
		t.Errorf("single stripe = %v", single)
	}
}

func TestPlanStripesZeroSize(t *testing.T) {
	if PlanStripes(hw.DGX1(), 0, 0, SpareBudget{1: 100}) != nil {
		t.Error("zero-size plan must be nil")
	}
}
