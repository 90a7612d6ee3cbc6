package grid

import (
	"testing"

	"mpress/internal/hw"
	"mpress/internal/units"
)

// TestGridCoversWorld is the factorization property test: for every
// legal (topology, nodes, tp) factorization, the TP groups must cover
// each node's GPUs exactly once — no overlaps, no holes — each group's
// representative must be its rank 0, and the plane must have one
// device per group.
func TestGridCoversWorld(t *testing.T) {
	topos := []*hw.Topology{hw.DGX1(), hw.DGX2(), hw.GraceHopper()}
	for _, topo := range topos {
		for nodes := 1; nodes <= 3; nodes++ {
			for tp := 1; tp <= topo.NumGPUs; tp++ {
				if topo.NumGPUs%tp != 0 {
					continue
				}
				g, err := New(topo, nodes, tp)
				if err != nil {
					// Non-island groupings are legitimately rejected on
					// direct fabrics; they must not cover anything.
					continue
				}
				if want := nodes * topo.NumGPUs; g.Shape.World() != want {
					t.Fatalf("%s tp=%d nodes=%d: world %d, want %d", topo.Name, tp, nodes, g.Shape.World(), want)
				}
				seen := make(map[hw.DeviceID]bool, topo.NumGPUs)
				for pp := 0; pp < g.Shape.PP; pp++ {
					members := g.TPGroup(pp)
					if len(members) != tp {
						t.Fatalf("%s tp=%d: group %d has %d members", topo.Name, tp, pp, len(members))
					}
					for _, d := range members {
						if d < 0 || int(d) >= topo.NumGPUs {
							t.Fatalf("%s tp=%d: group %d holds %v, outside the node's %d GPUs", topo.Name, tp, pp, d, topo.NumGPUs)
						}
						if seen[d] {
							t.Fatalf("%s tp=%d: device %v in two groups", topo.Name, tp, d)
						}
						seen[d] = true
					}
					if rep := g.Representative(hw.DeviceID(pp)); rep != members[0] {
						t.Fatalf("%s tp=%d: Representative(%d) = %v, want rank 0 %v", topo.Name, tp, pp, rep, members[0])
					}
				}
				if len(seen) != topo.NumGPUs {
					t.Fatalf("%s tp=%d: groups cover %d of %d GPUs", topo.Name, tp, len(seen), topo.NumGPUs)
				}
				if got := g.Plane().NumGPUs; got != g.Shape.PP {
					t.Fatalf("%s tp=%d: plane has %d GPUs, want PP=%d", topo.Name, tp, got, g.Shape.PP)
				}
			}
		}
	}
}

// TestPlaneIdentityAtDegreeOne pins the refactor's safety net: with
// TP == 1 the plane topology is the *same pointer* as the input, so
// every downstream component sees literally the pre-grid inputs.
func TestPlaneIdentityAtDegreeOne(t *testing.T) {
	topo := hw.DGX1()
	g, err := New(topo, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Plane() != topo {
		t.Fatalf("plane at TP=1 is a copy, want the original pointer")
	}
}

// TestPlaneDerivation checks the TP=2 representative plane on DGX-1:
// half the devices, halved host share, representative lane counts.
func TestPlaneDerivation(t *testing.T) {
	topo := hw.DGX1()
	g, err := New(topo, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := g.Plane()
	if p.NumGPUs != 4 {
		t.Fatalf("plane has %d GPUs, want 4", p.NumGPUs)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("plane topology invalid: %v", err)
	}
	if want := topo.HostMemory / 2; p.HostMemory != want {
		t.Fatalf("plane host memory %v, want %v", p.HostMemory, want)
	}
	// Plane device i represents physical device 2i.
	for i := 0; i < p.NumGPUs; i++ {
		for j := 0; j < p.NumGPUs; j++ {
			want := topo.LanesBetween(hw.DeviceID(2*i), hw.DeviceID(2*j))
			if got := p.LanesBetween(hw.DeviceID(i), hw.DeviceID(j)); got != want {
				t.Fatalf("plane lanes (%d,%d) = %d, want %d", i, j, got, want)
			}
		}
	}
	if bw := g.TPRingBandwidth(); bw <= 0 || bw > units.Bandwidth(float64(topo.NVLinkLaneBW)*float64(topo.LanesPerGPU)) {
		t.Fatalf("implausible TP ring bandwidth %v", bw)
	}
}

// TestIslandValidation: on DGX-1's cube mesh, TP=2 and TP=4 groups are
// islands, TP=8's naive ring is not (gpu7 and gpu0 share no lanes);
// the switched DGX-2 accepts everything.
func TestIslandValidation(t *testing.T) {
	if _, err := New(hw.DGX1(), 1, 2); err != nil {
		t.Fatalf("DGX-1 tp=2: %v", err)
	}
	if _, err := New(hw.DGX1(), 1, 4); err != nil {
		t.Fatalf("DGX-1 tp=4: %v", err)
	}
	if _, err := New(hw.DGX1(), 1, 8); err == nil {
		t.Fatal("DGX-1 tp=8 accepted, want NVLink-island rejection")
	}
	if _, err := New(hw.DGX2(), 1, 8); err != nil {
		t.Fatalf("DGX-2 tp=8: %v", err)
	}
}

// TestStubAxes pins the TP degree's divisibility and positivity errors.
func TestStubAxes(t *testing.T) {
	if _, err := New(hw.DGX1(), 1, 3); err == nil {
		t.Fatal("tp=3 accepted on 8 GPUs, want divisibility rejection")
	}
	if _, err := New(hw.DGX1(), 1, 0); err == nil {
		t.Fatal("tp=0 accepted, want rejection")
	}
}
