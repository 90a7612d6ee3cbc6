package grid

import (
	"testing"

	"mpress/internal/hw"
	"mpress/internal/units"
)

// TestGridCoversWorld is the factorization property test: for every
// legal (topology, nodes, tp) factorization, mapping each coordinate
// of the shape to its rank and device must cover the world exactly
// once — no overlaps, no holes.
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
				world := g.Shape.World()
				if want := nodes * topo.NumGPUs; world != want {
					t.Fatalf("%s tp=%d nodes=%d: world %d, want %d", topo.Name, tp, nodes, world, want)
				}
				seenRank := make(map[int]bool, world)
				seenDev := make(map[hw.NodeDevice]bool, world)
				for dp := 0; dp < g.Shape.DP; dp++ {
					for pp := 0; pp < g.Shape.PP; pp++ {
						for tpr := 0; tpr < g.Shape.TP; tpr++ {
							c := Coord{TP: tpr, PP: pp, DP: dp}
							r := g.Shape.Rank(c)
							if r < 0 || r >= world {
								t.Fatalf("%v: rank %d outside world %d", c, r, world)
							}
							if seenRank[r] {
								t.Fatalf("%v: rank %d assigned twice", c, r)
							}
							seenRank[r] = true
							if got := g.Shape.CoordOf(r); got != c {
								t.Fatalf("CoordOf(Rank(%v)) = %v", c, got)
							}
							nd := g.Device(c)
							if err := nd.Validate(nodes, topo); err != nil {
								t.Fatalf("%v → %v: %v", c, nd, err)
							}
							if seenDev[nd] {
								t.Fatalf("%v: device %v assigned twice", c, nd)
							}
							seenDev[nd] = true
							if got := g.CoordOf(nd); got != c {
								t.Fatalf("CoordOf(Device(%v)) = %v", c, got)
							}
						}
					}
				}
				if len(seenRank) != world || len(seenDev) != world {
					t.Fatalf("%s tp=%d nodes=%d: covered %d ranks / %d devices, want %d",
						topo.Name, tp, nodes, len(seenRank), len(seenDev), world)
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

// TestPlacement checks plane→physical shard expansion.
func TestPlacement(t *testing.T) {
	g := MustNew(hw.DGX1(), 1, 2)
	// Stage 1 on plane device 3 → physical group {6, 7}.
	p := g.Place([]hw.DeviceID{0, 3})
	if got := p.GPU(1); got != 3 {
		t.Fatalf("GPU(1) = %v, want 3", got)
	}
	if got := p.Shard(1, 1); got != (hw.NodeDevice{Node: 0, Device: 7}) {
		t.Fatalf("Shard(1,1) = %v, want n0/gpu7", got)
	}
	shards := p.Shards(1)
	if len(shards) != 2 || shards[0].Device != 6 || shards[1].Device != 7 {
		t.Fatalf("Shards(1) = %v, want [n0/gpu6 n0/gpu7]", shards)
	}
	flat := Flat([]hw.DeviceID{2, 5})
	if got := flat.Shard(0, 0); got != (hw.NodeDevice{Node: 0, Device: 2}) {
		t.Fatalf("flat Shard(0,0) = %v", got)
	}
}
