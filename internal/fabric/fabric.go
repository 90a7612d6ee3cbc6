// Package fabric binds a hardware topology (internal/hw) to simulated
// link resources (internal/sim): it routes GPU-to-GPU transfers over
// NVLink lanes (direct or switched), GPU-to-host transfers over PCIe,
// and host-to-SSD transfers over the NVMe path, modelling per-lane
// serialization and therefore contention.
//
// Two transfer primitives matter to MPress:
//
//   - P2P: an ordinary pairwise copy (inter-stage activations, NCCL
//     send/recv), striped across all lanes the pair shares.
//   - Scatter/Gather: the D2D swap primitive — one source GPU moving
//     weighted sub-blocks to several peers in parallel through
//     disjoint links (paper Sec. III-C, "data stripping").
package fabric

import (
	"fmt"
	"strings"
	"sync"

	"mpress/internal/hw"
	"mpress/internal/sim"
	"mpress/internal/units"
)

// Fabric is the simulated interconnect of one server.
type Fabric struct {
	topo *hw.Topology
	sim  *sim.Sim

	// Direct topologies: one lane set per unordered GPU pair and
	// direction. Key packs src*n+dst.
	pair map[int]*sim.LaneSet
	// Switched topologies: pooled egress/ingress lanes per GPU.
	egress  []*sim.LaneSet
	ingress []*sim.LaneSet

	// PCIe, one per GPU per direction.
	d2h []*sim.LaneSet
	h2d []*sim.LaneSet

	// NVMe path (shared across the server), nil if absent.
	nvme *sim.LaneSet
}

// namedGPUs bounds the GPU indices Names formats once per process.
const namedGPUs = 16

// Names names one resource of each GPU, or of each ordered GPU pair
// when Format takes two indices. Every run builds every device's
// resources, so a name below namedGPUs is formatted once per process.
type Names struct {
	Format string
	once   sync.Once
	pair   bool
	names  []string // GPU i's at i, pair i→j's at i·namedGPUs+j
}

// Of returns the name of GPU i's resource (j is ignored) or of pair
// i→j's.
func (n *Names) Of(i, j int) string {
	n.once.Do(func() {
		n.pair = strings.Count(n.Format, "%d") == 2
		for k := range namedGPUs * namedGPUs {
			switch {
			case n.pair:
				n.names = append(n.names, fmt.Sprintf(n.Format, k/namedGPUs, k%namedGPUs))
			case k < namedGPUs:
				n.names = append(n.names, fmt.Sprintf(n.Format, k))
			}
		}
	})
	switch {
	case !n.pair && i < namedGPUs:
		return n.names[i]
	case !n.pair:
		return fmt.Sprintf(n.Format, i)
	case i < namedGPUs && j < namedGPUs:
		return n.names[i*namedGPUs+j]
	}
	return fmt.Sprintf(n.Format, i, j)
}

var egressNames, ingressNames, pairNames, d2hNames, h2dNames = Names{Format: "gpu%d-egress"},
	Names{Format: "gpu%d-ingress"}, Names{Format: "nv%d->%d"}, Names{Format: "pcie-d2h%d"}, Names{Format: "pcie-h2d%d"}

// New builds the fabric for topo on simulation s.
func New(s *sim.Sim, topo *hw.Topology) *Fabric {
	f := &Fabric{
		topo: topo,
		sim:  s,
		pair: make(map[int]*sim.LaneSet),
		d2h:  make([]*sim.LaneSet, topo.NumGPUs),
		h2d:  make([]*sim.LaneSet, topo.NumGPUs),
	}
	n := topo.NumGPUs
	if topo.Switched {
		f.egress = make([]*sim.LaneSet, n)
		f.ingress = make([]*sim.LaneSet, n)
		for g := 0; g < n; g++ {
			f.egress[g] = sim.NewLaneSet(s, egressNames.Of(g, 0), topo.LanesPerGPU)
			f.ingress[g] = sim.NewLaneSet(s, ingressNames.Of(g, 0), topo.LanesPerGPU)
		}
	} else {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if lanes := topo.LanesBetween(hw.DeviceID(i), hw.DeviceID(j)); lanes > 0 {
					f.pair[i*n+j] = sim.NewLaneSet(s, pairNames.Of(i, j), lanes)
				}
			}
		}
	}
	for g := 0; g < n; g++ {
		f.d2h[g] = sim.NewLaneSet(s, d2hNames.Of(g, 0), 1)
		f.h2d[g] = sim.NewLaneSet(s, h2dNames.Of(g, 0), 1)
	}
	if topo.NVMeBW > 0 {
		f.nvme = sim.NewLaneSet(s, "nvme", 1)
	}
	return f
}

// Topology returns the hardware description the fabric simulates.
func (f *Fabric) Topology() *hw.Topology { return f.topo }

// Stats aggregates traffic per link class.
type Stats struct {
	// NVLinkBytes / PCIeBytes / NVMeBytes are total bytes moved.
	NVLinkBytes units.Bytes
	PCIeBytes   units.Bytes
	NVMeBytes   units.Bytes
	// Busy is the summed lane-occupied time per class.
	NVLinkBusy units.Duration
	PCIeBusy   units.Duration
	NVMeBusy   units.Duration
}

// Stats snapshots the fabric's cumulative traffic counters.
func (f *Fabric) Stats() Stats {
	var s Stats
	for _, set := range f.pair {
		s.NVLinkBytes += set.Moved()
		s.NVLinkBusy += set.BusyTime()
	}
	for _, set := range f.egress {
		s.NVLinkBytes += set.Moved()
		s.NVLinkBusy += set.BusyTime()
	}
	// Ingress lanes mirror egress traffic on switched fabrics; count
	// bytes once (egress side) but include their occupancy.
	for _, set := range f.ingress {
		s.NVLinkBusy += set.BusyTime()
	}
	for _, set := range f.d2h {
		s.PCIeBytes += set.Moved()
		s.PCIeBusy += set.BusyTime()
	}
	for _, set := range f.h2d {
		s.PCIeBytes += set.Moved()
		s.PCIeBusy += set.BusyTime()
	}
	if f.nvme != nil {
		s.NVMeBytes = f.nvme.Moved()
		s.NVMeBusy = f.nvme.BusyTime()
	}
	return s
}

// P2P transfers size bytes from one GPU to another, striping across up
// to maxStripes lanes (0 means all available). Pairs without NVLink
// connectivity (possible in DGX-1's cube mesh) fall back to the PCIe
// path through host memory, as real systems do.
func (f *Fabric) P2P(src, dst hw.DeviceID, size units.Bytes, maxStripes int) (start, end sim.Time) {
	if src == dst {
		panic(fmt.Sprintf("fabric: self transfer on %v", src))
	}
	lanes := f.topo.LanesBetween(src, dst)
	if lanes == 0 {
		// No NVLink route: staged copy over PCIe (d2h then h2d at
		// PCIe bandwidth; the two legs pipeline, so charge one leg
		// on each link and the end-to-end time of the slower start).
		s1, _ := f.d2h[src].Reserve(size, f.topo.PCIeBW, f.topo.PCIeLatency)
		_, e2 := f.h2d[dst].Reserve(size, f.topo.PCIeBW, f.topo.PCIeLatency)
		return s1, e2
	}
	k := lanes
	if maxStripes > 0 && maxStripes < k {
		k = maxStripes
	}
	if f.topo.Switched {
		// Each stripe holds one source egress lane and one destination
		// ingress lane through the switch for its whole transfer.
		return sim.ReserveJoint(f.egress[src], f.ingress[dst], size, k, f.topo.NVLinkLaneBW, f.topo.NVLinkLatency)
	}
	n := f.topo.NumGPUs
	return f.pair[int(src)*n+int(dst)].ReserveStriped(size, k, f.topo.NVLinkLaneBW, f.topo.NVLinkLatency)
}

// Part is one stripe of a scatter/gather D2D swap: Bytes of the tensor
// routed to (or from) Peer.
type Part struct {
	Peer  hw.DeviceID
	Bytes units.Bytes
}

// Scatter performs the D2D swap-out primitive: src pushes each part to
// its peer concurrently, each part striped across the lanes of that
// pair. It returns the earliest start and the completion time of the
// slowest part.
func (f *Fabric) Scatter(src hw.DeviceID, parts []Part) (start, end sim.Time) {
	return f.multi(src, parts, true)
}

// Gather performs the D2D swap-in primitive: dst pulls each part back
// from its peer concurrently.
func (f *Fabric) Gather(dst hw.DeviceID, parts []Part) (start, end sim.Time) {
	return f.multi(dst, parts, false)
}

func (f *Fabric) multi(local hw.DeviceID, parts []Part, out bool) (start, end sim.Time) {
	if len(parts) == 0 {
		now := f.sim.Now()
		return now, now
	}
	start = sim.Time(units.MaxDuration)
	for _, p := range parts {
		if p.Bytes < 0 {
			panic(fmt.Sprintf("fabric: negative part %v", p.Bytes))
		}
		if p.Bytes == 0 {
			continue
		}
		src, dst := local, p.Peer
		if !out {
			src, dst = p.Peer, local
		}
		s, e := f.P2P(src, dst, p.Bytes, 0)
		if s < start {
			start = s
		}
		if e > end {
			end = e
		}
	}
	if start == sim.Time(units.MaxDuration) { // all parts empty
		now := f.sim.Now()
		return now, now
	}
	return start, end
}

// HostLink transfers between a GPU and host memory over PCIe.
func (f *Fabric) HostLink(gpu hw.DeviceID, size units.Bytes, toHost bool) (start, end sim.Time) {
	if !gpu.IsGPU() || int(gpu) >= f.topo.NumGPUs {
		panic(fmt.Sprintf("fabric: HostLink endpoint %v", gpu))
	}
	set := f.h2d[gpu]
	if toHost {
		set = f.d2h[gpu]
	}
	return set.Reserve(size, f.topo.PCIeBW, f.topo.PCIeLatency)
}

// NVMeXfer transfers between host memory and the SSD tier. It panics
// if the topology has no NVMe path.
func (f *Fabric) NVMeXfer(size units.Bytes) (start, end sim.Time) {
	if f.nvme == nil {
		panic("fabric: topology has no NVMe tier")
	}
	return f.nvme.Reserve(size, f.topo.NVMeBW, f.topo.NVMeLatency)
}

// HasNVMe reports whether the SSD tier exists.
func (f *Fabric) HasNVMe() bool { return f.nvme != nil }

// EffectiveBandwidth is a measurement helper (Fig. 4): it runs an
// isolated transfer of size bytes from src using k stripes toward dst
// (or all NVLink neighbors when scatter is true) on a fresh clock and
// returns the achieved bandwidth.
func EffectiveBandwidth(topo *hw.Topology, src, dst hw.DeviceID, size units.Bytes, stripes int) units.Bandwidth {
	s := sim.New()
	f := New(s, topo)
	start, end := f.P2P(src, dst, size, stripes)
	if end <= start {
		return 0
	}
	return units.Bandwidth(float64(size) / (sim.Time(end - start).Secondsf()))
}

// EffectiveHostBandwidth measures an isolated PCIe transfer.
func EffectiveHostBandwidth(topo *hw.Topology, gpu hw.DeviceID, size units.Bytes) units.Bandwidth {
	s := sim.New()
	f := New(s, topo)
	start, end := f.HostLink(gpu, size, true)
	if end <= start {
		return 0
	}
	return units.Bandwidth(float64(size) / (sim.Time(end - start).Secondsf()))
}

// EffectiveScatterBandwidth measures an isolated scatter of size bytes
// split across the given parts.
func EffectiveScatterBandwidth(topo *hw.Topology, src hw.DeviceID, parts []Part) units.Bandwidth {
	s := sim.New()
	f := New(s, topo)
	var total units.Bytes
	for _, p := range parts {
		total += p.Bytes
	}
	start, end := f.Scatter(src, parts)
	if end <= start {
		return 0
	}
	return units.Bandwidth(float64(total) / (sim.Time(end - start).Secondsf()))
}
