package hw

import (
	"fmt"
	"strings"

	"mpress/internal/units"
)

// Topology describes one multi-GPU server.
//
// Two interconnect styles are supported:
//
//   - Direct (Switched == false): NVLink lanes are dedicated
//     point-to-point wires; NVLinkLanes[i][j] lanes connect GPU i and
//     GPU j (in each direction). This is DGX-1's hybrid cube mesh.
//   - Switched (Switched == true): every GPU owns LanesPerGPU lanes
//     into a non-blocking crossbar, so any pair can communicate and a
//     single GPU can stripe across all of its lanes regardless of the
//     destination. This is the DGX-2 / NVSwitch generation.
type Topology struct {
	Name string
	GPU  GPUSpec
	// NumGPUs is the GPU count (8 for both paper testbeds).
	NumGPUs int

	// Switched selects the NVSwitch model described above.
	Switched bool
	// NVLinkLanes[i][j] is the number of direct lanes between GPUs i
	// and j (symmetric, zero diagonal). Only meaningful when
	// !Switched.
	NVLinkLanes [][]int
	// LanesPerGPU is each GPU's total lane count (egress == ingress).
	LanesPerGPU int
	// NVLinkLaneBW is the effective unidirectional bandwidth of one
	// lane, and NVLinkLatency the per-transfer setup latency.
	NVLinkLaneBW  units.Bandwidth
	NVLinkLatency units.Duration

	// PCIeBW is the effective unidirectional host<->GPU bandwidth per
	// GPU, with PCIeLatency its setup latency.
	PCIeBW      units.Bandwidth
	PCIeLatency units.Duration

	// HostMemory is the CPU DRAM capacity available as swap space.
	HostMemory units.Bytes
	// NVMeBW is the aggregate SSD bandwidth (zero if no SSDs); it is
	// what ZeRO-Infinity's swap rides on.
	NVMeBW      units.Bandwidth
	NVMeLatency units.Duration
	NVMeSize    units.Bytes
}

// Canonical renders the topology's full parameter set — not just its
// name, so custom and degraded topologies render distinctly (a
// WithoutNVLink copy keeps its GPU count and name prefix). Two
// topologies with equal renderings simulate identically.
func (t *Topology) Canonical() string {
	var b strings.Builder
	fmt.Fprintf(&b, "topo=%s/g%d/sw%v/lanes%d/nvbw%g/nvlat%d/pcie%g/pcielat%d/host%d/nvmebw%g/nvmelat%d/nvme%d;",
		t.Name, t.NumGPUs, t.Switched, t.LanesPerGPU,
		float64(t.NVLinkLaneBW), int64(t.NVLinkLatency),
		float64(t.PCIeBW), int64(t.PCIeLatency),
		int64(t.HostMemory), float64(t.NVMeBW), int64(t.NVMeLatency), int64(t.NVMeSize))
	g := t.GPU
	fmt.Fprintf(&b, "gpu=%s/mem%d/fp32-%g/fp16-%g/eff%g/hbm%g;",
		g.Name, int64(g.Memory), float64(g.PeakFP32), float64(g.PeakFP16),
		g.Efficiency, float64(g.HBM))
	if !t.Switched {
		// The lane matrix shapes D2D routing on asymmetric servers.
		fmt.Fprintf(&b, "lanes=%v;", t.NVLinkLanes)
	}
	return b.String()
}

// Validate checks internal consistency of the topology description.
func (t *Topology) Validate() error {
	if t.NumGPUs <= 0 {
		return fmt.Errorf("hw: topology %q has %d GPUs", t.Name, t.NumGPUs)
	}
	if g := t.GPU; g.Memory <= 0 || g.PeakFP32 <= 0 || g.PeakFP16 <= 0 || g.HBM <= 0 {
		return fmt.Errorf("hw: topology %q GPU needs positive memory, peak rates and HBM bandwidth", t.Name)
	}
	if e := t.GPU.Efficiency; !(e > 0 && e <= 1) {
		return fmt.Errorf("hw: topology %q GPU efficiency %v is outside (0, 1]", t.Name, e)
	}
	if t.NVLinkLaneBW <= 0 || t.PCIeBW <= 0 {
		return fmt.Errorf("hw: topology %q has non-positive link bandwidth", t.Name)
	}
	if min(t.HostMemory, t.NVMeSize) < 0 || t.NVMeBW < 0 || min(t.NVLinkLatency, t.PCIeLatency, t.NVMeLatency) < 0 {
		return fmt.Errorf("hw: topology %q has a negative capacity, NVMe bandwidth or latency", t.Name)
	}
	if t.Switched {
		if t.LanesPerGPU <= 0 {
			return fmt.Errorf("hw: switched topology %q needs LanesPerGPU > 0", t.Name)
		}
		return nil
	}
	if len(t.NVLinkLanes) != t.NumGPUs {
		return fmt.Errorf("hw: topology %q lane matrix is %d rows, want %d", t.Name, len(t.NVLinkLanes), t.NumGPUs)
	}
	for i := range t.NVLinkLanes {
		if len(t.NVLinkLanes[i]) != t.NumGPUs {
			return fmt.Errorf("hw: topology %q lane row %d has %d cols, want %d", t.Name, i, len(t.NVLinkLanes[i]), t.NumGPUs)
		}
		if t.NVLinkLanes[i][i] != 0 {
			return fmt.Errorf("hw: topology %q gpu %d has self lanes", t.Name, i)
		}
		total := 0
		for j := range t.NVLinkLanes[i] {
			if t.NVLinkLanes[i][j] != t.NVLinkLanes[j][i] {
				return fmt.Errorf("hw: topology %q lane matrix asymmetric at (%d,%d)", t.Name, i, j)
			}
			if t.NVLinkLanes[i][j] < 0 {
				return fmt.Errorf("hw: topology %q negative lanes at (%d,%d)", t.Name, i, j)
			}
			total += t.NVLinkLanes[i][j]
		}
		if t.LanesPerGPU > 0 && total > t.LanesPerGPU {
			return fmt.Errorf("hw: topology %q gpu %d uses %d lanes, budget %d", t.Name, i, total, t.LanesPerGPU)
		}
	}
	return nil
}

// LanesBetween returns how many NVLink lanes GPU src can use toward GPU
// dst at once: the direct lane count for direct topologies, or the full
// per-GPU budget for switched ones. Zero means the pair is not NVLink
// reachable.
func (t *Topology) LanesBetween(src, dst DeviceID) int {
	if !src.IsGPU() || !dst.IsGPU() || src == dst ||
		int(src) >= t.NumGPUs || int(dst) >= t.NumGPUs {
		return 0
	}
	if t.Switched {
		return t.LanesPerGPU
	}
	return t.NVLinkLanes[src][dst]
}

// NVLinkNeighbors returns the GPUs directly reachable from gpu over
// NVLink, in ascending order.
func (t *Topology) NVLinkNeighbors(gpu DeviceID) []DeviceID {
	var out []DeviceID
	for j := 0; j < t.NumGPUs; j++ {
		if t.LanesBetween(gpu, DeviceID(j)) > 0 {
			out = append(out, DeviceID(j))
		}
	}
	return out
}

// PairBandwidth returns the peak unidirectional NVLink bandwidth from
// src to dst (lanes × per-lane bandwidth).
func (t *Topology) PairBandwidth(src, dst DeviceID) units.Bandwidth {
	return units.Bandwidth(float64(t.NVLinkLaneBW) * float64(t.LanesBetween(src, dst)))
}

// TotalLanes returns GPU gpu's total egress lane count.
func (t *Topology) TotalLanes(gpu DeviceID) int {
	if t.Switched {
		return t.LanesPerGPU
	}
	total := 0
	for j := 0; j < t.NumGPUs; j++ {
		total += t.LanesBetween(gpu, DeviceID(j))
	}
	return total
}

// AggregateNVLinkBW returns GPU gpu's peak aggregate egress bandwidth
// when striping across all of its lanes.
func (t *Topology) AggregateNVLinkBW(gpu DeviceID) units.Bandwidth {
	return units.Bandwidth(float64(t.NVLinkLaneBW) * float64(t.TotalLanes(gpu)))
}

// TotalGPUMemory returns the server's aggregate GPU memory.
func (t *Topology) TotalGPUMemory() units.Bytes {
	return t.GPU.Memory * units.Bytes(t.NumGPUs)
}

// LaneMatrixString renders the pairwise lane counts like `nvidia-smi
// topo -m` ("NV1"/"NV2"/"--"), useful for cmd/mpress-topo.
func (t *Topology) LaneMatrixString() string {
	s := "     "
	for j := 0; j < t.NumGPUs; j++ {
		s += fmt.Sprintf("%5s", fmt.Sprintf("g%d", j))
	}
	s += "\n"
	for i := 0; i < t.NumGPUs; i++ {
		s += fmt.Sprintf("%-5s", fmt.Sprintf("g%d", i))
		for j := 0; j < t.NumGPUs; j++ {
			switch {
			case i == j:
				s += fmt.Sprintf("%5s", "X")
			case t.LanesBetween(DeviceID(i), DeviceID(j)) == 0:
				s += fmt.Sprintf("%5s", "--")
			default:
				s += fmt.Sprintf("%5s", fmt.Sprintf("NV%d", t.LanesBetween(DeviceID(i), DeviceID(j))))
			}
		}
		s += "\n"
	}
	return s
}
