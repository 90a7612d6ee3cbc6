// Package catalog is the hardware catalog behind capacity planning: a
// registry of purchasable machine types, each bundling a server
// topology (internal/hw), the NIC fabrics it can attach
// (internal/cluster), an hourly rental rate and a power draw at
// training load.
//
// Where internal/hw answers "what does this server look like?", the
// catalog answers "what can I rent, and what does it cost?" — the
// inputs the what-if engine (internal/capacity) enumerates over when
// it searches for the cheapest hardware + parallelism + checkpoint
// configuration that meets a goodput SLO.
//
// Entries resolve by name via Lookup, under the one matching rule of
// internal/names: unknown names fail listing every valid one, and
// MachineNames feeds CLI help. Every entry is JSON-serializable and
// round-trips exactly (the topology, fabric and unit types use only
// exported plain-old-data fields), so job-mix specs and wire formats
// can embed machines verbatim.
//
// Prices and wattages are representative list numbers for the machine
// class, not quotes: they only need to be mutually consistent enough
// that relative rankings ($ per effective sample, energy per sample)
// are meaningful.
package catalog

import (
	"fmt"

	"mpress/internal/cluster"
	"mpress/internal/hw"
	"mpress/internal/names"
	"mpress/internal/units"
)

// MachineType is one rentable server class.
type MachineType struct {
	// Name is the catalog identifier, e.g. "dgx1-v100".
	Name string `json:"name"`
	// Description is a one-line human summary for tables and help.
	Description string `json:"description"`
	// Server is the machine's full topology — GPUs, NVLink/PCIe/NVMe
	// links, host memory.
	Server *hw.Topology `json:"server"`
	// Fabrics lists the NIC options the machine ships with, best
	// first; multi-node candidates default to Fabrics[0]. Empty means
	// the machine cannot scale out.
	Fabrics []cluster.Fabric `json:"fabrics,omitempty"`
	// HourlyCost is the rental rate of one node in $/hr.
	HourlyCost units.Cost `json:"hourly_cost"`
	// Power is one node's electrical draw at training load.
	Power units.Power `json:"power"`
}

// Validate checks internal consistency of the machine type.
func (m *MachineType) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("catalog: machine has no name")
	}
	if m.Server == nil {
		return fmt.Errorf("catalog: machine %q has no server topology", m.Name)
	}
	if err := m.Server.Validate(); err != nil {
		return fmt.Errorf("catalog: machine %q: %w", m.Name, err)
	}
	for i := range m.Fabrics {
		if err := m.Fabrics[i].Validate(); err != nil {
			return fmt.Errorf("catalog: machine %q: %w", m.Name, err)
		}
	}
	if m.HourlyCost < 0 {
		return fmt.Errorf("catalog: machine %q has negative hourly cost", m.Name)
	}
	if m.Power < 0 {
		return fmt.Errorf("catalog: machine %q has negative power", m.Name)
	}
	return nil
}

// DefaultFabric returns the machine's stock NIC option and whether it
// has one.
func (m *MachineType) DefaultFabric() (cluster.Fabric, bool) {
	if len(m.Fabrics) == 0 {
		return cluster.Fabric{}, false
	}
	return m.Fabrics[0], true
}

// String summarizes the entry, e.g.
// "dgx1-v100: 8x V100-SXM2-32GB, $14/hr, 3.50kW".
func (m *MachineType) String() string {
	return fmt.Sprintf("%s: %dx %s, %s/hr, %v",
		m.Name, m.Server.NumGPUs, m.Server.GPU.Name, m.HourlyCost, m.Power)
}

// RTX4090 is a consumer Ada-class GPU: big on paper FLOPS, small on
// memory, no NVLink. Peer traffic rides the PCIe switch.
func RTX4090() hw.GPUSpec {
	return hw.GPUSpec{
		Name:     "RTX-4090-24GB",
		Memory:   24 * units.GiB,
		PeakFP32: units.TFLOPS(82.6),
		PeakFP16: units.TFLOPS(165.2),
		// Consumer boards sustain a lower MFU than SXM parts (no
		// NVLink-fed data paths, aggressive power caps).
		Efficiency: 0.30,
		HBM:        units.GBps(1008),
	}
}

// Consumer4090 is the commodity box of the paper's "democratizing"
// pitch taken literally: 8 RTX 4090s on a PCIe switch. There is no
// NVLink, so the peer-to-peer path is modeled as a switched
// single-lane mesh at measured PCIe P2P bandwidth — D2D swap still
// works, just an order of magnitude slower per pair than on a DGX.
func Consumer4090() *hw.Topology {
	return &hw.Topology{
		Name:     "Consumer-8x4090",
		GPU:      RTX4090(),
		NumGPUs:  8,
		Switched: true,
		// One "lane" per GPU into the PCIe switch: P2P through a Gen4
		// switch sustains ~12 GB/s per pair, and a GPU cannot stripe
		// beyond its own x16 link.
		LanesPerGPU:   1,
		NVLinkLaneBW:  units.GBps(12),
		NVLinkLatency: 25 * units.Microsecond,
		PCIeBW:        units.GBps(12),
		PCIeLatency:   25 * units.Microsecond,
		HostMemory:    256 * units.GiB,
		NVMeBW:        units.GBps(7),
		NVMeLatency:   90 * units.Microsecond,
		NVMeSize:      4 * units.TiB,
	}
}

// OffloadA100x4 is a CPU-offload-heavy configuration: half the GPUs of
// a DGX-2, but 2 TiB of host DRAM and a healthy NVMe RAID — the
// machine ZeRO-Offload/Infinity-style swapping is sized for, and the
// regime where MPress's planner leans on GPU-CPU swap over D2D.
func OffloadA100x4() *hw.Topology {
	return &hw.Topology{
		Name:          "Offload-4xA100",
		GPU:           hw.A100(),
		NumGPUs:       4,
		Switched:      true,
		LanesPerGPU:   12,
		NVLinkLaneBW:  units.GBps(24.3),
		NVLinkLatency: 8 * units.Microsecond,
		PCIeBW:        units.GBps(22), // PCIe 4.0 x16 effective
		PCIeLatency:   15 * units.Microsecond,
		HostMemory:    2 * units.TiB,
		NVMeBW:        units.GBps(25),
		NVMeLatency:   80 * units.Microsecond,
		NVMeSize:      15 * units.TiB,
	}
}

// machines is the catalog in presentation order. Lookup and All copy
// the topologies out, so callers may mutate their copy.
var machines = names.New[MachineType]("catalog: unknown machine type")

func init() {
	for _, m := range []MachineType{
		{
			Name:        "dgx1-v100",
			Description: "DGX-1V class: 8x V100-32GB, asymmetric NVLink cube mesh",
			Server:      hw.DGX1(),
			Fabrics:     []cluster.Fabric{cluster.InfiniBand4x100(), cluster.Ethernet25G()},
			HourlyCost:  units.USD(14),
			Power:       units.KW(3.5),
		},
		{
			Name:        "dgx2-a100",
			Description: "DGX-2 generation: 8x A100-40GB behind a non-blocking NVSwitch",
			Server:      hw.DGX2(),
			Fabrics:     []cluster.Fabric{cluster.InfiniBand4x100(), cluster.Ethernet25G()},
			HourlyCost:  units.USD(21),
			Power:       units.KW(6.5),
		},
		{
			Name:        "gh200",
			Description: "Grace-Hopper: 8x GH200-96GB superchips, 512 GB C2C memory each",
			Server:      hw.GraceHopper(),
			Fabrics:     []cluster.Fabric{cluster.InfiniBand4x100()},
			HourlyCost:  units.USD(45),
			Power:       units.KW(10.2),
		},
		{
			Name:        "consumer-4090",
			Description: "Commodity box: 8x RTX 4090-24GB on a PCIe switch, no NVLink",
			Server:      Consumer4090(),
			Fabrics:     []cluster.Fabric{cluster.Ethernet25G(), cluster.Ethernet10G()},
			HourlyCost:  units.USD(4.5),
			Power:       units.KW(3.2),
		},
		{
			Name:        "offload-a100x4",
			Description: "CPU-offload heavy: 4x A100-40GB, 2 TiB host DRAM, 25 GB/s NVMe",
			Server:      OffloadA100x4(),
			Fabrics:     []cluster.Fabric{cluster.Ethernet25G(), cluster.Ethernet10G()},
			HourlyCost:  units.USD(11),
			Power:       units.KW(3),
		},
	} {
		machines.Add(m.Name, m)
	}
}

// fresh copies m's topology and fabric list out of the catalog.
func fresh(m MachineType) MachineType {
	m.Server = m.Server.Clone()
	m.Fabrics = append([]cluster.Fabric(nil), m.Fabrics...)
	return m
}

// All returns every catalog entry in presentation order. The slice and
// its topologies are fresh on every call.
func All() []MachineType {
	out := machines.Values()
	for i := range out {
		out[i] = fresh(out[i])
	}
	return out
}

// MachineNames lists every name Lookup accepts, in catalog order, for
// CLI help and error messages.
var MachineNames = machines.Names

// Lookup resolves a machine type by name and returns a fresh copy.
func Lookup(name string) (MachineType, error) {
	m, err := machines.Lookup(name)
	if err != nil {
		return MachineType{}, err
	}
	return fresh(m), nil
}
