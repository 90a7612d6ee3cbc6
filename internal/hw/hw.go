// Package hw describes multi-GPU server hardware: GPU specifications,
// interconnect links (NVLink, PCIe, NVMe), and server topologies.
//
// Two concrete topologies mirror the paper's testbeds (Sec. IV-A):
//
//   - DGX1: 8×V100-32GB connected by the asymmetric NVLink 2.0 hybrid
//     cube mesh of Fig. 3 (some GPU pairs share two links, some one,
//     some none).
//   - DGX2: 8×A100-40GB behind a non-blocking NVSwitch (symmetric
//     topology; every pair is reachable at full per-lane bandwidth).
//
// The package is purely descriptive — the simulation of contention and
// reservation on these links lives in internal/fabric.
package hw

import (
	"fmt"

	"mpress/internal/tensor"
	"mpress/internal/units"
)

// DeviceID identifies an endpoint of a link. GPUs are numbered from 0;
// the host CPU and the NVMe store use negative sentinels.
type DeviceID int

// Non-GPU devices.
const (
	// Host is the CPU/host-memory endpoint of PCIe links.
	Host DeviceID = -1
	// NVMe is the SSD endpoint used by ZeRO-Infinity-style swapping.
	NVMe DeviceID = -2
)

// String names the device, e.g. "gpu3", "host", "nvme".
func (d DeviceID) String() string {
	switch {
	case d == Host:
		return "host"
	case d == NVMe:
		return "nvme"
	case d >= 0:
		return fmt.Sprintf("gpu%d", int(d))
	default:
		return fmt.Sprintf("device(%d)", int(d))
	}
}

// IsGPU reports whether the device is a GPU.
func (d DeviceID) IsGPU() bool { return d >= 0 }

// GPUSpec describes one GPU model.
type GPUSpec struct {
	Name   string
	Memory units.Bytes
	// PeakFP32 and PeakFP16 are datasheet peak rates.
	PeakFP32 units.FLOPSRate
	PeakFP16 units.FLOPSRate
	// Efficiency is the fraction of peak that DNN training kernels
	// sustain end to end (MFU). Used to convert operator FLOPs into
	// simulated latencies.
	Efficiency float64
	// HBM is the device memory bandwidth, which bounds memory-bound
	// work such as the optimizer step.
	HBM units.Bandwidth
}

// EffectiveFP32 returns the sustained fp32 training rate.
func (g GPUSpec) EffectiveFP32() units.FLOPSRate {
	return units.FLOPSRate(float64(g.PeakFP32) * g.Efficiency)
}

// EffectiveFP16 returns the sustained fp16 training rate.
func (g GPUSpec) EffectiveFP16() units.FLOPSRate {
	return units.FLOPSRate(float64(g.PeakFP16) * g.Efficiency)
}

// EffectiveRate returns the sustained training rate for a model of
// dtype d: FP32 models run at the fp32 rate, every other at fp16.
func (g GPUSpec) EffectiveRate(d tensor.DType) units.FLOPSRate {
	if d == tensor.FP32 {
		return g.EffectiveFP32()
	}
	return g.EffectiveFP16()
}

// V100 is the NVIDIA Tesla V100-SXM2-32GB used in the paper's DGX-1
// testbed (AWS p3dn.24xlarge).
func V100() GPUSpec {
	return GPUSpec{
		Name:       "V100-SXM2-32GB",
		Memory:     32 * units.GiB,
		PeakFP32:   units.TFLOPS(15.7),
		PeakFP16:   units.TFLOPS(125),
		Efficiency: 0.35,
		HBM:        units.GBps(900),
	}
}

// A100 is the NVIDIA A100-40GB used in the paper's DGX-2-generation
// testbed.
func A100() GPUSpec {
	return GPUSpec{
		Name:       "A100-SXM4-40GB",
		Memory:     40 * units.GiB,
		PeakFP32:   units.TFLOPS(19.5),
		PeakFP16:   units.TFLOPS(312),
		Efficiency: 0.35,
		HBM:        units.GBps(1555),
	}
}

// H100Grace approximates one Grace-Hopper superchip module for the
// Sec. V hardware-insights projection: 96 GB HBM plus 512 GB of
// CPU-side memory reachable at NVLink-C2C bandwidth.
func H100Grace() GPUSpec {
	return GPUSpec{
		Name:       "GH200-96GB",
		Memory:     96 * units.GiB,
		PeakFP32:   units.TFLOPS(67),
		PeakFP16:   units.TFLOPS(990),
		Efficiency: 0.35,
		HBM:        units.GBps(4000),
	}
}

// LinkKind categorizes an interconnect.
type LinkKind int

const (
	// NVLinkLane is one directed NVLink lane between two GPUs (or a
	// GPU and an NVSwitch port).
	NVLinkLane LinkKind = iota
	// PCIeLink is the PCIe path between a GPU and host memory.
	PCIeLink
	// NVMeLink is the storage path between host memory and SSDs.
	NVMeLink
	// C2CLink is Grace-Hopper's NVLink-C2C CPU<->GPU path (Sec. V).
	C2CLink
	// NICLink is an inter-node network port (InfiniBand / Ethernet),
	// the fabric internal/cluster composes servers over. NICs are
	// quoted in bits per second (units.Gbps).
	NICLink
)

// String returns the kind name.
func (k LinkKind) String() string {
	switch k {
	case NVLinkLane:
		return "nvlink"
	case PCIeLink:
		return "pcie"
	case NVMeLink:
		return "nvme"
	case C2CLink:
		return "c2c"
	case NICLink:
		return "nic"
	default:
		return fmt.Sprintf("LinkKind(%d)", int(k))
	}
}

// NodeDevice qualifies a DeviceID with the node hosting it, addressing
// one endpoint inside a multi-node cluster (internal/cluster). Within
// one server plain DeviceIDs remain the working currency; NodeDevice
// exists so cluster-level tooling and wire formats can name devices
// across replicas unambiguously.
type NodeDevice struct {
	Node   int      `json:"node"`
	Device DeviceID `json:"device"`
}

// On returns the device qualified with a node index.
func (d DeviceID) On(node int) NodeDevice { return NodeDevice{Node: node, Device: d} }

// String names the endpoint, e.g. "n2/gpu3" or "n0/host".
func (n NodeDevice) String() string {
	return fmt.Sprintf("n%d/%s", n.Node, n.Device)
}
