// Package zero implements the paper's data-parallel baselines: the
// ZeRO family from DeepSpeed (Sec. II-D, evaluated in Fig. 8).
//
//   - ZeRO3 partitions parameters, gradients and optimizer states
//     across the data-parallel ranks; every layer's parameters are
//     all-gathered before use and gradients reduce-scattered after
//     the backward pass.
//   - ZeROOffload additionally keeps optimizer states (and the Adam
//     step) on the CPU: gradients stream to host memory per
//     microbatch, updated parameters stream back every step.
//   - ZeROInfinity parks parameters and optimizer states on NVMe and
//     swaps them through host memory with a carefully overlapped
//     schedule.
//
// Because every rank does identical work, the simulator models rank
// 0's timeline on the DES (compute stream + PCIe + NVMe queues) and
// charges collective times from the topology's aggregate NVLink
// bandwidth. Activation checkpointing is always on, matching how
// DeepSpeed is configured for billion-scale models.
package zero

import (
	"fmt"

	"mpress/internal/hw"
	"mpress/internal/memsim"
	"mpress/internal/model"
	"mpress/internal/pipeline"
	"mpress/internal/units"
)

// Variant selects the baseline.
type Variant int

const (
	ZeRO3 Variant = iota
	ZeROOffload
	ZeROInfinity
)

// String returns the DeepSpeed-style name.
func (v Variant) String() string {
	switch v {
	case ZeRO3:
		return "ZeRO-3"
	case ZeROOffload:
		return "ZeRO-Offload"
	case ZeROInfinity:
		return "ZeRO-Infinity"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// computeEfficiency derates the GPU's sustained rate for ZeRO's
// layer-granular execution: parameter gathering, partition bookkeeping
// and per-layer kernel launches keep DeepSpeed below the fused
// stage-graph efficiency the pipeline engines reach.
const computeEfficiency = 0.7

// collectiveEfficiency discounts the theoretical ring bandwidth for
// protocol overheads; small per-layer collectives on 8 ranks reach
// roughly half the bus bandwidth.
const collectiveEfficiency = 0.55

// collectiveLatency is the per-collective launch/synchronization cost
// across 8 ranks.
const collectiveLatency = 150 * units.Microsecond

// hostMemBW approximates the effective CPU-side streaming bandwidth
// of ZeRO-Offload's vectorized CPU-Adam (several passes over fp32
// state bound by socket memory bandwidth).
var hostMemBW = units.GBps(8)

// Config describes one baseline training job.
type Config struct {
	Topo    *hw.Topology
	Model   model.Config
	Prec    model.Precision
	Variant Variant
	// MicrobatchSize is the per-GPU microbatch; GradAccum is how many
	// microbatches accumulate into one optimizer step (matching the
	// pipeline jobs' minibatch = MicrobatchSize × GradAccum × NumGPUs
	// samples is the caller's responsibility).
	MicrobatchSize int
	GradAccum      int
	// Steps is the number of optimizer steps to simulate.
	Steps int
}

// Result mirrors exec.Result for the baselines.
type Result struct {
	OOM           *memsim.OOMError
	Duration      units.Duration
	TFLOPS        float64
	SamplesPerSec float64
	// PerGPUPeak holds one entry per data-parallel rank. ZeRO's ranks
	// partition model state evenly and run identical schedules, so the
	// simulator models rank 0's timeline and the entries are equal by
	// symmetry (asserted by TestPerGPUPeakSymmetry) — but the slice
	// shape matches exec.Result so callers index it uniformly.
	PerGPUPeak []units.Bytes
	HostPeak   units.Bytes
	NVMePeak   units.Bytes
}

// Run simulates the baseline and returns its result. OOM (GPU, host
// or NVMe capacity) is reported in the result, not as an error.
func Run(c Config) (*Result, error) {
	if c.Topo == nil {
		return nil, fmt.Errorf("zero: topology required")
	}
	if err := c.Model.Validate(); err != nil {
		return nil, err
	}
	if c.MicrobatchSize <= 0 || c.GradAccum <= 0 {
		return nil, fmt.Errorf("zero: batch shape %d/%d", c.MicrobatchSize, c.GradAccum)
	}
	if c.Steps <= 0 {
		c.Steps = 2
	}
	if c.Variant == ZeROInfinity && c.Topo.NVMeBW <= 0 {
		return nil, fmt.Errorf("zero: %s requires an NVMe tier on %s", c.Variant, c.Topo.Name)
	}

	if oom := c.memoryCheck(); oom != nil {
		return &Result{OOM: oom}, nil
	}

	dur := c.simulate()
	res := &Result{Duration: dur}
	rankPeak := c.gpuResident() + c.transientBytes()
	res.PerGPUPeak = make([]units.Bytes, c.Topo.NumGPUs)
	for i := range res.PerGPUPeak {
		res.PerGPUPeak[i] = rankPeak
	}
	res.HostPeak = c.hostResident()
	res.NVMePeak = c.nvmeResident()
	flopsPerGPU := c.usefulFLOPs()
	total := float64(flopsPerGPU) * float64(c.Topo.NumGPUs) * float64(c.Steps)
	secs := dur.Secondsf()
	if secs > 0 {
		res.TFLOPS = total / 1e12 / secs
		res.SamplesPerSec = float64(c.MicrobatchSize*c.GradAccum*c.Topo.NumGPUs*c.Steps) / secs
	}
	return res, nil
}

// partitionedBytes returns this rank's share of a per-parameter state.
func (c Config) partitionedBytes(perParam int64) units.Bytes {
	return units.Bytes(c.Model.TotalParams() * perParam / int64(c.Topo.NumGPUs))
}

// layerParamBytes is one transformer block's fp16 parameter footprint
// (the unit of all-gather traffic).
func (c Config) layerParamBytes() units.Bytes {
	return units.Bytes(c.Model.ParamsPerBlock() * c.Prec.ParamBytes)
}

// checkpointBytes is the per-layer activation checkpoint (the layer
// input) for the local microbatch.
func (c Config) checkpointBytes() units.Bytes {
	return c.Model.BoundaryBytes(c.MicrobatchSize)
}

// transientBytes is the working set during one layer's computation:
// the gathered parameters of the current and prefetched layer plus
// one layer's full activations (rematerialized during backward).
func (c Config) transientBytes() units.Bytes {
	return 2*c.layerParamBytes() + c.Model.BlockActivationBytes(c.MicrobatchSize)
}

// gpuResident is the per-GPU persistent residency by variant.
func (c Config) gpuResident() units.Bytes {
	r := pipeline.RuntimeReserve
	// Activation checkpoints for every in-flight microbatch: with
	// gradient accumulation, one microbatch is live at a time.
	r += c.checkpointBytes() * units.Bytes(c.Model.Layers)
	switch c.Variant {
	case ZeRO3:
		r += c.partitionedBytes(c.Prec.ParamBytes + c.Prec.GradBytes + c.Prec.OptBytes)
	case ZeROOffload:
		r += c.partitionedBytes(c.Prec.ParamBytes + c.Prec.GradBytes)
	case ZeROInfinity:
		// Parameters and optimizer on NVMe; only the gradient
		// partition stays resident between microbatches.
		r += c.partitionedBytes(c.Prec.GradBytes)
	}
	return r
}

func (c Config) hostResident() units.Bytes {
	switch c.Variant {
	case ZeROOffload:
		// fp32 optimizer states live in host memory.
		return c.partitionedBytes(c.Prec.OptBytes) * units.Bytes(c.Topo.NumGPUs)
	case ZeROInfinity:
		// Staging buffers only.
		return 2 * c.layerParamBytes() * units.Bytes(c.Topo.NumGPUs)
	default:
		return 0
	}
}

func (c Config) nvmeResident() units.Bytes {
	if c.Variant != ZeROInfinity {
		return 0
	}
	return units.Bytes(c.Model.TotalParams() * (c.Prec.ParamBytes + c.Prec.OptBytes))
}

// memoryCheck validates GPU, host and NVMe capacities.
func (c Config) memoryCheck() *memsim.OOMError {
	need := c.gpuResident() + c.transientBytes()
	if cap := c.Topo.GPU.Memory; need > cap {
		return &memsim.OOMError{
			Device: "gpu0", Requested: c.transientBytes(),
			InUse: c.gpuResident(), Capacity: cap,
			What: fmt.Sprintf("%s working set", c.Variant),
		}
	}
	if host := c.hostResident(); host > c.Topo.HostMemory {
		return &memsim.OOMError{
			Device: "host", Requested: host, InUse: 0,
			Capacity: c.Topo.HostMemory, What: "offloaded optimizer states",
		}
	}
	if nvme := c.nvmeResident(); c.Variant == ZeROInfinity && nvme > c.Topo.NVMeSize {
		return &memsim.OOMError{
			Device: "nvme", Requested: nvme, InUse: 0,
			Capacity: c.Topo.NVMeSize, What: "NVMe-resident model states",
		}
	}
	return nil
}

// collectiveTime charges a ring collective of size bytes (all-gather
// or reduce-scatter of a full layer) across the data-parallel group.
func (c Config) collectiveTime(size units.Bytes) units.Duration {
	n := float64(c.Topo.NumGPUs)
	bus := float64(c.Topo.AggregateNVLinkBW(0)) * collectiveEfficiency
	bytes := float64(size) * (n - 1) / n
	return collectiveLatency + units.Duration(bytes/bus*1e9)
}

// usefulFLOPs is rank 0's model compute per step (fw + bw), excluding
// the checkpoint recomputation.
func (c Config) usefulFLOPs() units.FLOPs {
	perMB := units.FLOPs(float64(c.Model.Layers))*c.Model.BlockForwardFLOPs(c.MicrobatchSize)*3 +
		c.Model.HeadForwardFLOPs(c.MicrobatchSize)*3
	return perMB * units.FLOPs(c.GradAccum)
}

// busy-until cursor helper: a serial resource timeline.
type cursor units.Duration

// reserve books the resource from max(earliest, cursor) for dur and
// returns the completion time.
func (c *cursor) reserve(earliest, dur units.Duration) units.Duration {
	start := earliest
	if units.Duration(*c) > start {
		start = units.Duration(*c)
	}
	end := start + dur
	*c = cursor(end)
	return end
}

// simulate runs rank 0's deterministic timeline: a compute cursor plus
// serial cursors for the NVLink collective channel, the two PCIe
// directions, and the NVMe path. Parameter fetches for layer l+1
// overlap layer l's compute (DeepSpeed's prefetching).
func (c Config) simulate() units.Duration {
	var now units.Duration
	var comm, pcieIn, pcieOut, nvme cursor

	rate := units.FLOPSRate(float64(c.Topo.GPU.EffectiveRate(c.Model.DType)) * computeEfficiency)
	fwT := rate.ComputeTime(c.Model.BlockForwardFLOPs(c.MicrobatchSize))
	headT := rate.ComputeTime(c.Model.HeadForwardFLOPs(c.MicrobatchSize))
	agT := c.collectiveTime(c.layerParamBytes())
	rsT := c.collectiveTime(c.layerParamBytes())
	n := units.Bytes(c.Topo.NumGPUs)
	layerShare := c.layerParamBytes() / n
	gradShare := units.Bytes(c.Model.ParamsPerBlock() * c.Prec.GradBytes / int64(c.Topo.NumGPUs))

	// fetch makes layer parameters resident: for ZeRO-Infinity the
	// rank-local shard streams NVMe -> host -> device first, then the
	// group all-gathers.
	fetch := func(earliest units.Duration) units.Duration {
		ready := earliest
		if c.Variant == ZeROInfinity {
			e1 := nvme.reserve(earliest, c.Topo.NVMeLatency+c.Topo.NVMeBW.TransferTime(layerShare))
			e2 := pcieIn.reserve(earliest, c.Topo.PCIeLatency+c.Topo.PCIeBW.TransferTime(layerShare))
			if e1 > ready {
				ready = e1
			}
			if e2 > ready {
				ready = e2
			}
		}
		return comm.reserve(ready, agT)
	}

	L := c.Model.Layers
	for step := 0; step < c.Steps; step++ {
		for mb := 0; mb < c.GradAccum; mb++ {
			// Forward.
			ready := fetch(now)
			for l := 0; l < L; l++ {
				start := now
				if ready > start {
					start = ready
				}
				if l+1 < L {
					ready = fetch(start) // prefetch overlaps compute
				}
				now = start + fwT
			}
			now += headT

			// Backward with checkpoint rematerialization: re-fetch
			// parameters, recompute the forward, run the 2x backward,
			// then reduce-scatter the layer gradients asynchronously.
			ready = fetch(now)
			for l := L - 1; l >= 0; l-- {
				start := now
				if ready > start {
					start = ready
				}
				if l > 0 {
					ready = fetch(start)
				}
				now = start + 3*fwT
				gradsReady := comm.reserve(now, rsT)
				if c.Variant == ZeROOffload {
					pcieOut.reserve(gradsReady, c.Topo.PCIeLatency+c.Topo.PCIeBW.TransferTime(gradShare))
				}
				if c.Variant == ZeROInfinity && mb == c.GradAccum-1 {
					// Infinity streams each layer's optimizer-state
					// partition through NVMe as soon as its gradients
					// are final, overlapping the remaining backward
					// (the paper's "carefully designed GPU-CPU swap").
					layerOpt := units.Bytes(c.Model.ParamsPerBlock() * c.Prec.OptBytes / int64(c.Topo.NumGPUs))
					nvme.reserve(gradsReady, c.Topo.NVMeLatency+c.Topo.NVMeBW.TransferTime(layerOpt*2))
				}
			}
			now += 2 * headT
			// Gradients must be fully reduced (and, for Offload,
			// streamed to the host) before they may be consumed.
			if d := units.Duration(comm); d > now {
				now = d
			}
			if d := units.Duration(pcieOut); d > now {
				now = d
			}
		}

		// Optimizer step.
		optShare := c.partitionedBytes(c.Prec.OptBytes)
		switch c.Variant {
		case ZeRO3:
			now += c.Topo.GPU.HBM.TransferTime(optShare * 2)
		case ZeROOffload:
			// Vectorized CPU Adam over the host partition, then the
			// updated fp16 parameters return over PCIe.
			cpuDone := now + hostMemBW.TransferTime(optShare*2)
			e := pcieIn.reserve(cpuDone, c.Topo.PCIeLatency+c.Topo.PCIeBW.TransferTime(c.partitionedBytes(c.Prec.ParamBytes)))
			now = e
		case ZeROInfinity:
			// Stream the optimizer partition through NVMe (read +
			// write), overlapping the parameter write-back.
			e1 := nvme.reserve(now, c.Topo.NVMeLatency+c.Topo.NVMeBW.TransferTime(optShare*2))
			e2 := pcieIn.reserve(now, c.Topo.PCIeLatency+c.Topo.PCIeBW.TransferTime(c.partitionedBytes(c.Prec.ParamBytes)))
			now = e1
			if e2 > now {
				now = e2
			}
		}
	}
	return now
}
