package search

import (
	"mpress/internal/pipeline"
	"mpress/internal/runner"
	"mpress/internal/tensor"
	"mpress/internal/units"
)

// lowerBound returns a provable lower bound on the time-to-fit of a
// defaulted candidate config — the branch-and-bound cut generalized
// from the planner's per-device refinement bound (plan/refine.go). A
// candidate is pruned only when this bound already meets the
// incumbent, so pruning can never hide a better strategy.
//
// The argument is the executor's own cost model, undercounted:
//
//   - Forward/Backward ops cost rate.ComputeTime(FLOPs) with the
//     dtype-matched effective rate; the builder emits one fw and one
//     bw per stage per microbatch at exactly the sharded profile's
//     FLOPs, so the per-stage compute floor is exact.
//   - OptimizerStep ops are HBM-bound: per parameter group,
//     TransferTime(2·(param+grad+opt) bytes) per minibatch. The floor
//     charges the whole sharded stage state at once and subtracts one
//     nanosecond per group (per-group truncation slack), so it never
//     exceeds the builder's per-group sum. The stage-level ceil of
//     Shard also never exceeds the builder's per-block ceils.
//   - Everything else a candidate can incur — activation moves, D2D
//     striping, swaps, recompute, boundary transfers, all-reduces,
//     bubbles, checkpoint and replay time — only adds to wall clock.
//
// Each stage's ops run serially on one device, so the per-replica
// wall clock is at least the largest stage floor; and all stage work
// shares the plane's GPUs, so it is also at least the total divided
// by the plane size. Samples-per-sec is samples/wall, effective rate
// at most samples-per-sec × replicas (resilience only lowers it), so
// time-to-fit ≥ workload · floor / (samples · replicas). The final
// float conversion shaves a relative 1e-9 to absorb rounding.
//
// ZeRO candidates (analytic model, no operator graph) and any
// candidate the static model cannot price return 0 — no claim, never
// pruned.
func lowerBound(c runner.Config, workload int64) units.Duration {
	if c.System.IsZeRO() || c.Topology == nil || c.Precision == nil {
		return 0
	}
	part, err := pipeline.PartitionModel(c.Model, c.Stages, c.Strategy, c.Schedule,
		*c.Precision, c.MicrobatchSize, c.Microbatches)
	if err != nil {
		return 0
	}
	profiles := pipeline.Profile(c.Model, part, c.MicrobatchSize)

	rate := c.Topology.GPU.EffectiveFP16()
	if c.Model.DType == tensor.FP32 {
		rate = c.Topology.GPU.EffectiveFP32()
	}
	hbm := c.Topology.GPU.HBM
	tp := c.TP()
	totalMB := int64(c.Microbatches) * int64(c.Minibatches)

	var maxStage, sum units.Duration
	for i, full := range profiles {
		sp := full.Shard(tp)
		perMB := rate.ComputeTime(sp.FwFLOPs) + rate.ComputeTime(sp.BwFLOPs)
		state := 2 * (sp.ParamBytes(*c.Precision) + sp.GradBytes(*c.Precision) +
			sp.OptBytes(*c.Precision))
		optPerMini := hbm.TransferTime(state)
		if perMB < 0 || perMB >= units.MaxDuration || optPerMini >= units.MaxDuration {
			return 0 // unpriceable; make no claim
		}
		// ≤ NumBlocks+2 parameter groups (blocks, embedding, head).
		slack := units.Duration(part.Stages[i].NumBlocks + 2)
		if optPerMini > slack {
			optPerMini -= slack
		} else {
			optPerMini = 0
		}
		stage := perMB*units.Duration(totalMB) + optPerMini*units.Duration(c.Minibatches)
		if stage > maxStage {
			maxStage = stage
		}
		sum += stage
	}
	plane := c.Topology.NumGPUs / tp
	if plane < 1 {
		plane = 1
	}
	floor := maxStage
	if spread := sum / units.Duration(plane); spread > floor {
		floor = spread
	}
	samples := float64(c.MicrobatchSize) * float64(totalMB) * float64(c.Replicas())
	if samples <= 0 || floor <= 0 {
		return 0
	}
	ttf := floor.Secondsf() * float64(workload) / samples
	return units.Seconds(ttf * (1 - 1e-9))
}
