package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"mpress"
)

func init() {
	register(Experiment{
		Name:  "planner",
		Title: "Planner refinement cost: plan time, emulations and simulator throughput vs PlanWorkers",
		Run:   Planner,
	})
}

// PlannerPreset is one named planning workload — a config whose
// refinement loop does real work (the initial assignment overflows and
// the planner must arbitrate D2D/recompute conversions by emulation).
// The root-level BenchmarkRefine and the parallel-planner determinism
// test run exactly these presets, so benchmark names, BENCH_planner
// records and acceptance coverage all refer to the same points.
type PlannerPreset struct {
	Name string
	Cfg  mpress.Config
}

// PlannerPresets returns the planner workloads: both model families on
// both testbeds. bertxdgx2 is the stress point (hundreds of
// arbitration emulations on the 16-GPU box); gptxdgx1 settles almost
// immediately and so measures fixed planning overhead.
func PlannerPresets() []PlannerPreset {
	return []PlannerPreset{
		{"bertxdgx1", mpress.Config{
			Topology:       mpress.DGX1(),
			Model:          mpress.MustBert("1.67B"),
			Schedule:       mpress.PipeDream,
			System:         mpress.SystemMPress,
			MicrobatchSize: 12,
		}},
		{"bertxdgx2", mpress.Config{
			Topology:       mpress.DGX2(),
			Model:          mpress.MustBert("6.2B"),
			Schedule:       mpress.PipeDream,
			System:         mpress.SystemMPress,
			MicrobatchSize: 12,
		}},
		{"gptxdgx1", mpress.Config{
			Topology:       mpress.DGX1(),
			Model:          mpress.MustGPT("10.3B"),
			Schedule:       mpress.DAPPLE,
			System:         mpress.SystemMPress,
			MicrobatchSize: 2,
		}},
		{"gptxdgx2", mpress.Config{
			Topology:       mpress.DGX2(),
			Model:          mpress.MustGPT("25.5B"),
			Schedule:       mpress.DAPPLE,
			System:         mpress.SystemMPress,
			MicrobatchSize: 2,
		}},
	}
}

// plannerWorkerPoints is the PlanWorkers axis the experiment sweeps.
var plannerWorkerPoints = []int{1, 4}

// trainWith runs one job on a fresh single-worker runner built from
// opts (Workers and OnJobDone are overridden). Isolation means the
// plan stage is timed cold — the shared runner's plan cache keys plans
// by config fingerprint, so reusing it would hand every point after
// the first a cached plan and time nothing. The observer still sees
// the job, so -perf records include these points.
func trainWith(cfg mpress.Config, opts mpress.RunnerOptions) mpress.JobResult {
	j, err := mpress.NewJob(cfg)
	if err != nil {
		return mpress.JobResult{Err: err}
	}
	opts.Workers = 1
	opts.OnJobDone = notifyObserver
	return mpress.NewRunner(opts).Run(context.Background(), j)
}

// trainIsolated is trainWith at default runner options.
func trainIsolated(cfg mpress.Config) mpress.JobResult {
	return trainWith(cfg, mpress.RunnerOptions{})
}

// Planner measures the refinement loop itself: for each preset and
// PlanWorkers setting it reports real planning time, the number of
// arbitration emulations charged (identical across worker counts by
// construction), and the executor's event throughput. On a single-core
// host workers > 1 adds goroutine overhead without parallel speedup;
// the emulations column staying constant is the determinism evidence.
func Planner(w io.Writer) error {
	t := newTable("Preset", "Model", "Topology", "Workers", "Plan time", "Emulations", "Sim events", "Events/s", "TFLOPS")
	for _, p := range PlannerPresets() {
		for _, workers := range plannerWorkerPoints {
			cfg := p.Cfg
			cfg.PlanWorkers = workers
			res := trainIsolated(cfg)
			if res.Err != nil {
				return fmt.Errorf("planner preset %s (workers=%d): %w", p.Name, workers, res.Err)
			}
			rep := res.Report
			if rep.Failed() {
				t.add(p.Name, p.Cfg.Model.Name, p.Cfg.Topology.Name,
					fmt.Sprint(workers), "OOM", "-", "-", "-", "-")
				continue
			}
			eventsPerSec := 0.0
			if d := res.StageTimes["execute"]; d > 0 {
				eventsPerSec = float64(rep.SimEvents) / d.Seconds()
			}
			t.add(p.Name, p.Cfg.Model.Name, p.Cfg.Topology.Name,
				fmt.Sprint(workers),
				fmt.Sprint(res.StageTimes["plan"].Round(time.Millisecond)),
				fmt.Sprint(rep.Plan.Emulations),
				fmt.Sprint(rep.SimEvents),
				fmt.Sprintf("%.0f", eventsPerSec),
				fmt.Sprintf("%.1f", rep.TFLOPS))
		}
	}
	t.write(w)
	return nil
}
