package experiments

import "mpress"

// PlannerPreset is one named planning workload — a config whose
// refinement loop does real work (the initial assignment overflows and
// the planner must arbitrate D2D/recompute conversions by emulation).
// The root-level BenchmarkRefine, the parallel-planner determinism
// test, the autosearch experiment and the plan-cold benchmark workload
// run exactly these presets, so benchmark names and acceptance
// coverage refer to the same points.
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
