package mpress_test

// The benchmark harness: one testing.B benchmark per table and figure
// of the paper's evaluation. Each benchmark regenerates the artifact
// end to end (profile → plan → simulate for the throughput figures),
// so `go test -bench=.` reproduces the entire evaluation; the rendered
// tables land in benchmark logs with -v via the experiments tests.
//
// Custom metrics: the throughput figures report the headline TFLOPS of
// the MPress column so regressions in the modelled systems are visible
// in benchmark diffs, not just wall time.

import (
	"context"
	"fmt"
	"io"
	"testing"

	"mpress"
	"mpress/internal/experiments"
	"mpress/internal/fabric"
	"mpress/internal/hw"
	"mpress/internal/units"
)

// benchExperiment runs a registered experiment once per iteration.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	e, err := experiments.Registry.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableI(b *testing.B)  { benchExperiment(b, "table1") }
func BenchmarkTableII(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkFigure2(b *testing.B) { benchExperiment(b, "fig2") }
func BenchmarkFigure4(b *testing.B) { benchExperiment(b, "fig4") }

func BenchmarkTableIII(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkTableIV(b *testing.B)  { benchExperiment(b, "table4") }

func BenchmarkFigure7(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFigure8a(b *testing.B) { benchExperiment(b, "fig8a") }
func BenchmarkFigure8b(b *testing.B) { benchExperiment(b, "fig8b") }
func BenchmarkFigure9(b *testing.B)  { benchExperiment(b, "fig9") }

func BenchmarkDeviceMappingSearch(b *testing.B) { benchExperiment(b, "mapping-cost") }
func BenchmarkPartitionAblation(b *testing.B)   { benchExperiment(b, "partition-ablation") }
func BenchmarkHardwareInsights(b *testing.B)    { benchExperiment(b, "grace") }
func BenchmarkScheduleComparison(b *testing.B)  { benchExperiment(b, "schedules") }

// BenchmarkBubbleScaling ablates the pipeline-bubble design choice:
// throughput versus microbatches-per-minibatch (the 1F1B bubble is
// (S-1)/(M+S-1); DESIGN.md fixes the default at 4×stages).
func BenchmarkBubbleScaling(b *testing.B) {
	for _, micro := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("microbatches=%d", micro), func(b *testing.B) {
			var tflops float64
			for i := 0; i < b.N; i++ {
				rep, err := mpress.Train(mpress.Config{
					Topology:       mpress.DGX1(),
					Model:          mpress.MustGPT("5.3B"),
					Schedule:       mpress.DAPPLE,
					System:         mpress.SystemPlain,
					MicrobatchSize: 2,
					Microbatches:   micro,
				})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Failed() {
					b.Fatalf("OOM at %d microbatches", micro)
				}
				tflops = rep.TFLOPS
			}
			b.ReportMetric(tflops, "model-TFLOPS")
		})
	}
}

// BenchmarkStripeWidth ablates the weighted-striping design choice at
// the fabric level: scatter bandwidth from gpu0 across 1/2/4/6 lanes.
func BenchmarkStripeWidth(b *testing.B) {
	topo := hw.DGX1()
	size := 256 * units.MiB
	cases := []struct {
		name  string
		parts []fabric.Part
	}{
		{"1lane", []fabric.Part{{Peer: 1, Bytes: size}}},
		{"2lanes", []fabric.Part{{Peer: 3, Bytes: size}}},
		{"4lanes", []fabric.Part{{Peer: 3, Bytes: size / 2}, {Peer: 4, Bytes: size / 2}}},
		{"6lanes", []fabric.Part{
			{Peer: 1, Bytes: size / 6}, {Peer: 2, Bytes: size / 6},
			{Peer: 3, Bytes: size / 3}, {Peer: 4, Bytes: size / 3},
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var bw float64
			for i := 0; i < b.N; i++ {
				bw = fabric.EffectiveScatterBandwidth(topo, 0, c.parts).GBpsf()
			}
			b.ReportMetric(bw, "GB/s")
		})
	}
}

// benchTrain runs one training job per iteration and reports its
// TFLOPS as a custom metric.
func benchTrain(b *testing.B, cfg mpress.Config) {
	b.Helper()
	var tflops float64
	for i := 0; i < b.N; i++ {
		rep, err := mpress.Train(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Failed() {
			b.Fatalf("unexpected OOM: %v", rep.OOM)
		}
		tflops = rep.TFLOPS
	}
	b.ReportMetric(tflops, "model-TFLOPS")
}

// Headline configurations, benchmarked individually so planner or
// simulator regressions show as metric changes.

func BenchmarkMPressBert167B(b *testing.B) {
	benchTrain(b, mpress.Config{
		Topology:       mpress.DGX1(),
		Model:          mpress.MustBert("1.67B"),
		Schedule:       mpress.PipeDream,
		System:         mpress.SystemMPress,
		MicrobatchSize: 12,
	})
}

func BenchmarkMPressBert62B(b *testing.B) {
	benchTrain(b, mpress.Config{
		Topology:       mpress.DGX1(),
		Model:          mpress.MustBert("6.2B"),
		Schedule:       mpress.PipeDream,
		System:         mpress.SystemMPress,
		MicrobatchSize: 12,
	})
}

func BenchmarkMPressGPT103B(b *testing.B) {
	benchTrain(b, mpress.Config{
		Topology:       mpress.DGX1(),
		Model:          mpress.MustGPT("10.3B"),
		Schedule:       mpress.DAPPLE,
		System:         mpress.SystemMPress,
		MicrobatchSize: 2,
	})
}

func BenchmarkMPressGPT255BOnDGX2(b *testing.B) {
	benchTrain(b, mpress.Config{
		Topology:       mpress.DGX2(),
		Model:          mpress.MustGPT("25.5B"),
		Schedule:       mpress.DAPPLE,
		System:         mpress.SystemMPress,
		MicrobatchSize: 2,
	})
}

// BenchmarkRefine times the planner refinement loop on the planner
// presets (the same points the determinism acceptance test and the
// plan-cold benchmark workload use), at sequential and 4-way candidate
// evaluation. Each iteration plans from scratch on a fresh
// single-worker runner; plan-ms isolates the refinement stage from
// build/execute, and emulations is the arbitration count — identical
// across worker settings by construction, so a change in that metric
// between sub-benchmarks is a determinism bug, not a perf change.
// `make profile` runs one pass under the CPU and heap profilers.
func BenchmarkRefine(b *testing.B) {
	for _, p := range experiments.PlannerPresets() {
		b.Run(p.Name, func(b *testing.B) {
			for _, workers := range []int{1, 4} {
				b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
					cfg := p.Cfg
					cfg.PlanWorkers = workers
					var planMS, emulations float64
					for i := 0; i < b.N; i++ {
						j, err := mpress.NewJob(cfg)
						if err != nil {
							b.Fatal(err)
						}
						r := mpress.NewRunner(mpress.RunnerOptions{Workers: 1})
						res := r.Run(context.Background(), j)
						if res.Err != nil {
							b.Fatal(res.Err)
						}
						if res.Report.Failed() {
							b.Fatalf("unexpected OOM: %v", res.Report.OOM)
						}
						planMS = float64(res.StageTimes["plan"].Microseconds()) / 1e3
						emulations = float64(res.Report.Plan.Emulations)
					}
					b.ReportMetric(planMS, "plan-ms")
					b.ReportMetric(emulations, "emulations")
				})
			}
		})
	}
}

func BenchmarkZeROInfinityGPT103B(b *testing.B) {
	benchTrain(b, mpress.Config{
		Topology:       mpress.DGX1WithNVMe(),
		Model:          mpress.MustGPT("10.3B"),
		System:         mpress.SystemZeROInfinity,
		MicrobatchSize: 2,
	})
}
