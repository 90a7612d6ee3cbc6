package mpress_test

import (
	"context"
	"runtime"
	"testing"

	"mpress"
	"mpress/internal/experiments"
	"mpress/internal/units"
)

// maxBytesPerEmulation bounds what planning bertxdgx2 allocates per
// emulation, about 1.5x the ~200 KiB measured when it was set (at
// GOMAXPROCS 2; ~183 KiB at 1 and ~233 KiB at 4). Each emulation prices
// a copy of its round's incumbent in its refinement worker's trial and
// runs an overlay on the frozen lowering, rebuilt in that worker's
// arrays, and the pooled executor state keeps it from
// re-allocating its per-run slices; what is left is mostly the
// Result's Spans.
const maxBytesPerEmulation = 300 * units.KiB

// TestEmulationAllocBytes plans bertxdgx2 on a fresh single-worker
// runner at the default refinement width (GOMAXPROCS), as mpress-plan
// and BenchmarkRefine's workers=0 case do, and bounds the bytes the
// whole job allocates (runtime.MemStats.TotalAlloc) divided by its
// Plan.Emulations, so evaluations abandoned after a round's winner
// count against the bound without being charged. The race detector's instrumentation allocates, so
// it runs only without -race (make sim-smoke).
func TestEmulationAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	var cfg mpress.Config
	for _, p := range experiments.PlannerPresets() {
		if p.Name == "bertxdgx2" {
			cfg = p.Cfg
		}
	}
	j, err := mpress.NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := mpress.NewRunner(mpress.RunnerOptions{Workers: 1}).Run(context.Background(), j)
	runtime.ReadMemStats(&after)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	n := res.Report.Plan.Emulations
	if n < 100 {
		t.Fatalf("bertxdgx2 planned with %d emulations; the bound is set for ~194", n)
	}
	per := units.Bytes((after.TotalAlloc - before.TotalAlloc) / uint64(n))
	t.Logf("%d emulations, %v allocated per emulation (bound %v)", n, per, maxBytesPerEmulation)
	if per > maxBytesPerEmulation {
		t.Errorf("planning allocated %v per emulation, bound %v", per, maxBytesPerEmulation)
	}
}
