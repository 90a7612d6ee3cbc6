package mpress_test

import (
	"sync/atomic"
	"testing"

	"mpress"
	"mpress/internal/experiments"
	"mpress/internal/pipeline"
	"mpress/internal/plan"
)

// TestPlannerLowersOnce pins "lower once, emulate many": plan.Compute
// calls Options.Build exactly once however many emulations it runs,
// sequentially or with parallel refinement, and the arbitration count
// stays at its established value.
func TestPlannerLowersOnce(t *testing.T) {
	emulations := map[string]int{"gptxdgx2": 6, "bertxdgx1": 7}
	for _, p := range experiments.PlannerPresets() {
		want, ok := emulations[p.Name]
		if !ok {
			continue
		}
		j, err := mpress.NewJob(p.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := j.Config
		g, err := c.Grid()
		if err != nil {
			t.Fatal(err)
		}
		part, err := pipeline.PartitionModel(c.Model, c.Stages, c.Strategy, c.Schedule,
			*c.Precision, c.MicrobatchSize, c.Microbatches)
		if err != nil {
			t.Fatal(err)
		}
		bc := pipeline.BuildConfig{
			Model: c.Model, Prec: *c.Precision, Part: part, Kind: c.Schedule,
			MicrobatchSize: c.MicrobatchSize, Microbatches: c.Microbatches,
			Minibatches: 2, TP: c.TPDegree,
		}
		for _, workers := range []int{1, 4} {
			var builds atomic.Int32
			pl, err := plan.Compute(plan.Options{
				Topo: g.Plane(),
				Build: func() (*pipeline.Built, error) {
					builds.Add(1)
					return pipeline.Build(bc)
				},
				Allowed: plan.AllMechanisms(),
				Workers: workers,
			})
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			if n := builds.Load(); n != 1 {
				t.Errorf("%s workers=%d: Build called %d times, want 1", p.Name, workers, n)
			}
			if pl.Emulations != want {
				t.Errorf("%s workers=%d: %d emulations, want %d", p.Name, workers, pl.Emulations, want)
			}
		}
	}
}
