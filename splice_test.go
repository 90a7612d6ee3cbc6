package mpress_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"mpress"
	"mpress/internal/exec"
	"mpress/internal/experiments"
	"mpress/internal/plan"
)

// TestSpliceDifferential holds the fork path to the slow one on every
// emulation of every planner preset. Each emulation instruments a
// (recycled) fork of the frozen lowering, and exec reads def ops off
// the frozen base and free rows off the lowering. Those must equal what
// a full Validate, Kahn sort and liveness analysis derive on an
// unforked copy, which must also be acyclic. Every emulation runs on
// a fork, so each preset's fork runs are its emulations plus one for
// the Execute stage; a sequential plan charges each of its emulations
// to Plan.Emulations.
func TestSpliceDifferential(t *testing.T) {
	var (
		mu       sync.Mutex
		runs     int
		sims     int
		firstErr error
	)
	plan.Simulated = func() {
		mu.Lock()
		defer mu.Unlock()
		sims++
	}
	defer func() { plan.Simulated = nil }()
	exec.SpliceCheck = func(err error) {
		mu.Lock()
		defer mu.Unlock()
		runs++
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	defer func() { exec.SpliceCheck = nil }()

	// bertxdgx1 reaches refinement; planned again with four workers, its
	// waves emulate concurrently, each wave slot on its recycled fork.
	// A wave also emulates the candidates ranked after its first
	// improving one, which Plan.Emulations does not charge, so there it
	// must equal the sequential plan's, and the fork runs must count
	// every emulation, charged or not.
	type preset struct {
		name string
		cfg  mpress.Config
	}
	sequential := map[string]int{}
	var presets []preset
	for _, p := range experiments.PlannerPresets() {
		presets = append(presets, preset{p.Name, p.Cfg})
		if p.Name == "bertxdgx1" {
			cfg := p.Cfg
			cfg.PlanWorkers = 4
			presets = append(presets, preset{p.Name + "/workers=4", cfg})
		}
	}
	for _, p := range presets {
		before, simsBefore := runs, sims
		j, err := mpress.NewJob(p.cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := mpress.NewRunner(mpress.RunnerOptions{Workers: 1}).Run(context.Background(), j)
		if res.Err != nil {
			t.Fatalf("%s: %v", p.name, res.Err)
		}
		emulations, got, simulated := res.Report.Plan.Emulations, runs-before, sims-simsBefore
		t.Logf("%s: %d emulations charged, %d run, %d fork runs checked", p.name, emulations, simulated, got)
		if got != simulated+1 {
			t.Errorf("%s: %d fork runs checked, want every emulation + 1 = %d", p.name, got, simulated+1)
		}
		if p.cfg.PlanWorkers <= 1 {
			sequential[p.name] = emulations
			if simulated != emulations {
				t.Errorf("%s: %d emulations run, want Plan.Emulations = %d", p.name, simulated, emulations)
			}
			continue
		}
		name, _, _ := strings.Cut(p.name, "/")
		if emulations != sequential[name] || simulated < emulations {
			t.Errorf("%s: %d emulations charged of %d run, want %d charged as sequentially",
				p.name, emulations, simulated, sequential[name])
		}
	}
	if firstErr != nil {
		t.Errorf("fork path disagrees with the full derivation: %v", firstErr)
	}
}
