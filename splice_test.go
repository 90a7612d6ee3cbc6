package mpress_test

import (
	"context"
	"sync"
	"testing"

	"mpress"
	"mpress/internal/exec"
	"mpress/internal/experiments"
)

// TestSpliceDifferential holds the fork path to the slow one on every
// emulation of every planner preset. Each emulation forks the frozen
// lowering and instruments it, and exec reads def ops and free points
// off the frozen base. Those must equal what a full Validate, Kahn sort
// and liveness analysis derive on an unforked copy, which must also be
// acyclic. Every charged arbitration runs exactly one emulation, so
// each preset's fork runs are its Plan.Emulations plus one for the
// Execute stage.
func TestSpliceDifferential(t *testing.T) {
	var (
		mu       sync.Mutex
		runs     int
		firstErr error
	)
	exec.SpliceCheck = func(err error) {
		mu.Lock()
		defer mu.Unlock()
		runs++
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	defer func() { exec.SpliceCheck = nil }()

	for _, p := range experiments.PlannerPresets() {
		before := runs
		j, err := mpress.NewJob(p.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := mpress.NewRunner(mpress.RunnerOptions{Workers: 1}).Run(context.Background(), j)
		if res.Err != nil {
			t.Fatalf("%s: %v", p.Name, res.Err)
		}
		emulations := res.Report.Plan.Emulations
		t.Logf("%s: %d emulations, %d fork runs checked", p.Name, emulations, runs-before)
		if got := runs - before; got != emulations+1 {
			t.Errorf("%s: %d fork runs checked, want Plan.Emulations+1 = %d", p.Name, got, emulations+1)
		}
	}
	if firstErr != nil {
		t.Errorf("fork path disagrees with the full derivation: %v", firstErr)
	}
}
