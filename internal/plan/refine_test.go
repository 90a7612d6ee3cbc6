package plan

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"mpress/internal/hw"
	"mpress/internal/model"
	"mpress/internal/pipeline"
)

// bertJob returns a build factory for BERT-1.67B over 4 pipeline stages
// of a DGX-1 (PipeDream, microbatch 12): its first refinement round
// adopts its first-ranked candidate, and later rounds emulate again.
func bertJob(t *testing.T) func() (*pipeline.Built, error) {
	t.Helper()
	cfg, err := model.BertVariants.Lookup("1.67B")
	if err != nil {
		t.Fatal(err)
	}
	prec := model.MixedAdam()
	part, err := pipeline.PartitionModel(cfg, 4, pipeline.ComputeBalanced, pipeline.PipeDream, prec, 12, 16)
	if err != nil {
		t.Fatal(err)
	}
	return func() (*pipeline.Built, error) {
		return pipeline.Build(pipeline.BuildConfig{
			Model: cfg, Prec: prec, Part: part, Kind: pipeline.PipeDream,
			MicrobatchSize: 12, Microbatches: 16, Minibatches: 2,
		})
	}
}

// TestWindowAbandonsAfterWinner: at two workers, round 0 runs its first
// two ranked candidates at once and adopts the first. The hook holds
// the first's result until the second has run, so both are in flight
// when the round settles, and then holds the second until round 1
// emulates: the round must move on without it. The second is abandoned,
// not charged, so the plan and Plan.Emulations equal the sequential
// run's, and every worker has exited when Compute returns.
func TestWindowAbandonsAfterWinner(t *testing.T) {
	build := bertJob(t)
	opts := Options{Topo: hw.DGX1(), Build: build, Allowed: AllMechanisms(), Workers: 1}

	var rounds [][]int // emulated ranks, by round
	Simulated = func(e Emulation) {
		for len(rounds) <= e.Round {
			rounds = append(rounds, nil)
		}
		if e.Round >= 0 {
			rounds[e.Round] = append(rounds[e.Round], e.Rank)
		}
	}
	defer func() { Simulated = nil }()
	seq, err := Compute(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) < 2 || len(rounds[0]) != 1 || rounds[0][0] != 0 {
		t.Fatalf("sequential refinement emulated ranks %v by round; the test needs round 0 to adopt rank 0 and a round 1", rounds)
	}

	const patience = time.Minute
	var (
		mu       sync.Mutex
		failures []string
		second   = make(chan struct{}) // round 0's rank 1 has run
		round1   = make(chan struct{}) // round 1 has emulated
		ran      = sync.OnceFunc(func() { close(second) })
		moved    = sync.OnceFunc(func() { close(round1) })
		held     []Emulation
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		failures = append(failures, fmt.Sprintf(format, args...))
	}
	wait := func(ch chan struct{}, what string) {
		select {
		case <-ch:
		case <-time.After(patience):
			fail("waited %v for %s", patience, what)
		}
	}
	Simulated = func(e Emulation) {
		switch {
		case e.Round == 0 && e.Rank == 0:
			wait(second, "round 0's rank 1 to run beside its winner")
		case e.Round == 0 && e.Rank == 1:
			ran()
			wait(round1, "round 1 while round 0's rank 1 was held: the round waited for it")
			mu.Lock()
			held = append(held, e)
			mu.Unlock()
		case e.Round >= 1:
			moved()
		}
	}
	base := runtime.NumGoroutine()
	opts.Workers = 2
	par, err := Compute(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range failures {
		t.Error(f)
	}
	if len(held) != 1 {
		t.Fatalf("round 0's rank 1 reached the hook %d times, want once", len(held))
	}
	if e := held[0]; e.Err != nil || e.Result == nil {
		t.Errorf("round 0's rank 1, run before its round settled, failed: %v", e.Err)
	}
	if par.Emulations != seq.Emulations {
		t.Errorf("Plan.Emulations = %d at two workers, %d sequentially", par.Emulations, seq.Emulations)
	}
	if !bytes.Equal(saved(t, par), saved(t, seq)) {
		t.Error("the plan at two workers differs from the sequential one")
	}
	// A worker calls wg.Done as it returns, so allow it a moment to go.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after Compute, %d before", n, base)
	}
}
