package mpress_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"mpress"
	"mpress/internal/exec"
	"mpress/internal/experiments"
	"mpress/internal/graph"
	"mpress/internal/pipeline"
	"mpress/internal/plan"
	"mpress/internal/tensor"
	"mpress/internal/trace"
)

// TestSpliceDifferential holds the overlay path to the materialized one
// on every emulation of every planner preset, planned sequentially, at
// four refinement workers and at the default width (the runner's share
// of GOMAXPROCS; make splice-smoke runs it at several), and on each
// preset's final job. Each run
// lays its plan over the frozen lowering as an exec.Overlay. The
// reference is that overlay spliced into the lowering the plain way: a
// fresh, unfrozen graph with the lowering's ops, then the overlay's
// (each recompute producing its tensor, so the tensor's consumers wait
// for it through their inputs), then the overlay's deps, run through
// the same exec.Run with an empty overlay, so it validates the graph
// and derives its own order, liveness and free rows. The two Results
// must agree in duration, spans, events, memory, OOM and fabric
// traffic, and the final job's Chrome traces byte for byte. The
// plan.Simulated hook sees every emulation that ran, charged to
// Plan.Emulations or not; sequentially it must see exactly
// Plan.Emulations, all run to the end. In parallel, a run may stop
// early only when its round has settled on a winner ranked before it
// (*plan.Abandoned); every run that ends otherwise is checked.
func TestSpliceDifferential(t *testing.T) {
	var (
		mu        sync.Mutex
		sims      int
		abandoned int
		firstErr  error
		twins     = map[*pipeline.Built]*pipeline.Built{}
	)
	// twin returns an unfrozen lowering equal to b, whose copies carry
	// no free rows, so a reference run derives its own.
	twin := func(b *pipeline.Built) (*pipeline.Built, error) {
		mu.Lock()
		defer mu.Unlock()
		if tw := twins[b]; tw != nil {
			return tw, nil
		}
		tw, err := pipeline.Build(b.Cfg)
		twins[b] = tw
		return tw, err
	}
	reference := func(o *exec.Options, res *exec.Result) (*exec.Options, *exec.Result, error) {
		tw, err := twin(o.Built)
		if err != nil {
			return nil, nil, err
		}
		ref := materialize(o, tw)
		if err := ref.Built.Graph.Validate(); err != nil {
			return nil, nil, err
		}
		want, err := exec.Run(*ref)
		if err != nil {
			return nil, nil, err
		}
		return ref, want, sameResult(res, want)
	}
	plan.Simulated = func(e plan.Emulation) {
		var ab *plan.Abandoned
		err := e.Err
		stopped := errors.As(err, &ab) && ab.Winner >= 0 && e.Rank > ab.Winner
		switch {
		case stopped:
			err = nil
		case err != nil:
			err = fmt.Errorf("round %d rank %d: an emulation failed: %w", e.Round, e.Rank, err)
		case e.Result == nil:
			err = fmt.Errorf("round %d rank %d: an emulation returned no result", e.Round, e.Rank)
		default:
			_, _, err = reference(e.Opts, e.Result)
		}
		mu.Lock()
		defer mu.Unlock()
		sims++
		if stopped {
			abandoned++
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	defer func() { plan.Simulated = nil }()

	sequential := map[string]int{}
	for _, p := range experiments.PlannerPresets() {
		for _, workers := range []int{1, 4, 0} {
			name := fmt.Sprintf("%s/workers=%d", p.Name, workers)
			cfg := p.Cfg
			cfg.PlanWorkers = workers
			j, err := mpress.NewJob(cfg)
			if err != nil {
				t.Fatal(err)
			}
			before, stoppedBefore := sims, abandoned
			res := mpress.NewRunner(mpress.RunnerOptions{Workers: 1, KeepArtifacts: true}).Run(context.Background(), j)
			if res.Err != nil {
				t.Fatalf("%s: %v", name, res.Err)
			}
			emulations, stopped := res.Report.Plan.Emulations, abandoned-stoppedBefore
			finished := sims - before - stopped
			t.Logf("%s: %d emulations charged, %d run to the end and checked, %d abandoned", name, emulations, finished, stopped)
			if workers == 1 {
				sequential[p.Name] = emulations
				if finished != emulations || stopped != 0 {
					t.Errorf("%s: %d emulations run to the end and %d abandoned, want Plan.Emulations = %d and none",
						name, finished, stopped, emulations)
				}
			} else if emulations != sequential[p.Name] || finished < emulations {
				t.Errorf("%s: %d emulations charged of %d run to the end, want %d charged as sequentially",
					name, emulations, finished, sequential[p.Name])
			}

			// The job's own run, and its Chrome trace.
			st := res.State
			ref, want, err := reference(st.ExecOpts, st.Exec)
			if err != nil {
				t.Fatalf("%s: final job: %v", name, err)
			}
			var got, wantTrace bytes.Buffer
			if err := trace.Collect(st.ExecOpts, st.Exec).WriteChrome(&got); err != nil {
				t.Fatal(err)
			}
			if err := trace.Collect(ref, want).WriteChrome(&wantTrace); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), wantTrace.Bytes()) {
				t.Errorf("%s: the job's Chrome trace differs from the materialized run's", name)
			}
		}
	}
	if firstErr != nil {
		t.Errorf("an emulation disagrees with its materialized reference: %v", firstErr)
	}
}

// materialize splices o's overlay into a copy of tw, an unfrozen twin
// of o's lowering, and returns o's options over it with an empty
// overlay and no context: a run that finished is checked even when its
// refinement round has since been cancelled. Overlay ops get the names
// the overlay path builds on read.
func materialize(o *exec.Options, tw *pipeline.Built) *exec.Options {
	b := *tw
	g := graph.New(b.Graph.Tensors)
	for _, op := range b.Graph.Ops() {
		g.AddOp(op)
	}
	view := o.Ops()
	for _, op := range o.Overlay.Ops {
		op.Name = view.Name(op.ID)
		if op.Kind == graph.Recompute {
			op.Outputs = []tensor.ID{op.Subject}
		}
		g.AddOp(op)
	}
	for _, d := range o.Overlay.Deps {
		g.AddDep(d.After, d.Before)
	}
	b.Graph = g
	ref := *o
	ref.Built, ref.Overlay, ref.Ctx = &b, exec.Overlay{}, nil
	return &ref
}

// sameResult reports the first of the compared Result fields on which
// got and want differ.
func sameResult(got, want *exec.Result) error {
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"Duration", got.Duration, want.Duration},
		{"Events", got.Events, want.Events},
		{"OOM", got.OOM, want.OOM},
		{"GPUs", got.GPUs, want.GPUs},
		{"Fabric", got.Fabric, want.Fabric},
		{"Spans", got.Spans, want.Spans},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			return fmt.Errorf("%s differs: overlay run %v, materialized %v (%v vs %v events)",
				f.name, abbrev(f.got), abbrev(f.want), got.Events, want.Events)
		}
	}
	return nil
}

// abbrev keeps long values out of an error message.
func abbrev(v any) string {
	s := fmt.Sprint(v)
	if len(s) > 120 {
		s = s[:120] + "…"
	}
	return s
}
