package plan

import (
	"context"
	"errors"
	"maps"
	"reflect"
	"slices"
	"testing"

	"mpress/internal/hw"
	"mpress/internal/pipeline"
)

// incumbent returns a planner for build on a DGX-1 holding its initial
// assignment, the incumbent of its first refinement round.
func incumbent(t *testing.T, build func() (*pipeline.Built, error)) *planner {
	t.Helper()
	p, err := newPlanner(Options{Topo: hw.DGX1(), Build: build, Allowed: AllMechanisms()})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.assign(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTrialIsolation: a trial is a copy of its round's incumbent. A
// D2D conversion and a recompute conversion on one snapshot change it
// and leave the incumbent and a sibling snapshot as they were, and
// taking a snapshot into a used trial allocates nothing: no map, no
// array.
func TestTrialIsolation(t *testing.T) {
	p := incumbent(t, bertJob(t))
	cands := newRefineCtx(p).rank()
	if len(cands) < 2 {
		t.Fatalf("%d refinement candidates, want two", len(cands))
	}
	r := p.newRound(context.Background(), 0, cands, 0)
	want := &trial{
		decisions: decisions{
			mapping: slices.Clone(r.inc.mapping),
			act:     slices.Clone(r.inc.act),
			layout:  slices.Clone(r.inc.layout),
			layouts: slices.Clone(r.inc.layouts),
			parked:  slices.Clone(r.inc.parked),
		},
		spare: maps.Clone(r.inc.spare),
	}
	trial, sibling := r.snapshot(nil), r.snapshot(nil)
	if !p.convertToD2D(trial, cands[0].key) {
		t.Fatal("the first candidate does not convert to D2D")
	}
	if !p.convertToRecompute(trial, cands[1].key) {
		t.Fatal("the second candidate does not convert to recomputation")
	}
	if reflect.DeepEqual(trial, want) {
		t.Fatal("the conversions left the trial as it was")
	}
	if !reflect.DeepEqual(r.inc, want) {
		t.Error("converting a snapshot changed the round's incumbent")
	}
	if !reflect.DeepEqual(sibling, want) {
		t.Error("converting a snapshot changed a sibling snapshot")
	}
	if allocs := testing.AllocsPerRun(100, func() { r.snapshot(trial) }); allocs != 0 {
		t.Errorf("a snapshot into a used trial allocates %v times, want none", allocs)
	}
	if !reflect.DeepEqual(r.snapshot(trial), want) {
		t.Error("a snapshot into a used trial differs from the incumbent")
	}
}

// lateCtx is a context its run sees cancelled only after its first live
// polls: Err reports nil until then, and ctx's error after, while Cause
// reads ctx's cause.
type lateCtx struct {
	context.Context
	live, calls int
}

func (c *lateCtx) Err() error {
	if c.calls++; c.calls <= c.live {
		return nil
	}
	return c.Context.Err()
}

// TestAbandonedBeforeEventLoop: an evaluation whose round settles before
// its event loop starts reports the round's *Abandoned and runs no
// event. Settling while its overlay is built, it never reaches the
// executor; settling after that, the kernel's poll before the first
// event stops it, which is the only poll a run shorter than the
// 1,024-event polling stride gets.
func TestAbandonedBeforeEventLoop(t *testing.T) {
	p := incumbent(t, smallJob(t, pipeline.DAPPLE))
	full, err := p.simulate(context.Background(), &p.cur.decisions, new(overlay), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if full.Events == 0 || full.Events >= 1024 {
		t.Fatalf("the run takes %d events, want some, fewer than the polling stride", full.Events)
	}

	settled, cancel := context.WithCancelCause(context.Background())
	cancel(&Abandoned{Winner: 0})
	var seen []Emulation
	Simulated = func(e Emulation) { seen = append(seen, e) }
	defer func() { Simulated = nil }()
	for _, c := range []struct {
		name string
		live int // the polls that see the round open
		runs int // the emulations Simulated sees
	}{
		{"while its overlay is built", 1, 0},
		{"before its first event", 2, 1},
	} {
		seen = nil
		ctx := &lateCtx{Context: settled, live: c.live}
		res, err := p.simulate(ctx, &p.cur.decisions, new(overlay), 0, 1)
		var ab *Abandoned
		if !errors.As(err, &ab) || ab.Winner != 0 || res != nil {
			t.Errorf("%s: simulate returned a result: %t, error %v; want no result and the round's *Abandoned", c.name, res != nil, err)
		}
		if len(seen) != c.runs {
			t.Fatalf("%s: Simulated saw %d emulations, want %d", c.name, len(seen), c.runs)
		}
		if c.runs > 0 && (!errors.As(seen[0].Err, &ab) || seen[0].Result != nil) {
			t.Errorf("%s: Simulated saw a result: %t, error %v; want no result and the round's *Abandoned", c.name, seen[0].Result != nil, seen[0].Err)
		}
		if c.runs == 0 && ctx.calls != 2 {
			t.Errorf("%s: the context was polled %d times, want twice: before and after the overlay", c.name, ctx.calls)
		}
	}
}
