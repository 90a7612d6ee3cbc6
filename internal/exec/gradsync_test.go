package exec

import (
	"testing"

	"mpress/internal/graph"
	"mpress/internal/hw"
	"mpress/internal/pipeline"
	"mpress/internal/sim"
	"mpress/internal/units"
)

// TestGradSyncImmediate: a synchronizer that completes instantly must
// reproduce the unsynchronized run exactly — the gating is a pure
// pass-through when the all-reduce is free.
func TestGradSyncImmediate(t *testing.T) {
	for _, kind := range []pipeline.ScheduleKind{pipeline.PipeDream, pipeline.DAPPLE} {
		b := buildTiny(t, kind, 4)
		base, err := Run(Options{Topo: hw.DGX1(), Built: b, Mapping: IdentityMapping(4)})
		if err != nil {
			t.Fatal(err)
		}
		calls := 0
		r, err := Run(Options{
			Topo: hw.DGX1(), Built: b, Mapping: IdentityMapping(4),
			GradSync: func(*sim.Sim) GradSyncFn {
				return func(stage, minibatch int, bytes units.Bytes, done func()) {
					calls++
					if bytes <= 0 {
						t.Errorf("stage %d minibatch %d: no gradient payload", stage, minibatch)
					}
					done()
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.Duration != base.Duration {
			t.Errorf("%v: immediate sync changed duration: %v vs %v", kind, r.Duration, base.Duration)
		}
		// One synchronization per (stage, minibatch).
		if want := b.NumStages() * b.Cfg.Minibatches; calls != want {
			t.Errorf("%v: %d sync calls, want %d", kind, calls, want)
		}
	}
}

// TestGradSyncDelaysOptimizer: a slow synchronizer must push every
// optimizer step past its stage's sync completion, lengthening the run.
func TestGradSyncDelaysOptimizer(t *testing.T) {
	b := buildTiny(t, pipeline.DAPPLE, 4)
	base, err := Run(Options{Topo: hw.DGX1(), Built: b, Mapping: IdentityMapping(4)})
	if err != nil {
		t.Fatal(err)
	}
	const delay = 5 * units.Millisecond
	type key struct{ stage, mini int }
	syncEnd := map[key]sim.Time{}
	var clock *sim.Sim
	r, err := Run(Options{
		Topo: hw.DGX1(), Built: b, Mapping: IdentityMapping(4),
		GradSync: func(s *sim.Sim) GradSyncFn {
			clock = s
			return func(stage, minibatch int, bytes units.Bytes, done func()) {
				k := key{stage, minibatch}
				s.At(s.Now()+delay, func() {
					syncEnd[k] = s.Now()
					done()
				})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if clock == nil {
		t.Fatal("GradSync factory never invoked")
	}
	if r.Duration <= base.Duration {
		t.Errorf("delayed sync did not lengthen run: %v vs base %v", r.Duration, base.Duration)
	}
	for s := 0; s < b.NumStages(); s++ {
		for q := 0; q < b.Cfg.Minibatches; q++ {
			end, ok := syncEnd[key{s, q}]
			if !ok {
				t.Fatalf("stage %d minibatch %d never synchronized", s, q)
			}
			for _, id := range b.OptOps[s][q] {
				if sp := r.Spans[id]; sp.Start < end {
					t.Errorf("stage %d minibatch %d: optimizer op %d started at %v before sync end %v",
						s, q, id, sp.Start, end)
				}
			}
		}
	}
	// Backward work itself must not be delayed: the sync only gates the
	// optimizer step, so every backward still runs before its stage's
	// sync completes being useful. Spot-check that at least one backward
	// op per stage finishes before that stage's last sync + delay slack.
	for s := 0; s < b.NumStages(); s++ {
		for m := 0; m < b.TotalMicrobatches; m++ {
			k := pipeline.SlotKey{Stage: s, Microbatch: m}
			if id := b.BwOp(k); r.Spans[id].End == 0 && b.Graph.Op(id).Kind == graph.Backward {
				t.Errorf("backward op %v never ran", k)
			}
		}
	}
}
