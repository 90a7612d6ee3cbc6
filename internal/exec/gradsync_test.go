package exec

import (
	"testing"

	"mpress/internal/cluster"
	"mpress/internal/hw"
	"mpress/internal/pipeline"
	"mpress/internal/sim"
	"mpress/internal/tensor"
	"mpress/internal/units"
)

// TestGradSyncImmediate: on a one-node cluster every all-reduce
// completes at once, so the run must reproduce the unsynchronized one
// exactly — the gating is a pure pass-through when the all-reduce is
// free — while still counting one all-reduce per (stage, minibatch).
func TestGradSyncImmediate(t *testing.T) {
	for _, kind := range []pipeline.ScheduleKind{pipeline.PipeDream, pipeline.DAPPLE} {
		b := buildTiny(t, kind, 4)
		base, err := Run(Options{Topo: hw.DGX1(), Built: b, Mapping: IdentityMapping(4)})
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run(Options{
			Topo: hw.DGX1(), Built: b, Mapping: IdentityMapping(4),
			DataParallel: &DPSpec{Cluster: cluster.MustNew(1, hw.DGX1(), cluster.InfiniBand4x100()), Buckets: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.Duration != base.Duration || r.Events != base.Events {
			t.Errorf("%v: immediate sync changed the run: %v in %d events vs %v in %d",
				kind, r.Duration, r.Events, base.Duration, base.Events)
		}
		if want := int64(b.NumStages() * b.Cfg.Minibatches); r.AllReduces != want {
			t.Errorf("%v: %d all-reduces, want %d", kind, r.AllReduces, want)
		}
		if r.NICBytes != 0 {
			t.Errorf("%v: one node sent %v over its NICs", kind, r.NICBytes)
		}
	}
}

// TestGradSyncDelaysOptimizer: on a two-node cluster every stage runs
// one ring all-reduce of its gradients per minibatch, starting when the
// minibatch's last backward on that stage ends. Each optimizer step
// must wait for it, so it starts no earlier than that backward's end
// plus the closed-form ring time, and the run gets longer.
func TestGradSyncDelaysOptimizer(t *testing.T) {
	b := buildTiny(t, pipeline.DAPPLE, 4)
	base, err := Run(Options{Topo: hw.DGX1(), Built: b, Mapping: IdentityMapping(4)})
	if err != nil {
		t.Fatal(err)
	}
	const buckets = 4
	c := cluster.MustNew(2, hw.DGX1(), cluster.Ethernet10G())
	r, err := Run(Options{
		Topo: hw.DGX1(), Built: b, Mapping: IdentityMapping(4),
		DataParallel: &DPSpec{Cluster: c, Buckets: buckets},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Duration <= base.Duration {
		t.Errorf("gradient sync did not lengthen the run: %v vs base %v", r.Duration, base.Duration)
	}
	S, M := b.NumStages(), b.Cfg.Minibatches
	if want := int64(S * M); r.AllReduces != want {
		t.Errorf("%d all-reduces, want stages × minibatches = %d", r.AllReduces, want)
	}
	// Ring rounding: at most a nanosecond per lane reservation and step.
	steps := buckets * 2 * (c.Nodes - 1)
	eps := units.Duration(steps*c.Net.NICs + steps)
	var wire units.Bytes
	for s := 0; s < S; s++ {
		var grads units.Bytes
		for _, id := range b.Persistent[s] {
			if tn := b.Graph.Tensors.Get(id); tn.Class == tensor.Gradient {
				grads += tn.Size
			}
		}
		if grads <= 0 {
			t.Fatalf("stage %d has no gradient payload", s)
		}
		wire += units.Bytes(M) * grads * 2 * units.Bytes(c.Nodes-1) / units.Bytes(c.Nodes)
		ring := c.IdealAllReduceTime(grads) - eps
		for q := 0; q < M; q++ {
			var lastBw sim.Time
			for m := q * b.Cfg.Microbatches; m < (q+1)*b.Cfg.Microbatches; m++ {
				sp := r.Spans[b.BwOp(pipeline.SlotKey{Stage: s, Microbatch: m})]
				if sp.End == 0 {
					t.Fatalf("stage %d microbatch %d: backward never ran", s, m)
				}
				lastBw = max(lastBw, sp.End)
			}
			for _, id := range b.OptOps[s][q] {
				if sp := r.Spans[id]; sp.Start < lastBw+ring {
					t.Errorf("stage %d minibatch %d: optimizer op %d started at %v, before the last backward's end %v plus the ring's %v",
						s, q, id, sp.Start, lastBw, ring)
				}
			}
		}
	}
	// Ceil-divided chunks may overshoot the exact wire volume slightly.
	if r.NICBytes < wire || r.NICBytes > wire+units.KiB {
		t.Errorf("NICBytes = %v, want ~%v", r.NICBytes, wire)
	}
}
