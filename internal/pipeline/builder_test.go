package pipeline

import (
	"testing"

	"mpress/internal/graph"
	"mpress/internal/model"
	"mpress/internal/tensor"
)

func smallBuild(t *testing.T, kind ScheduleKind, micro, mini int) *Built {
	t.Helper()
	cfg := mustBert(t, "0.35B")
	part, err := PartitionModel(cfg, 4, ComputeBalanced, kind, model.FP32Adam(), 2, micro)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(BuildConfig{
		Model: cfg, Prec: model.FP32Adam(), Part: part, Kind: kind,
		MicrobatchSize: 2, Microbatches: micro, Minibatches: mini,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBuildValidGraph(t *testing.T) {
	for _, kind := range []ScheduleKind{PipeDream, DAPPLE, GPipe} {
		b := smallBuild(t, kind, 4, 2)
		if err := b.Graph.Validate(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if b.TotalMicrobatches != 8 {
			t.Errorf("%v: total microbatches = %d", kind, b.TotalMicrobatches)
		}
		if b.SamplesProcessed() != 16 {
			t.Errorf("%v: samples = %d", kind, b.SamplesProcessed())
		}
		if b.UsefulFLOPs <= 0 {
			t.Errorf("%v: useful FLOPs = %v", kind, b.UsefulFLOPs)
		}
	}
}

func TestBuildOpCounts(t *testing.T) {
	b := smallBuild(t, DAPPLE, 4, 1)
	S, M := 4, 4
	var fw, bw, xfer, opt int
	for _, op := range b.Graph.Ops() {
		switch op.Kind {
		case graph.Forward:
			fw++
		case graph.Backward:
			bw++
		case graph.Transfer:
			xfer++
		case graph.OptimizerStep:
			opt++
		}
	}
	if fw != S*M || bw != S*M {
		t.Errorf("fw/bw = %d/%d, want %d", fw, bw, S*M)
	}
	// Activation transfers: (S-1)×M forward + (S-1)×M gradient.
	if xfer != 2*(S-1)*M {
		t.Errorf("transfers = %d, want %d", xfer, 2*(S-1)*M)
	}
	// One optimizer op per parameter group: per-block plus the
	// embedding group on stage 0.
	wantOpt := b.Cfg.Model.Layers + 1
	if opt != wantOpt {
		t.Errorf("optimizer steps = %d, want %d", opt, wantOpt)
	}
	for s := 0; s < S; s++ {
		groups := b.Cfg.Part.Stages[s].NumBlocks
		if s == 0 {
			groups++
		}
		if got := len(b.OptOps[s][0]); got != groups {
			t.Errorf("stage %d has %d optimizer groups, want %d", s, got, groups)
		}
	}
}

func TestBuildPersistentTensors(t *testing.T) {
	b := smallBuild(t, PipeDream, 4, 1)
	// Every stage has per-block param/grad/opt; stage 0 adds the
	// embedding triple; stages 0..2 add a stash tensor (stage 3 has
	// WeightVersions==1).
	for s := 0; s < 4; s++ {
		blocks := b.Cfg.Part.Stages[s].NumBlocks
		want := blocks * 3
		if s == 0 {
			want += 3
		}
		if PipeDream.WeightVersions(s, 4) > 1 {
			want++
		}
		if got := len(b.Persistent[s]); got != want {
			t.Errorf("stage %d persistent tensors = %d, want %d", s, got, want)
		}
		for _, id := range b.Persistent[s] {
			if !b.Persists(id) {
				t.Fatalf("tensor %d of Persistent does not persist", id)
			}
			if b.Graph.Tensors.Get(id).Stage != s {
				t.Fatalf("persistent tensor %d on wrong stage", id)
			}
		}
	}
}

func TestBuildDAPPLEHasNoStash(t *testing.T) {
	b := smallBuild(t, DAPPLE, 4, 1)
	for _, ts := range b.Persistent {
		for _, id := range ts {
			if name := b.Graph.Tensors.Get(id).Name; len(name) >= 5 && name[:5] == "stash" {
				t.Errorf("DAPPLE build contains stash tensor %s", name)
			}
		}
	}
}

func TestBuildActsAndRecomputeFLOPs(t *testing.T) {
	b := smallBuild(t, DAPPLE, 2, 1)
	for m := 0; m < 2; m++ {
		for s := 0; s < 4; s++ {
			k := SlotKey{s, m}
			acts := b.Acts(k)
			st := b.Cfg.Part.Stages[s]
			want := st.NumBlocks
			if st.HasEmbedding {
				want++
			}
			if st.HasHead {
				want++
			}
			if len(acts) != want {
				t.Errorf("slot %v: %d activations, want %d", k, len(acts), want)
			}
			blockActs := 0
			for _, id := range acts {
				tn := b.Graph.Tensors.Get(id)
				if tn.Class != tensor.Activation {
					t.Errorf("%s: class %v", tn.Name, tn.Class)
				}
				if _, ok := b.RecomputeFLOPs(id); ok {
					blockActs++
				}
			}
			if blockActs != st.NumBlocks {
				t.Errorf("slot %v: %d recomputable activations, want %d", k, blockActs, st.NumBlocks)
			}
			if in := b.BoundIn(k); (in >= 0) != (s > 0) {
				t.Errorf("slot %v: BoundIn %d, want one only past stage 0", k, in)
			}
		}
	}
	for _, k := range []SlotKey{{-1, 0}, {4, 0}, {0, -1}, {0, 2}} {
		if b.BoundIn(k) >= 0 || b.Acts(k) != nil {
			t.Errorf("slot %v is not in the build, yet has activations or a BoundIn", k)
		}
	}
}

// TestBuildScheduleOrderIsRespected verifies the chained deps realize
// 1F1B: in the topological order restricted to one device, B(m)
// precedes F(m + warmup).
func TestBuildScheduleOrderIsRespected(t *testing.T) {
	b := smallBuild(t, DAPPLE, 6, 1)
	order, err := b.Graph.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[graph.OpID]int)
	for i, id := range order {
		pos[id] = i
	}
	// Stage 0 of 4, warmup 4: B0 must precede F4.
	if pos[b.BwOp(SlotKey{0, 0})] > pos[b.FwOp(SlotKey{0, 4})] {
		t.Error("1F1B violated: F4 scheduled before B0 on stage 0")
	}
	// And F3 (warmup) must precede B0.
	if pos[b.FwOp(SlotKey{0, 3})] > pos[b.BwOp(SlotKey{0, 0})] {
		t.Error("warmup violated: B0 before F3 on stage 0")
	}
}

func TestBuildRejectsBadShapes(t *testing.T) {
	cfg := mustBert(t, "0.35B")
	part := mustPartition(t, cfg, 8)
	for _, bad := range []BuildConfig{
		{Model: cfg, Prec: model.FP32Adam(), Part: part, MicrobatchSize: 0, Microbatches: 1, Minibatches: 1},
		{Model: cfg, Prec: model.FP32Adam(), Part: part, MicrobatchSize: 1, Microbatches: 0, Minibatches: 1},
		{Model: cfg, Prec: model.FP32Adam(), Part: part, MicrobatchSize: 1, Microbatches: 1, Minibatches: 0},
	} {
		if _, err := Build(bad); err == nil {
			t.Errorf("bad shape accepted: %+v", bad)
		}
	}
	// Partition for a different model must be rejected.
	other := mustGPT(t, "5.3B")
	if _, err := Build(BuildConfig{
		Model: other, Prec: model.MixedAdam(), Part: part, Kind: DAPPLE,
		MicrobatchSize: 1, Microbatches: 1, Minibatches: 1,
	}); err == nil {
		t.Error("mismatched partition accepted")
	}
}

func TestBuildBoundaryTransfersWired(t *testing.T) {
	b := smallBuild(t, DAPPLE, 2, 1)
	// Every bndout tensor must be consumed by exactly one transfer
	// whose output lives on the next stage.
	order, _ := b.Graph.TopoOrder()
	l := b.Graph.Analyze(order)
	for _, op := range b.Graph.Ops() {
		if op.Kind != graph.Transfer {
			continue
		}
		in := b.Graph.Tensors.Get(op.Inputs[0])
		out := b.Graph.Tensors.Get(op.Outputs[0])
		if in.Stage == out.Stage {
			t.Errorf("%s: transfer within stage %d", op.Name, in.Stage)
		}
		if d := out.Stage - in.Stage; d != 1 && d != -1 {
			t.Errorf("%s: transfer jumps stages %d -> %d", op.Name, in.Stage, out.Stage)
		}
		// The moved tensor's last use is the transfer itself on the
		// source side.
		if l.LastUse(op.Inputs[0]) == -1 {
			t.Errorf("%s: input never used?", op.Name)
		}
	}
}
