package profiler

import (
	"testing"

	"mpress/internal/hw"
	"mpress/internal/model"
	"mpress/internal/pipeline"
	"mpress/internal/tensor"
)

func buildTiny(t *testing.T) *pipeline.Built {
	t.Helper()
	cfg := model.Config{
		Name: "Tiny", Arch: model.GPT,
		Layers: 8, Hidden: 512, Heads: 8, SeqLen: 128, Vocab: 4096,
		DType: tensor.FP16,
	}
	prec := model.MixedAdam()
	part, err := pipeline.PartitionModel(cfg, 4, pipeline.ComputeBalanced, pipeline.DAPPLE, prec, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pipeline.Build(pipeline.BuildConfig{
		Model: cfg, Prec: prec, Part: part, Kind: pipeline.DAPPLE,
		MicrobatchSize: 2, Microbatches: 4, Minibatches: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCollectBasics(t *testing.T) {
	b := buildTiny(t)
	p, err := Collect(hw.DGX1(), b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Duration <= 0 {
		t.Error("no duration")
	}
	if len(p.Stats) != b.Graph.Tensors.Len() {
		t.Errorf("stats for %d tensors, want %d", len(p.Stats), b.Graph.Tensors.Len())
	}
	if len(p.StagePeak) != 4 {
		t.Fatalf("stage peaks = %v", p.StagePeak)
	}
	for s, pk := range p.StagePeak {
		if pk <= pipeline.RuntimeReserve {
			t.Errorf("stage %d peak %v below reserve", s, pk)
		}
	}
	// Fig. 2 shape again, via the profiler path.
	if p.StagePeak[0] <= p.StagePeak[3] {
		t.Error("stage 0 must out-demand stage 3")
	}
	for s := 0; s < 4; s++ {
		if p.SlotDuration[s] <= 0 {
			t.Errorf("stage %d slot duration missing", s)
		}
	}
}

func TestActivationWindows(t *testing.T) {
	b := buildTiny(t)
	p, err := Collect(hw.DGX1(), b, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A stage-0 block activation of microbatch 0 idles between F and
	// B; under 1F1B on stage 0 the gap spans most of the minibatch.
	k := pipeline.SlotKey{Stage: 0, Microbatch: 0}
	var checked int
	for _, id := range b.Acts(k) {
		if _, ok := b.RecomputeFLOPs(id); !ok {
			continue
		}
		st := p.Stats[id]
		w := st.LongestWindow()
		if w.From != b.FwOp(k) || w.To != b.BwOp(k) {
			t.Errorf("act %d window %v, want F->B (%d->%d)", id, w, b.FwOp(k), b.BwOp(k))
		}
		if w.Gap <= 0 {
			t.Errorf("act %d has zero live interval", id)
		}
		// Microbatch 0 on stage 0 waits for the whole pipeline round
		// trip: its gap must dominate a single compute slot.
		if w.Gap < 4*p.SlotDuration[0] {
			t.Errorf("act %d gap %v suspiciously small", id, w.Gap)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no block activations checked")
	}
}

func TestLastMicrobatchHasShortWindow(t *testing.T) {
	b := buildTiny(t)
	p, err := Collect(hw.DGX1(), b, nil)
	if err != nil {
		t.Fatal(err)
	}
	// On the LAST stage the backward follows the forward immediately:
	// live intervals there are the shortest (these are the tensors
	// only D2D swap could help — Sec. III-A).
	last := pipeline.SlotKey{Stage: 3, Microbatch: 0}
	first := pipeline.SlotKey{Stage: 0, Microbatch: 0}
	gapOf := func(k pipeline.SlotKey) int64 {
		for _, id := range b.Acts(k) {
			if _, ok := b.RecomputeFLOPs(id); ok {
				return int64(p.Stats[id].LongestWindow().Gap)
			}
		}
		t.Fatal("no block act")
		return 0
	}
	gLast := gapOf(last)
	gFirst := gapOf(first)
	if gLast >= gFirst {
		t.Errorf("last-stage gap %d must be shorter than stage-0 gap %d", gLast, gFirst)
	}
}

func TestPersistentWindows(t *testing.T) {
	b := buildTiny(t)
	p, err := Collect(hw.DGX1(), b, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Optimizer-state tensors are used once per minibatch: their
	// stats must show a leading window From == -1 (idle from start)
	// and a wide OPT->OPT window.
	var found bool
	for _, id := range b.Persistent[0] {
		tn := b.Graph.Tensors.Get(id)
		if tn.Class != tensor.OptimizerState {
			continue
		}
		st := p.Stats[id]
		if len(st.Windows) != 2 { // two minibatches = two OPT uses
			t.Fatalf("opt tensor %s has %d windows, want 2", tn.Name, len(st.Windows))
		}
		if st.Windows[0].From != -1 {
			t.Errorf("first window must start at -1, got %d", st.Windows[0].From)
		}
		if st.Windows[1].Gap <= 0 {
			t.Error("OPT->OPT window must be positive")
		}
		found = true
		break
	}
	if !found {
		t.Fatal("no optimizer tensor found")
	}
}

func TestWindowBetween(t *testing.T) {
	b := buildTiny(t)
	p, err := Collect(hw.DGX1(), b, nil)
	if err != nil {
		t.Fatal(err)
	}
	k := pipeline.SlotKey{Stage: 0, Microbatch: 1}
	var act tensor.ID = -1
	for _, id := range b.Acts(k) {
		if _, ok := b.RecomputeFLOPs(id); ok {
			act = id
			break
		}
	}
	// The recomputable activation idles from its forward use until
	// its backward op reads it again.
	for _, w := range p.Stats[act].Windows {
		if w.To == b.BwOp(k) {
			return
		}
	}
	t.Errorf("no window of act %d ends at its backward op: %v", act, p.Stats[act].Windows)
}

func TestCollectRejectsBadMapping(t *testing.T) {
	b := buildTiny(t)
	if _, err := Collect(hw.DGX1(), b, []hw.DeviceID{0}); err == nil {
		t.Error("short mapping accepted")
	}
}

func TestLongestWindowEmpty(t *testing.T) {
	st := TensorStat{}
	if w := st.LongestWindow(); w.From != -1 || w.To != -1 {
		t.Errorf("empty stat window = %+v", w)
	}
}
