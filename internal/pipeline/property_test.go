package pipeline

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"mpress/internal/graph"
	"mpress/internal/model"
	"mpress/internal/tensor"
	"mpress/internal/units"
)

// randomModel builds a valid transformer config from fuzz inputs.
func randomModel(layers, hidden, seq uint8) model.Config {
	l := 2 + int(layers)%30
	h := 64 * (1 + int(hidden)%32)
	s := 64 * (1 + int(seq)%16)
	return model.Config{
		Name: "Fuzz", Arch: model.GPT,
		Layers: l, Hidden: h, Heads: h / 64, SeqLen: s, Vocab: 1000 + int(hidden)*7,
		DType: tensor.FP16,
	}
}

// TestPartitionCoversAllBlocksProperty: any partition of any valid
// model covers every block exactly once in order.
func TestPartitionCoversAllBlocksProperty(t *testing.T) {
	f := func(layers, hidden, seq, stagesIn uint8) bool {
		cfg := randomModel(layers, hidden, seq)
		stages := 1 + int(stagesIn)%8
		if stages > cfg.Layers {
			stages = cfg.Layers
		}
		for _, strat := range []Strategy{ComputeBalanced, MemoryBalanced} {
			p, err := PartitionModel(cfg, stages, strat, DAPPLE, model.MixedAdam(), 2, 8)
			if err != nil {
				return false
			}
			if p.Validate(cfg) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestDemandMonotonicInMicrobatch: larger microbatches never lower any
// stage's demand.
func TestDemandMonotonicInMicrobatch(t *testing.T) {
	cfg := randomModel(12, 8, 4)
	prec := model.MixedAdam()
	p, err := PartitionModel(cfg, 4, ComputeBalanced, DAPPLE, prec, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	prev := Demand(cfg, prec, p, DAPPLE, 1, 8)
	for mb := 2; mb <= 16; mb *= 2 {
		cur := Demand(cfg, prec, p, DAPPLE, mb, 8)
		for s := range cur {
			if cur[s] < prev[s] {
				t.Fatalf("demand decreased at mb=%d stage %d: %v -> %v", mb, s, prev[s], cur[s])
			}
		}
		prev = cur
	}
}

// TestDemandMonotonicInModelSize: a strictly larger model demands at
// least as much on its peak stage.
func TestDemandMonotonicInModelSize(t *testing.T) {
	prev := units.Bytes(0)
	for _, size := range model.BertVariants.Names() {
		cfg, err := model.BertVariants.Lookup(size)
		if err != nil {
			t.Fatal(err)
		}
		p, err := PartitionModel(cfg, 8, ComputeBalanced, PipeDream, model.FP32Adam(), 12, 8)
		if err != nil {
			t.Fatal(err)
		}
		var max units.Bytes
		for _, d := range Demand(cfg, model.FP32Adam(), p, PipeDream, 12, 8) {
			if d > max {
				max = d
			}
		}
		if max < prev {
			t.Fatalf("%s peak %v below the previous size's %v", size, max, prev)
		}
		prev = max
	}
}

// TestGPipeDemandDominates: GPipe retains every microbatch, so its
// stage demand must be >= DAPPLE's everywhere.
func TestGPipeDemandDominates(t *testing.T) {
	cfg := randomModel(16, 16, 4)
	prec := model.MixedAdam()
	p, err := PartitionModel(cfg, 4, ComputeBalanced, DAPPLE, prec, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	da := Demand(cfg, prec, p, DAPPLE, 2, 12)
	gp := Demand(cfg, prec, p, GPipe, 2, 12)
	for s := range da {
		if gp[s] < da[s] {
			t.Fatalf("stage %d: GPipe %v < DAPPLE %v", s, gp[s], da[s])
		}
	}
}

// TestPipeDreamDemandDominatesDAPPLE: weight stashing only adds memory.
func TestPipeDreamDemandDominatesDAPPLE(t *testing.T) {
	cfg := randomModel(16, 16, 4)
	prec := model.MixedAdam()
	p, err := PartitionModel(cfg, 4, ComputeBalanced, DAPPLE, prec, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	da := Demand(cfg, prec, p, DAPPLE, 2, 8)
	pd := Demand(cfg, prec, p, PipeDream, 2, 8)
	for s := range da {
		if pd[s] < da[s] {
			t.Fatalf("stage %d: PipeDream %v < DAPPLE %v", s, pd[s], da[s])
		}
	}
}

// TestBuildDeterministic: identical configs produce identical graphs
// (the planner's positional-ID contract).
func TestBuildDeterministic(t *testing.T) {
	cfg := randomModel(10, 10, 3)
	prec := model.MixedAdam()
	p, err := PartitionModel(cfg, 4, ComputeBalanced, PipeDream, prec, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	bc := BuildConfig{Model: cfg, Prec: prec, Part: p, Kind: PipeDream,
		MicrobatchSize: 2, Microbatches: 4, Minibatches: 2}
	a, err := Build(bc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(bc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.Len() != b.Graph.Len() || a.Graph.Tensors.Len() != b.Graph.Tensors.Len() {
		t.Fatal("graph shapes differ across identical builds")
	}
	for i := 0; i < a.Graph.Len(); i++ {
		oa, ob := a.Graph.Ops()[i], b.Graph.Ops()[i]
		if oa.Name != ob.Name || oa.Kind != ob.Kind || oa.Stage != ob.Stage {
			t.Fatalf("op %d differs: %+v vs %+v", i, oa, ob)
		}
	}
	for i := 0; i < a.Graph.Tensors.Len(); i++ {
		ta := a.Graph.Tensors.Get(tensor.ID(i))
		tb := b.Graph.Tensors.Get(tensor.ID(i))
		if ta.Name != tb.Name || ta.Size != tb.Size || ta.Stage != tb.Stage {
			t.Fatalf("tensor %d differs: %+v vs %+v", i, ta, tb)
		}
	}
}

// TestStageOrderRandomShapes: for random pipeline shapes, every stage
// order is a complete, duplicate-free schedule.
func TestStageOrderRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		S := 1 + rng.Intn(8)
		M := 1 + rng.Intn(12)
		Q := 1 + rng.Intn(3)
		kind := []ScheduleKind{PipeDream, DAPPLE, GPipe}[rng.Intn(3)]
		for s := 0; s < S; s++ {
			slots := kind.StageOrder(s, S, M, Q)
			f, b, u := map[int]bool{}, map[int]bool{}, 0
			for _, sl := range slots {
				switch sl.Pass {
				case FwdPass:
					if f[sl.Microbatch] {
						t.Fatalf("%v S=%d M=%d Q=%d stage %d: dup F%d", kind, S, M, Q, s, sl.Microbatch)
					}
					f[sl.Microbatch] = true
				case BwdPass:
					if !f[sl.Microbatch] || b[sl.Microbatch] {
						t.Fatalf("%v S=%d M=%d Q=%d stage %d: bad B%d", kind, S, M, Q, s, sl.Microbatch)
					}
					b[sl.Microbatch] = true
				case OptPass:
					u++
				}
			}
			if len(f) != M*Q || len(b) != M*Q || u != Q {
				t.Fatalf("%v S=%d M=%d Q=%d stage %d: F=%d B=%d U=%d",
					kind, S, M, Q, s, len(f), len(b), u)
			}
		}
	}
}

// TestProfileConservation: per-stage params sum to the model total.
func TestProfileConservation(t *testing.T) {
	f := func(layers, hidden, seq uint8) bool {
		cfg := randomModel(layers, hidden, seq)
		stages := 4
		if stages > cfg.Layers {
			stages = cfg.Layers
		}
		p, err := PartitionModel(cfg, stages, ComputeBalanced, DAPPLE, model.MixedAdam(), 2, 8)
		if err != nil {
			return false
		}
		var params int64
		for _, sp := range Profile(cfg, p, 2) {
			params += sp.Params
		}
		return params == cfg.TotalParams()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestMultiUseTensorsChained: in every lowering of the grid below, each
// non-persistent tensor with more than one consumer has all its
// consumers on one stage's schedule chain, linked by PrevOnStage. The
// chain's deps then order those uses under every plan's overlay as in
// the base, so the last use — the executor's free point — is the same
// op in any topological order; exec reads free points off the frozen
// base on that ground (TestSpliceDifferential checks the result
// against a full re-derivation).
func TestMultiUseTensorsChained(t *testing.T) {
	var models []model.Config
	for _, size := range model.BertVariants.Names()[:2] {
		models = append(models, mustBert(t, size))
	}
	for _, size := range model.GPTVariants.Names()[:2] {
		models = append(models, mustGPT(t, size))
	}
	prec := model.MixedAdam()
	built := 0
	for _, cfg := range models {
		for _, kind := range []ScheduleKind{PipeDream, DAPPLE, GPipe} {
			for _, stages := range []int{1, 2, 4, 8, 16} {
				micro := max(stages, 2)
				for _, strat := range []Strategy{ComputeBalanced, MemoryBalanced} {
					part, err := PartitionModel(cfg, stages, strat, kind, prec, 1, micro)
					if err != nil {
						t.Fatal(err)
					}
					for _, tp := range []int{0, 2} {
						for mini := 1; mini <= 3; mini++ {
							b, err := Build(BuildConfig{
								Model: cfg, Prec: prec, Part: part, Kind: kind,
								MicrobatchSize: 1, Microbatches: micro, Minibatches: mini, TP: tp,
							})
							if err != nil {
								t.Fatal(err)
							}
							if err := chainedUses(b); err != nil {
								t.Fatalf("%s %v S=%d %v tp=%d mini=%d: %v", cfg.Name, kind, stages, strat, tp, mini, err)
							}
							built++
						}
					}
				}
			}
		}
	}
	if built != 720 {
		t.Fatalf("checked %d lowerings, want 720", built)
	}
}

// chainedUses checks one lowering for TestMultiUseTensorsChained.
func chainedUses(b *Built) error {
	g := b.Graph
	// head[op] is the first op of op's schedule chain, -1 for an op on
	// no chain. Every chain has at least two ops (a forward and a
	// backward), so an op is chained iff it has, or is, a PrevOnStage.
	head := make([]graph.OpID, g.Len())
	for i := range head {
		head[i] = -1
	}
	for _, op := range g.Ops() {
		if b.PrevOnStage(op.ID) < 0 {
			continue
		}
		h := op.ID
		for p := b.PrevOnStage(h); p >= 0; p = b.PrevOnStage(h) {
			h = p
		}
		head[op.ID], head[h] = h, h
	}
	first := make([]graph.OpID, g.Tensors.Len())
	for i := range first {
		first[i] = -1
	}
	for _, op := range g.Ops() {
		for _, t := range op.Inputs {
			f := first[t]
			switch {
			case b.Persists(t):
			case f < 0:
				first[t] = op.ID
			case head[f] < 0 || head[f] != head[op.ID]:
				return fmt.Errorf("tensor %s: consumers %s and %s are not on one stage's chain",
					g.Tensors.Get(t).Name, g.Op(f).Name, op.Name)
			}
		}
	}
	return nil
}

// TestLowerSizeExact: Build's presizing counts exactly the tensors and
// ops it lowers, for every schedule, stage count, TP degree and
// minibatch count, with and without an embedding or head on a stage.
func TestLowerSizeExact(t *testing.T) {
	prec := model.MixedAdam()
	for _, cfg := range []model.Config{mustBert(t, model.BertVariants.Names()[0]), mustGPT(t, model.GPTVariants.Names()[0])} {
		for _, kind := range []ScheduleKind{PipeDream, DAPPLE, GPipe} {
			for _, stages := range []int{1, 2, 5, 8} {
				part, err := PartitionModel(cfg, stages, ComputeBalanced, kind, prec, 1, 4)
				if err != nil {
					t.Fatal(err)
				}
				for _, tp := range []int{0, 2} {
					for mini := 1; mini <= 3; mini++ {
						bc := BuildConfig{Model: cfg, Prec: prec, Part: part, Kind: kind,
							MicrobatchSize: 1, Microbatches: 4, Minibatches: mini, TP: tp}
						b, err := Build(bc)
						if err != nil {
							t.Fatal(err)
						}
						tensors, ops := lowerSize(bc)
						if g := b.Graph; g.Tensors.Len() != tensors || g.Len() != ops {
							t.Errorf("%s %v S=%d tp=%d mini=%d: lowered %d tensors and %d ops, presized %d and %d",
								cfg.Name, kind, stages, tp, mini, g.Tensors.Len(), g.Len(), tensors, ops)
						}
					}
				}
			}
		}
	}
}
