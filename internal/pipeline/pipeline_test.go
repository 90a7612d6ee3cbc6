package pipeline

import (
	"testing"

	"mpress/internal/model"
	"mpress/internal/units"
)

func mustBert(t *testing.T, size string) model.Config {
	t.Helper()
	cfg, err := model.BertVariants.Lookup(size)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func mustGPT(t *testing.T, size string) model.Config {
	t.Helper()
	cfg, err := model.GPTVariants.Lookup(size)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func mustPartition(t *testing.T, cfg model.Config, stages int) Partition {
	t.Helper()
	p, err := PartitionModel(cfg, stages, ComputeBalanced, DAPPLE, model.MixedAdam(), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestComputeBalancedCoversModel(t *testing.T) {
	for _, size := range model.BertVariants.Names() {
		cfg := mustBert(t, size)
		p := mustPartition(t, cfg, 8)
		if err := p.Validate(cfg); err != nil {
			t.Errorf("%s: %v", size, err)
		}
		// The non-head stages must be even to within one block; the
		// last stage may be smaller because the head displaces
		// blocks (worth ~2.3 blocks of compute for small Bert).
		min, max := cfg.Layers, 0
		for _, s := range p.Stages[:len(p.Stages)-1] {
			if s.NumBlocks < min {
				min = s.NumBlocks
			}
			if s.NumBlocks > max {
				max = s.NumBlocks
			}
		}
		if max-min > 1 {
			t.Errorf("%s: non-head block counts range %d..%d, want even", size, min, max)
		}
		if last := p.Stages[len(p.Stages)-1].NumBlocks; last > max {
			t.Errorf("%s: head stage has %d blocks, more than others' %d", size, last, max)
		}
	}
}

func TestComputeBalancedHeadDisplacesBlocks(t *testing.T) {
	// GPT's output head costs about one block of compute, so the last
	// stage should get fewer blocks than the average.
	cfg := mustGPT(t, "10.3B") // 50 blocks over 8 stages
	p := mustPartition(t, cfg, 8)
	last := p.Stages[7].NumBlocks
	avg := cfg.Layers / 8
	if last > avg {
		t.Errorf("last stage has %d blocks, want < average %d (head displaces compute)", last, avg)
	}
}

func TestPartitionValidateRejects(t *testing.T) {
	cfg := mustBert(t, "0.35B")
	good := mustPartition(t, cfg, 8)

	bad := good
	bad.Stages = nil
	if bad.Validate(cfg) == nil {
		t.Error("empty partition accepted")
	}

	bad = mustPartition(t, cfg, 8)
	bad.Stages[3].NumBlocks++
	if bad.Validate(cfg) == nil {
		t.Error("overlapping partition accepted")
	}

	bad = mustPartition(t, cfg, 8)
	bad.Stages[2].HasEmbedding = true
	if bad.Validate(cfg) == nil {
		t.Error("misplaced embedding accepted")
	}

	if _, err := PartitionModel(cfg, 0, ComputeBalanced, DAPPLE, model.MixedAdam(), 2, 8); err == nil {
		t.Error("zero stages accepted")
	}
	if _, err := PartitionModel(cfg, 999, ComputeBalanced, DAPPLE, model.MixedAdam(), 2, 8); err == nil {
		t.Error("more stages than layers accepted")
	}
}

func TestInFlightCounts(t *testing.T) {
	// Paper Fig. 1/Sec. II-C: under 1F1B, stage s of S holds S-s
	// activation copies; GPipe holds all M.
	for s := 0; s < 8; s++ {
		if got := PipeDream.InFlight(s, 8, 16); got != 8-s {
			t.Errorf("PipeDream stage %d in-flight = %d, want %d", s, got, 8-s)
		}
		if got := DAPPLE.InFlight(s, 8, 4); got > 4 {
			t.Errorf("DAPPLE in-flight exceeds microbatch count: %d", got)
		}
		if got := GPipe.InFlight(s, 8, 16); got != 16 {
			t.Errorf("GPipe in-flight = %d, want 16", got)
		}
	}
}

func TestWeightVersions(t *testing.T) {
	if PipeDream.WeightVersions(0, 8) != 8 || PipeDream.WeightVersions(7, 8) != 1 {
		t.Error("PipeDream stash versions wrong")
	}
	if DAPPLE.WeightVersions(0, 8) != 1 || GPipe.WeightVersions(0, 8) != 1 {
		t.Error("sync schedules must not stash")
	}
}

func TestStageOrder1F1B(t *testing.T) {
	// DAPPLE stage 0 of 4 with 6 microbatches: F0 F1 F2 F3 B0 F4 B1
	// F5 B2 B3 B4 B5 U0.
	slots := DAPPLE.StageOrder(0, 4, 6, 1)
	want := []Slot{
		{FwdPass, 0}, {FwdPass, 1}, {FwdPass, 2}, {FwdPass, 3},
		{BwdPass, 0}, {FwdPass, 4}, {BwdPass, 1}, {FwdPass, 5},
		{BwdPass, 2}, {BwdPass, 3}, {BwdPass, 4}, {BwdPass, 5},
		{OptPass, 0},
	}
	if len(slots) != len(want) {
		t.Fatalf("slots = %v", slots)
	}
	for i := range want {
		if slots[i] != want[i] {
			t.Fatalf("slot[%d] = %v, want %v (full: %v)", i, slots[i], want[i], slots)
		}
	}
}

func TestStageOrderLastStageAlternates(t *testing.T) {
	// The last stage starts its backward immediately after each
	// forward (paper Fig. 1: worker 3).
	slots := DAPPLE.StageOrder(3, 4, 4, 1)
	want := []Slot{
		{FwdPass, 0}, {BwdPass, 0}, {FwdPass, 1}, {BwdPass, 1},
		{FwdPass, 2}, {BwdPass, 2}, {FwdPass, 3}, {BwdPass, 3},
		{OptPass, 0},
	}
	for i := range want {
		if slots[i] != want[i] {
			t.Fatalf("slots = %v, want %v", slots, want)
		}
	}
}

func TestStageOrderPipeDreamContinuous(t *testing.T) {
	// PipeDream does not flush: the second minibatch's forwards
	// interleave with the first's backwards (Fig. 1a). With 2
	// minibatches × 3 microbatches on stage 0 of 3: warmup F0 F1 F2,
	// then B0 F3 B1 F4 B2 U0 F5 B3 B4 B5 U1.
	slots := PipeDream.StageOrder(0, 3, 3, 2)
	want := []Slot{
		{FwdPass, 0}, {FwdPass, 1}, {FwdPass, 2},
		{BwdPass, 0}, {FwdPass, 3}, {BwdPass, 1}, {FwdPass, 4},
		{BwdPass, 2}, {OptPass, 0}, {FwdPass, 5},
		{BwdPass, 3}, {BwdPass, 4}, {BwdPass, 5}, {OptPass, 1},
	}
	if len(slots) != len(want) {
		t.Fatalf("got %d slots %v, want %d", len(slots), slots, len(want))
	}
	for i := range want {
		if slots[i] != want[i] {
			t.Fatalf("slot[%d] = %v, want %v (full: %v)", i, slots[i], want[i], slots)
		}
	}
}

func TestStageOrderCoversEverySlotOnce(t *testing.T) {
	for _, kind := range []ScheduleKind{PipeDream, DAPPLE, GPipe} {
		for s := 0; s < 4; s++ {
			slots := kind.StageOrder(s, 4, 5, 3)
			seenF := map[int]bool{}
			seenB := map[int]bool{}
			opt := 0
			for _, sl := range slots {
				switch sl.Pass {
				case FwdPass:
					if seenF[sl.Microbatch] {
						t.Fatalf("%v: duplicate F%d", kind, sl.Microbatch)
					}
					seenF[sl.Microbatch] = true
				case BwdPass:
					if !seenF[sl.Microbatch] {
						t.Fatalf("%v: B%d before F%d", kind, sl.Microbatch, sl.Microbatch)
					}
					if seenB[sl.Microbatch] {
						t.Fatalf("%v: duplicate B%d", kind, sl.Microbatch)
					}
					seenB[sl.Microbatch] = true
				case OptPass:
					opt++
				}
			}
			if len(seenF) != 15 || len(seenB) != 15 || opt != 3 {
				t.Errorf("%v stage %d: F=%d B=%d U=%d, want 15/15/3",
					kind, s, len(seenF), len(seenB), opt)
			}
		}
	}
}

// TestDemandCrossovers verifies the OOM boundaries the paper reports
// (Fig. 7, Fig. 8, Table II) emerge from the demand model with the
// actual GPU capacities.
func TestDemandCrossovers(t *testing.T) {
	v100 := 32 * units.GiB
	maxDemand := func(cfg model.Config, kind ScheduleKind, prec model.Precision, mb, M int) units.Bytes {
		p, err := PartitionModel(cfg, 8, ComputeBalanced, kind, prec, mb, M)
		if err != nil {
			t.Fatal(err)
		}
		d := Demand(cfg, prec, p, kind, mb, M)
		var max units.Bytes
		for _, x := range d {
			if x > max {
				max = x
			}
		}
		return max
	}

	// PipeDream + Bert (fp32), microbatch 12: 0.35B trains, 0.64B OOMs.
	if got := maxDemand(mustBert(t, "0.35B"), PipeDream, model.FP32Adam(), 12, 8); got > v100 {
		t.Errorf("Bert-0.35B mb=12 max demand %v must fit in 32GiB", got)
	}
	if got := maxDemand(mustBert(t, "0.64B"), PipeDream, model.FP32Adam(), 12, 8); got <= v100 {
		t.Errorf("Bert-0.64B mb=12 max demand %v must exceed 32GiB", got)
	}
	// Microbatch 2: 1.67B trains (paper: up to 2B).
	if got := maxDemand(mustBert(t, "1.67B"), PipeDream, model.FP32Adam(), 2, 8); got > v100 {
		t.Errorf("Bert-1.67B mb=2 max demand %v must fit in 32GiB", got)
	}
	if got := maxDemand(mustBert(t, "1.67B"), PipeDream, model.FP32Adam(), 12, 8); got <= v100 {
		t.Errorf("Bert-1.67B mb=12 max demand %v must exceed 32GiB", got)
	}

	// DAPPLE + GPT (fp16), microbatch 2: 5.3B trains, 10.3B OOMs.
	if got := maxDemand(mustGPT(t, "5.3B"), DAPPLE, model.MixedAdam(), 2, 8); got > v100 {
		t.Errorf("GPT-5.3B mb=2 max demand %v must fit in 32GiB", got)
	}
	if got := maxDemand(mustGPT(t, "10.3B"), DAPPLE, model.MixedAdam(), 2, 8); got <= v100 {
		t.Errorf("GPT-10.3B mb=2 max demand %v must exceed 32GiB", got)
	}
}

// TestDemandImbalance reproduces Fig. 2's shape: monotonically
// decreasing demand with large most/least ratio.
func TestDemandImbalance(t *testing.T) {
	cfg := mustBert(t, "1.67B")
	p, err := PartitionModel(cfg, 8, ComputeBalanced, PipeDream, model.FP32Adam(), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	d := Demand(cfg, model.FP32Adam(), p, PipeDream, 2, 8)
	for i := 1; i < len(d); i++ {
		if d[i] > d[i-1] {
			t.Errorf("demand must not increase with stage index: stage %d %v > stage %d %v",
				i, d[i], i-1, d[i-1])
		}
	}
	// Remove the fixed reserve when computing the model-data ratio.
	ratio := float64(d[0]-RuntimeReserve) / float64(d[7]-RuntimeReserve)
	if ratio < 3 {
		t.Errorf("imbalance ratio = %.1f, want > 3 (paper reports up to 7.9×)", ratio)
	}
}

func TestMemoryBalancedReducesMax(t *testing.T) {
	cfg := mustBert(t, "1.67B")
	prec := model.FP32Adam()
	cb, _ := PartitionModel(cfg, 8, ComputeBalanced, PipeDream, prec, 2, 8)
	mb, err := PartitionModel(cfg, 8, MemoryBalanced, PipeDream, prec, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := mb.Validate(cfg); err != nil {
		t.Fatal(err)
	}
	maxOf := func(p Partition) units.Bytes {
		var max units.Bytes
		for _, d := range Demand(cfg, prec, p, PipeDream, 2, 8) {
			if d > max {
				max = d
			}
		}
		return max
	}
	if maxOf(mb) >= maxOf(cb) {
		t.Errorf("memory-balanced max %v must beat compute-balanced %v", maxOf(mb), maxOf(cb))
	}
	// And it must have moved blocks away from the compute-balanced
	// split (the throughput cost is measured end to end by the
	// partition-ablation experiment).
	moved := 0
	for i := range mb.Stages {
		if mb.Stages[i].NumBlocks != cb.Stages[i].NumBlocks {
			moved++
		}
	}
	if moved == 0 {
		t.Error("memory balancing left the compute-balanced split untouched")
	}
}

func TestSummarize(t *testing.T) {
	d := []units.Bytes{RuntimeReserve + 30, RuntimeReserve + 10, RuntimeReserve + 20}
	s := Summarize(d)
	if s.Total != 60 {
		t.Errorf("total = %d, want 60", s.Total)
	}
	if s.Max != RuntimeReserve+30 || s.Min != RuntimeReserve+10 {
		t.Errorf("max/min = %v/%v", s.Max, s.Min)
	}
	if z := Summarize(nil); z.Total != 0 {
		t.Error("empty summarize must be zero")
	}
}

func TestStrategyString(t *testing.T) {
	if ComputeBalanced.String() != "compute-balanced" || MemoryBalanced.String() != "memory-balanced" {
		t.Error("strategy names wrong")
	}
	if PipeDream.String() != "PipeDream" || DAPPLE.String() != "DAPPLE" || GPipe.String() != "GPipe" {
		t.Error("schedule names wrong")
	}
	if !PipeDream.Async() || DAPPLE.Async() {
		t.Error("async flags wrong")
	}
}
