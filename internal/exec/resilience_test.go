package exec_test

import (
	"mpress/internal/exec"
	"reflect"
	"testing"

	"mpress/internal/ckpt"
	"mpress/internal/hw"
	"mpress/internal/model"
	"mpress/internal/pipeline"
	"mpress/internal/units"
)

func buildMini(t *testing.T, minibatches int) *pipeline.Built {
	t.Helper()
	cfg := tinyModel()
	prec := model.MixedAdam()
	part, err := pipeline.PartitionModel(cfg, 4, pipeline.ComputeBalanced, pipeline.DAPPLE, prec, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pipeline.Build(pipeline.BuildConfig{
		Model: cfg, Prec: prec, Part: part, Kind: pipeline.DAPPLE,
		MicrobatchSize: 2, Microbatches: 4, Minibatches: minibatches,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCheckpointAtEveryBoundary(t *testing.T) {
	const M = 6
	b := buildMini(t, M)
	topo := hw.DGX1()
	base, err := exec.Run(exec.Options{Topo: topo, Built: b, Mapping: exec.IdentityMapping(4)})
	if err != nil {
		t.Fatal(err)
	}

	// An interval shorter than any minibatch snapshots at every
	// boundary: M-1 of them (the final state is never snapshotted).
	r, err := exec.Run(exec.Options{
		Topo: topo, Built: b, Mapping: exec.IdentityMapping(4),
		Checkpoint: &exec.CheckpointSpec{Every: units.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.OOM != nil {
		t.Fatalf("OOM: %v", r.OOM)
	}
	if len(r.Checkpoints) != M-1 {
		t.Fatalf("got %d checkpoints, want %d", len(r.Checkpoints), M-1)
	}
	total := ckpt.Total(ckpt.StageBytes(b))
	for i, rec := range r.Checkpoints {
		if rec.Minibatch != i {
			t.Errorf("checkpoint %d covers minibatch %d", i, rec.Minibatch)
		}
		if rec.Bytes != total {
			t.Errorf("checkpoint %d payload %v, want %v", i, rec.Bytes, total)
		}
		if rec.End <= rec.Start {
			t.Errorf("checkpoint %d has empty span", i)
		}
		if i > 0 && rec.Start < r.Checkpoints[i-1].End {
			t.Errorf("checkpoints %d and %d overlap", i-1, i)
		}
	}
	if r.CheckpointBytes != units.Bytes(M-1)*total {
		t.Errorf("CheckpointBytes = %v", r.CheckpointBytes)
	}
	if r.Duration <= base.Duration {
		t.Errorf("checkpointing run (%v) not slower than baseline (%v)", r.Duration, base.Duration)
	}

	// A huge interval means the first boundary is always too early.
	quiet, err := exec.Run(exec.Options{
		Topo: topo, Built: b, Mapping: exec.IdentityMapping(4),
		Checkpoint: &exec.CheckpointSpec{Every: 3600 * units.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(quiet.Checkpoints) != 0 {
		t.Errorf("hour-interval run took %d checkpoints", len(quiet.Checkpoints))
	}
	if quiet.Duration != base.Duration {
		t.Errorf("idle checkpointing changed duration: %v vs %v", quiet.Duration, base.Duration)
	}

	if _, err := exec.Run(exec.Options{
		Topo: topo, Built: b, Mapping: exec.IdentityMapping(4),
		Checkpoint: &exec.CheckpointSpec{},
	}); err == nil {
		t.Error("zero checkpoint interval must be rejected")
	}
}

func TestFailureStopsRun(t *testing.T) {
	b := buildMini(t, 4)
	topo := hw.DGX1()
	base, err := exec.Run(exec.Options{Topo: topo, Built: b, Mapping: exec.IdentityMapping(4)})
	if err != nil {
		t.Fatal(err)
	}

	failAt := base.Duration / 2
	r, err := exec.Run(exec.Options{
		Topo: topo, Built: b, Mapping: exec.IdentityMapping(4),
		Checkpoint: &exec.CheckpointSpec{Every: units.Microsecond},
		FailAt:     failAt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Failure == nil || r.Failure.At != failAt {
		t.Fatalf("Failure = %+v, want fault at %v", r.Failure, failAt)
	}
	if r.Duration != failAt {
		t.Errorf("Duration = %v, want %v", r.Duration, failAt)
	}
	if r.SamplesPerSec != 0 || r.TFLOPS != 0 {
		t.Error("failed runs must not report throughput")
	}
	for _, rec := range r.Checkpoints {
		if rec.End > failAt {
			t.Errorf("checkpoint completed at %v, after the fault", rec.End)
		}
	}

	// A fault scheduled after the run drains must not fire — or
	// stretch the reported duration.
	late, err := exec.Run(exec.Options{
		Topo: topo, Built: b, Mapping: exec.IdentityMapping(4),
		FailAt: base.Duration * 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if late.Failure != nil {
		t.Error("late fault fired on a drained run")
	}
	if late.Duration != base.Duration {
		t.Errorf("late fault stretched duration to %v, want %v", late.Duration, base.Duration)
	}
}

func TestResilienceDeterministic(t *testing.T) {
	b := buildMini(t, 4)
	opts := exec.Options{
		Topo: hw.DGX1(), Built: b, Mapping: exec.IdentityMapping(4),
		Checkpoint: &exec.CheckpointSpec{Every: units.Millisecond},
		FailAt:     200 * units.Millisecond,
	}
	a, err := exec.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := exec.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Checkpoints, c.Checkpoints) || a.Duration != c.Duration {
		t.Error("identical resilient runs diverged")
	}
}
