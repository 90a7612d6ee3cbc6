package exec_test

import (
	"context"
	"errors"
	"mpress/internal/exec"
	"testing"

	"mpress/internal/hw"
	"mpress/internal/model"
	"mpress/internal/pipeline"
)

// TestRunHonorsCancelledContext: a cancelled context stops the event
// loop at the kernel's first poll, on a job that runs more events than
// the polling stride.
func TestRunHonorsCancelledContext(t *testing.T) {
	cfg := tinyModel()
	prec := model.MixedAdam()
	part, err := pipeline.PartitionModel(cfg, 4, pipeline.ComputeBalanced, pipeline.DAPPLE, prec, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pipeline.Build(pipeline.BuildConfig{
		Model: cfg, Prec: prec, Part: part, Kind: pipeline.DAPPLE,
		MicrobatchSize: 2, Microbatches: 16, Minibatches: 48,
	})
	if err != nil {
		t.Fatal(err)
	}
	o := exec.Options{Topo: hw.DGX1(), Built: b, Mapping: exec.IdentityMapping(4)}
	full, err := exec.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	const stride = 1024 // the kernel's default polling stride
	if full.Events <= stride {
		t.Fatalf("job runs %d events, want more than the %d-event polling stride", full.Events, stride)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o.Ctx = ctx
	if _, err := exec.Run(o); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestRunIgnoresLiveContext(t *testing.T) {
	b := buildTiny(t, pipeline.DAPPLE, 4)
	r, err := exec.Run(exec.Options{Topo: hw.DGX1(), Built: b, Mapping: exec.IdentityMapping(4), Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	if r.OOM != nil || r.Duration <= 0 {
		t.Errorf("degenerate result under a live context: %+v", r)
	}
}

// TestRunCancelledBeforeFirstEvent: the kernel polls the context before
// its first event, so a run cancelled before it starts stops there, even
// one shorter than the polling stride, which no later poll would reach.
func TestRunCancelledBeforeFirstEvent(t *testing.T) {
	o := exec.Options{Topo: hw.DGX1(), Built: buildTiny(t, pipeline.DAPPLE, 4), Mapping: exec.IdentityMapping(4)}
	full, err := exec.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if full.Events >= 1024 {
		t.Fatalf("job runs %d events, want fewer than the 1024-event polling stride", full.Events)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o.Ctx = ctx
	if _, err := exec.Run(o); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
