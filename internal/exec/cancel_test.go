package exec

import (
	"context"
	"errors"
	"testing"

	"mpress/internal/hw"
	"mpress/internal/model"
	"mpress/internal/pipeline"
)

// TestRunHonorsCancelledContext: a cancelled context stops the event
// loop at the kernel's first poll. The job runs more events than the
// polling stride, so only the mid-run poll can catch the cancellation.
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
	o := Options{Topo: hw.DGX1(), Built: b, Mapping: IdentityMapping(4)}
	full, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	const stride = 8192 // the kernel's default polling stride
	if full.Events <= stride {
		t.Fatalf("job runs %d events, want more than the %d-event polling stride", full.Events, stride)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o.Ctx = ctx
	if _, err := Run(o); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestRunIgnoresLiveContext(t *testing.T) {
	b := buildTiny(t, pipeline.DAPPLE, 4)
	r, err := Run(Options{Topo: hw.DGX1(), Built: b, Mapping: IdentityMapping(4), Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	if r.OOM != nil || r.Duration <= 0 {
		t.Errorf("degenerate result under a live context: %+v", r)
	}
}
