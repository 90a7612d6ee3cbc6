package exec_test

import (
	"mpress/internal/exec"
	"testing"

	"mpress/internal/hw"
	"mpress/internal/model"
	"mpress/internal/pipeline"
	"mpress/internal/tensor"
	"mpress/internal/units"
)

// buildVirtual lowers the tiny model with more stages than GPUs.
func buildVirtual(t *testing.T, stages int) *pipeline.Built {
	t.Helper()
	cfg := model.Config{
		Name: "Tiny", Arch: model.GPT,
		Layers: 8, Hidden: 512, Heads: 8, SeqLen: 128, Vocab: 4096,
		DType: tensor.FP16,
	}
	prec := model.MixedAdam()
	part, err := pipeline.PartitionModel(cfg, stages, pipeline.ComputeBalanced, pipeline.DAPPLE, prec, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pipeline.Build(pipeline.BuildConfig{
		Model: cfg, Prec: prec, Part: part, Kind: pipeline.DAPPLE,
		MicrobatchSize: 2, Microbatches: 8, Minibatches: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// wraparound maps stage s to GPU s % gpus (virtual pipeline stages).
func wraparound(stages, gpus int) []hw.DeviceID {
	m := make([]hw.DeviceID, stages)
	for s := range m {
		m[s] = hw.DeviceID(s % gpus)
	}
	return m
}

func TestVirtualStagesRun(t *testing.T) {
	b := buildVirtual(t, 8) // 8 stages on 4 GPUs
	topo := hw.DGX1()
	r, err := exec.Run(exec.Options{
		Topo: topo, Built: b,
		Mapping:            wraparound(8, 4),
		AllowSharedDevices: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.OOM != nil {
		t.Fatal(r.OOM)
	}
	if r.TFLOPS <= 0 {
		t.Error("no throughput")
	}
	// Only the four used GPUs carry memory; each holds one reserve
	// even though it hosts two stages.
	for g := 0; g < 4; g++ {
		var persistent units.Bytes
		for _, s := range []int{g, g + 4} {
			for _, id := range b.Persistent[s] {
				persistent += b.Graph.Tensors.Get(id).Size
			}
		}
		want := persistent + pipeline.RuntimeReserve
		if got := r.GPUs[g].InUse; got != want {
			t.Errorf("gpu%d final in-use %v, want %v (one reserve, two stages)", g, got, want)
		}
	}
	for g := 4; g < 8; g++ {
		if r.GPUs[g].Peak != 0 {
			t.Errorf("unused gpu%d has peak %v", g, r.GPUs[g].Peak)
		}
	}
}

func TestSharedDevicesRejectedByDefault(t *testing.T) {
	b := buildVirtual(t, 8)
	if _, err := exec.Run(exec.Options{
		Topo: hw.DGX1(), Built: b, Mapping: wraparound(8, 4),
	}); err == nil {
		t.Error("duplicate mapping accepted without AllowSharedDevices")
	}
}

func TestVirtualStagesDeterministic(t *testing.T) {
	run := func() *exec.Result {
		b := buildVirtual(t, 8)
		r, err := exec.Run(exec.Options{
			Topo: hw.DGX1(), Built: b,
			Mapping:            wraparound(8, 4),
			AllowSharedDevices: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Duration != b.Duration {
		t.Errorf("virtual-stage runs differ: %v vs %v", a.Duration, b.Duration)
	}
}

// TestVirtualStagesLocalHandoff: co-located consecutive stages must
// not produce NVLink traffic for their boundary.
func TestVirtualStagesLocalHandoff(t *testing.T) {
	// Map stage pairs (0,1)(2,3)(4,5)(6,7) onto GPUs 0..3: every other
	// boundary is local.
	b := buildVirtual(t, 8)
	m := []hw.DeviceID{0, 0, 1, 1, 2, 2, 3, 3}
	r, err := exec.Run(exec.Options{Topo: hw.DGX1(), Built: b, Mapping: m, AllowSharedDevices: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.OOM != nil {
		t.Fatal(r.OOM)
	}
	spread := buildVirtual(t, 8)
	rs, err := exec.Run(exec.Options{Topo: hw.DGX1(), Built: spread, Mapping: exec.IdentityMapping(8)})
	if err != nil {
		t.Fatal(err)
	}
	if r.Fabric.NVLinkBytes >= rs.Fabric.NVLinkBytes {
		t.Errorf("paired mapping moved %v over NVLink, spread %v — local handoffs missing",
			r.Fabric.NVLinkBytes, rs.Fabric.NVLinkBytes)
	}
}
