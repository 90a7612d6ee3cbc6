package experiments

import (
	"fmt"
	"io"
	"strings"

	"mpress/internal/exec"
	"mpress/internal/hw"
	"mpress/internal/model"
	"mpress/internal/pipeline"
	"mpress/internal/tensor"
	"mpress/internal/trace"
	"mpress/internal/units"
)

func init() {
	register(Experiment{
		Name:  "fig1",
		Title: "Figure 1: inter-operator training workflow and per-device memory evolution",
		Run:   Figure1,
	})
}

// Figure1 regenerates the paper's Fig. 1 from live runs: the pipeline
// timing diagram (black/white boxes as digits/letters) and the
// per-device memory curves underneath, for PipeDream's asynchronous
// and DAPPLE's synchronous scheduling — three workers, minibatches of
// six microbatches, exactly the paper's setup.
func Figure1(w io.Writer) error {
	cfg := model.Config{
		Name: "Fig1", Arch: model.GPT,
		Layers: 6, Hidden: 1024, Heads: 16, SeqLen: 256, Vocab: 8192,
		DType: tensor.FP16,
	}
	prec := model.MixedAdam()
	for _, kind := range []pipeline.ScheduleKind{pipeline.PipeDream, pipeline.DAPPLE} {
		part, err := pipeline.PartitionModel(cfg, 3, pipeline.ComputeBalanced, kind, prec, 2, 6)
		if err != nil {
			return err
		}
		b, err := pipeline.Build(pipeline.BuildConfig{
			Model: cfg, Prec: prec, Part: part, Kind: kind,
			MicrobatchSize: 2, Microbatches: 6, Minibatches: 2,
		})
		if err != nil {
			return err
		}
		opts := exec.Options{
			Topo: hw.DGX1(), Built: b,
			Mapping: exec.IdentityMapping(3), SampleMemory: true,
		}
		res, err := exec.Run(opts)
		if err != nil {
			return err
		}
		if res.OOM != nil {
			return fmt.Errorf("fig1: unexpected OOM: %v", res.OOM)
		}
		fmt.Fprintf(w, "--- %v (async=%v), 3 workers, 2 minibatches x 6 microbatches ---\n",
			kind, kind.Async())
		trace.Collect(&opts, res).WriteGantt(w)
		fmt.Fprintln(w, "\nper-device memory over time (above the runtime reserve):")
		writeMemoryCurves(w, res, 3)
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "paper: worker 1's curve dominates and decreases toward worker 3;")
	fmt.Fprintln(w, "PipeDream overlaps minibatches, DAPPLE flushes between them")
	return nil
}

// curveGlyphs maps a 0..1 fill level to an ASCII bar.
var curveGlyphs = []byte(" .:-=+*#@")

// writeMemoryCurves renders each GPU's sampled memory as a row of
// intensity glyphs over time — the Fig. 1 bottom curves.
func writeMemoryCurves(w io.Writer, res *exec.Result, gpus int) {
	const width = 100
	if len(res.MemorySamples) == 0 || res.Duration <= 0 {
		fmt.Fprintln(w, "(no samples)")
		return
	}
	// Peak across all GPUs sets the common scale.
	var peak units.Bytes
	for _, s := range res.MemorySamples {
		for g := 0; g < gpus; g++ {
			if v := s.InUse[g] - pipeline.RuntimeReserve; v > peak {
				peak = v
			}
		}
	}
	if peak <= 0 {
		peak = 1
	}
	for g := 0; g < gpus; g++ {
		cells := make([]units.Bytes, width)
		for _, s := range res.MemorySamples {
			x := int(float64(s.At) / float64(res.Duration) * float64(width))
			if x >= width {
				x = width - 1
			}
			v := s.InUse[g] - pipeline.RuntimeReserve
			if v > cells[x] {
				cells[x] = v
			}
		}
		// Carry values forward through unsampled columns so the curve
		// reads as residency, not as isolated events.
		var last units.Bytes
		row := make([]byte, width)
		for x := 0; x < width; x++ {
			if cells[x] > 0 {
				last = cells[x]
			}
			level := int(float64(last) / float64(peak) * float64(len(curveGlyphs)-1))
			row[x] = curveGlyphs[level]
		}
		var rowPeak units.Bytes
		for _, s := range res.MemorySamples {
			if v := s.InUse[g] - pipeline.RuntimeReserve; v > rowPeak {
				rowPeak = v
			}
		}
		fmt.Fprintf(w, "worker%d |%s| peak %s\n", g+1, strings.TrimRight(string(row), " "), rowPeak)
	}
}
