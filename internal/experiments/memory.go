package experiments

import (
	"fmt"
	"io"

	"mpress"
	"mpress/internal/exec"
	"mpress/internal/hw"
	"mpress/internal/model"
	"mpress/internal/pipeline"
	"mpress/internal/units"
)

func init() {
	register(Experiment{
		Name:  "table1",
		Title: "Table I: GPU memory consumption by model-data class",
		Run:   TableI,
	})
	register(Experiment{
		Name:  "fig2",
		Title: "Figure 2: imbalanced per-device GPU memory consumption (Bert-1.67B)",
		Run:   Figure2,
	})
	register(Experiment{
		Name:  "table2",
		Title: "Table II: GPU memory demands of all model configurations",
		Run:   TableII,
	})
}

// classShares computes the share of memory demand contributed by
// activations, optimizer states, and params+gradients for one job.
func classShares(cfg model.Config, prec model.Precision, kind pipeline.ScheduleKind, mb, micro int) (act, opt, pg float64, err error) {
	part, err := pipeline.PartitionModel(cfg, 8, pipeline.ComputeBalanced, kind, prec, mb, micro)
	if err != nil {
		return 0, 0, 0, err
	}
	profiles := pipeline.Profile(cfg, part, mb)
	var actB, optB, pgB units.Bytes
	S := len(profiles)
	for s, sp := range profiles {
		inflight := units.Bytes(kind.InFlight(s, S, micro))
		actB += inflight * (sp.ActBytes + sp.BoundaryBytes)
		optB += sp.OptBytes(prec)
		pgB += sp.ParamBytes(prec) + sp.GradBytes(prec)
		if v := kind.WeightVersions(s, S); v > 1 {
			pgB += units.Bytes(int64(v-1) * sp.Params * prec.ParamBytes)
		}
	}
	total := float64(actB + optB + pgB)
	return float64(actB) / total * 100, float64(optB) / total * 100, float64(pgB) / total * 100, nil
}

// TableI regenerates Table I: the percentage of GPU memory demand per
// data class for Bert-0.64B (PipeDream) and GPT-5.3B (DAPPLE).
func TableI(w io.Writer) error {
	t := newTable("Model", "Activation", "Optimizer states", "Params & Gradients")
	type job struct {
		name  string
		cfg   model.Config
		prec  model.Precision
		kind  pipeline.ScheduleKind
		mb    int
		micro int
	}
	// Bert runs at microbatch 2, the largest setting where the paper's
	// PipeDream sustains 0.64B (Table I covers "trainable models").
	for _, j := range []job{
		{"Bert-0.64B", mpress.MustBert("0.64B"), model.FP32Adam(), pipeline.PipeDream, 2, 8},
		{"GPT-5.3B", mpress.MustGPT("5.3B"), model.MixedAdam(), pipeline.DAPPLE, 2, 8},
	} {
		act, opt, pg, err := classShares(j.cfg, j.prec, j.kind, j.mb, j.micro)
		if err != nil {
			return err
		}
		t.addf("%s|%.0f%%|%.0f%%|%.0f%%", j.name, act, opt, pg)
	}
	t.write(w)
	fmt.Fprintln(w, "\npaper: Bert-0.64B 39/46/15, GPT-5.3B 42/44/14")
	return nil
}

// Figure2 regenerates Fig. 2: per-GPU peak memory of Bert-1.67B under
// PipeDream (microbatch 2) and DAPPLE (microbatch 12), measured by an
// unbounded run of the executor.
func Figure2(w io.Writer) error {
	cfg := mpress.MustBert("1.67B")
	t := newTable("System", "g0", "g1", "g2", "g3", "g4", "g5", "g6", "g7", "max/min")
	for _, j := range []struct {
		kind pipeline.ScheduleKind
		mb   int
	}{
		{pipeline.PipeDream, 2},
		{pipeline.DAPPLE, 12},
	} {
		prec := model.FP32Adam()
		part, err := pipeline.PartitionModel(cfg, 8, pipeline.ComputeBalanced, j.kind, prec, j.mb, 8)
		if err != nil {
			return err
		}
		b, err := pipeline.Build(pipeline.BuildConfig{
			Model: cfg, Prec: prec, Part: part, Kind: j.kind,
			MicrobatchSize: j.mb, Microbatches: 8, Minibatches: 2,
		})
		if err != nil {
			return err
		}
		res, err := exec.Run(exec.Options{
			Topo: hw.DGX1(), Built: b,
			Mapping: exec.IdentityMapping(8), Unbounded: true,
		})
		if err != nil {
			return err
		}
		cells := []string{fmt.Sprintf("%v bs=%d", j.kind, j.mb)}
		min, max := res.GPUs[0].Peak, units.Bytes(0)
		for _, g := range res.GPUs {
			p := g.Peak - pipeline.RuntimeReserve
			cells = append(cells, fmt.Sprintf("%.1f", p.GiBf()))
			if p > max {
				max = p
			}
			if p < min {
				min = p
			}
		}
		cells = append(cells, fmt.Sprintf("%.1fx", float64(max)/float64(min)))
		t.add(cells...)
	}
	t.write(w)
	fmt.Fprintln(w, "\npaper: monotonically decreasing, up to 7.9x most/least used")
	return nil
}

// TableII regenerates Table II: the total and per-stage max/min memory
// demands (GiB) of every Bert and GPT variant.
func TableII(w io.Writer) error {
	t := newTable("Job", "Config", "Total", "per-stage Max", "per-stage Min")
	row := func(label, size string, cfg model.Config, prec model.Precision, kind pipeline.ScheduleKind, mb int) error {
		part, err := pipeline.PartitionModel(cfg, 8, pipeline.ComputeBalanced, kind, prec, mb, 8)
		if err != nil {
			return err
		}
		d := pipeline.Demand(cfg, prec, part, kind, mb, 8)
		s := pipeline.Summarize(d)
		t.addf("%s|%s|%.1f|%.1f|%.1f", label, size,
			s.Total.GiBf(),
			(s.Max - pipeline.RuntimeReserve).GiBf(),
			(s.Min - pipeline.RuntimeReserve).GiBf())
		return nil
	}
	for _, size := range model.BertVariants.Names() {
		if err := row("Bert+PipeDream", size, mpress.MustBert(size), model.FP32Adam(), pipeline.PipeDream, 12); err != nil {
			return err
		}
	}
	for _, size := range model.GPTVariants.Names() {
		if err := row("GPT+DAPPLE", size, mpress.MustGPT(size), model.MixedAdam(), pipeline.DAPPLE, 2); err != nil {
			return err
		}
	}
	t.write(w)
	fmt.Fprintln(w, "\npaper: Bert 108.8-1279.1 GB total; GPT 164.8-806.2 GB total (GBs)")
	return nil
}
