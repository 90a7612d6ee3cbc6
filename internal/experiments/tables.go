package experiments

import (
	"fmt"
	"io"

	"mpress"
	"mpress/internal/compaction"
	"mpress/internal/fabric"
	"mpress/internal/hw"
	"mpress/internal/model"
	"mpress/internal/pipeline"
	"mpress/internal/plan"
	"mpress/internal/profiler"
	"mpress/internal/tensor"
	"mpress/internal/units"
)

func init() {
	register(Experiment{
		Name:  "table3",
		Title: "Table III: per-tensor time cost of the three memory reduction mechanisms",
		Run:   TableIII,
	})
	register(Experiment{
		Name:  "table4",
		Title: "Table IV: strategies chosen by MPress and per-mechanism savings",
		Run:   TableIV,
	})
}

// TableIII regenerates Table III: for sampled tensors of Bert and GPT,
// the live interval and the cost of recomputation, GPU-CPU swap, and
// D2D swap over four NVLinks (gpu0 -> gpu3+gpu4 on the DGX-1).
func TableIII(w io.Writer) error {
	topo := hw.DGX1()
	t := newTable("Model", "Tensor", "Size", "Live interval", "Recomp.", "GPU-CPU swap", "D2D swap (4 links)")

	sample := func(label string, cfg model.Config, prec model.Precision, kind pipeline.ScheduleKind, mb int) error {
		part, err := pipeline.PartitionModel(cfg, 8, pipeline.ComputeBalanced, kind, prec, mb, 8)
		if err != nil {
			return err
		}
		b, err := pipeline.Build(pipeline.BuildConfig{
			Model: cfg, Prec: prec, Part: part, Kind: kind,
			MicrobatchSize: mb, Microbatches: 8, Minibatches: 2,
		})
		if err != nil {
			return err
		}
		prof, err := profiler.Collect(topo, b, nil)
		if err != nil {
			return err
		}
		rate := topo.GPU.EffectiveRate(cfg.DType)
		// Three representative block activations: early stage + early
		// microbatch (long-lived), middle, and last stage + last
		// microbatch (short-lived).
		type pick struct {
			name  string
			stage int
			mb    int
		}
		picks := []pick{
			{"t-early", 0, 0},
			{"t-mid", 4, 4},
			{"t-late", 7, b.TotalMicrobatches - 1},
			{"t-bnd", 4, 4}, // a boundary tensor: smaller, not recomputable
		}
		for _, p := range picks {
			k := pipeline.SlotKey{Stage: p.stage, Microbatch: p.mb}
			chosen := tensor.ID(-1)
			if p.name == "t-bnd" {
				chosen = b.BoundIn(k)
			} else {
				for _, id := range b.Acts(k) {
					if _, ok := b.RecomputeFLOPs(id); ok {
						chosen = id
						break
					}
				}
			}
			if chosen < 0 {
				continue
			}
			tn := b.Graph.Tensors.Get(chosen)
			win := prof.Stats[chosen].LongestWindow()
			recomp := "n/a"
			if fl, ok := b.RecomputeFLOPs(tn.ID); ok {
				recomp = compaction.RecomputeCost(fl, rate).String()
			}
			host := compaction.HostSwapCost(topo, tn.Size)
			d2d := compaction.D2DSwapCost(topo, 0, []fabric.Part{
				{Peer: 3, Bytes: tn.Size / 2}, {Peer: 4, Bytes: tn.Size - tn.Size/2},
			})
			t.addf("%s|%s|%s|%s|%s|%s|%s",
				label, p.name, tn.Size, win.Gap, recomp, host, d2d)
		}
		return nil
	}
	bert := mpress.MustBert("1.67B")
	if err := sample("Bert", bert, model.FP32Adam(), pipeline.PipeDream, 2); err != nil {
		return err
	}
	gpt := mpress.MustGPT("10.3B")
	if err := sample("GPT", gpt, model.MixedAdam(), pipeline.DAPPLE, 2); err != nil {
		return err
	}
	t.write(w)
	fmt.Fprintln(w, "\npaper: e.g. t1 216MB live 78ms -> recomp 4ms, GPU-CPU 42ms, D2D 6ms;")
	fmt.Fprintln(w, "       D2D is ~7x faster than GPU-CPU swap at every size")
	return nil
}

// TableIV regenerates Table IV: the strategies MPress chooses for four
// high-pressure jobs, with the applied stage ranges and each
// mechanism's share of the total savings.
func TableIV(w io.Writer) error {
	t := newTable("Job", "Mechanism", "Applied stages", "Saved GPU mem", "Share")
	type job struct {
		name     string
		cfg      mpress.Config
		schedule mpress.Schedule
	}
	jobs := []job{
		{"Bert-1.67B", mpress.Config{Topology: mpress.DGX1(), Model: mpress.MustBert("1.67B"), Schedule: mpress.PipeDream, System: mpress.SystemMPress, MicrobatchSize: 12}, mpress.PipeDream},
		{"Bert-6.2B", mpress.Config{Topology: mpress.DGX1(), Model: mpress.MustBert("6.2B"), Schedule: mpress.PipeDream, System: mpress.SystemMPress, MicrobatchSize: 12}, mpress.PipeDream},
		{"GPT-10.3B", mpress.Config{Topology: mpress.DGX1(), Model: mpress.MustGPT("10.3B"), Schedule: mpress.DAPPLE, System: mpress.SystemMPress, MicrobatchSize: 2}, mpress.DAPPLE},
		{"GPT-20.4B", mpress.Config{Topology: mpress.DGX1(), Model: mpress.MustGPT("20.4B"), Schedule: mpress.DAPPLE, System: mpress.SystemMPress, MicrobatchSize: 2}, mpress.DAPPLE},
	}
	cfgs := make([]mpress.Config, len(jobs))
	for i, j := range jobs {
		cfgs[i] = j.cfg
	}
	results := trainAll(cfgs)
	for i, j := range jobs {
		if err := results[i].Err; err != nil {
			return err
		}
		rep := results[i].Report
		if rep.Plan == nil {
			continue
		}
		var total units.Bytes
		for _, v := range rep.Plan.SavedByMech {
			total += v
		}
		for _, mech := range []plan.Mechanism{plan.MechRecompute, plan.MechHostSwap, plan.MechD2D} {
			saved := rep.Plan.SavedByMech[mech]
			r := rep.Plan.StageRange[mech]
			stages := "N/A"
			if r[0] >= 0 {
				stages = fmt.Sprintf("stage %d-%d", r[0], r[1])
			}
			share := 0.0
			if total > 0 {
				share = float64(saved) / float64(total) * 100
			}
			t.addf("%s|%s|%s|%s|%.1f%%", j.name, mech, stages, saved, share)
		}
	}
	t.write(w)
	fmt.Fprintln(w, "\npaper: recomputation contributes the most (51-91%); GPU-CPU swap 0-42%;")
	fmt.Fprintln(w, "       D2D 3.9-23.4%, applied to the early stages")
	return nil
}
