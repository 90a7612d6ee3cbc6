package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"

	"mpress"
	"mpress/internal/graph"
	"mpress/internal/hw"
	"mpress/internal/model"
	"mpress/internal/units"
)

func init() {
	register(Experiment{
		Name:  "fig7",
		Title: "Figure 7: Bert training performance atop PipeDream (DGX-1, mb=12)",
		Run:   Figure7,
	})
	register(Experiment{
		Name:  "fig8a",
		Title: "Figure 8a: GPT training performance atop DAPPLE (DGX-1, mb=2)",
		Run:   func(w io.Writer) error { return Figure8(w, false) },
	})
	register(Experiment{
		Name:  "fig8b",
		Title: "Figure 8b: GPT training performance atop DAPPLE (DGX-2, mb=2)",
		Run:   func(w io.Writer) error { return Figure8(w, true) },
	})
	register(Experiment{
		Name:  "fig9",
		Title: "Figure 9: device mapping and data striping ablation (Bert-1.67B)",
		Run:   Figure9,
	})
}

// cell renders a training outcome as the figure's bar (TFLOPS) or the
// red cross (OOM).
func cell(rep *mpress.Report, err error) string {
	if err != nil {
		return "ERR"
	}
	if rep.Failed() {
		return "OOM"
	}
	return fmt.Sprintf("%.1f", rep.TFLOPS)
}

// Figure7 regenerates Fig. 7: TFLOPS of the five systems across the
// Bert variants, atop PipeDream on the DGX-1.
func Figure7(w io.Writer) error {
	systems := []mpress.System{
		mpress.SystemPlain, mpress.SystemGPUCPUSwap, mpress.SystemRecompute,
		mpress.SystemMPressD2D, mpress.SystemMPress,
	}
	sizes := []string{"0.35B", "0.64B", "1.67B", "4.0B", "6.2B"}
	var cfgs []mpress.Config
	for _, size := range sizes {
		for _, sys := range systems {
			cfgs = append(cfgs, mpress.Config{
				Topology:       mpress.DGX1(),
				Model:          mpress.MustBert(size),
				Schedule:       mpress.PipeDream,
				System:         sys,
				MicrobatchSize: 12,
			})
		}
	}
	results := trainAll(cfgs)

	header := []string{"Bert size"}
	for _, s := range systems {
		header = append(header, s.String())
	}
	t := newTable(header...)
	i := 0
	for _, size := range sizes {
		row := []string{size}
		for range systems {
			row = append(row, cell(results[i].Report, results[i].Err))
			i++
		}
		t.add(row...)
	}
	t.write(w)
	fmt.Fprintln(w, "\npaper: swap<recomp<MPress; recomp dies at 4B; D2D-only dies at 1.67B;")
	fmt.Fprintln(w, "       only swap and MPress survive 4B/6.2B (TFLOPS, aggregate)")
	return nil
}

// Figure8 regenerates Fig. 8a/8b: GPT throughput across DAPPLE,
// DAPPLE+Recomputation, the two ZeRO baselines and MPress. The ZeRO
// baselines on the DGX-1 run on the paper's NVMe-equipped sibling
// server (Sec. IV-C).
func Figure8(w io.Writer, dgx2 bool) error {
	var topo, zeroTopo *mpress.Topology
	sizes := []string{"5.3B", "10.3B", "15.4B", "20.4B"}
	if dgx2 {
		topo, zeroTopo = mpress.DGX2(), mpress.DGX2()
		sizes = append(sizes, "25.5B")
	} else {
		topo, zeroTopo = mpress.DGX1(), mpress.DGX1WithNVMe()
	}
	systems := []mpress.System{
		mpress.SystemPlain, mpress.SystemRecompute,
		mpress.SystemZeROOffload, mpress.SystemZeROInfinity, mpress.SystemMPress,
	}
	var cfgs []mpress.Config
	for _, size := range sizes {
		for _, sys := range systems {
			tp := topo
			if sys == mpress.SystemZeROOffload || sys == mpress.SystemZeROInfinity {
				tp = zeroTopo
			}
			cfgs = append(cfgs, mpress.Config{
				Topology:       tp,
				Model:          mpress.MustGPT(size),
				Schedule:       mpress.DAPPLE,
				System:         sys,
				MicrobatchSize: 2,
			})
		}
	}
	results := trainAll(cfgs)

	header := []string{"GPT size", "DAPPLE", "DAPPLE+Recomp", "ZeRO-Offload", "ZeRO-Infinity", "MPress"}
	t := newTable(header...)
	i := 0
	for _, size := range sizes {
		row := []string{size}
		for range systems {
			row = append(row, cell(results[i].Report, results[i].Err))
			i++
		}
		t.add(row...)
	}
	t.write(w)
	if dgx2 {
		fmt.Fprintln(w, "\npaper: all >2x DGX-1; slow SSDs put ZeRO-Infinity below ZeRO-Offload;")
		fmt.Fprintln(w, "       MPress above both (they lose 23-70% / 30-45% to it)")
	} else {
		fmt.Fprintln(w, "\npaper: MPress sustains throughput at every size, 37-41% above")
		fmt.Fprintln(w, "       ZeRO-Infinity, which beats ZeRO-Offload by 21-24%")
	}
	return nil
}

// Figure9 regenerates Fig. 9: MPress as device mapping and data
// striping are enabled, relative to the default setting (identity
// mapping, single-peer unstriped D2D), on both topologies.
//
// Substitution notes: (1) the paper ablates on GPT-15.4B, but in our
// calibration that job leaves no spare memory for D2D on any stage,
// so Bert-1.67B at microbatch 12 — the job where our planner routes
// the most D2D traffic (28% of savings, mirroring the paper's 23.4%)
// — carries the ablation instead; (2) our simulated compute slots are
// long enough to hide even unstriped D2D transfers end to end, so in
// addition to normalized throughput the table reports the mean D2D
// restore latency, where the two optimizations' bandwidth effect is
// directly visible.
func Figure9(w io.Writer) error {
	bert := mpress.MustBert("1.67B")
	prec := model.FP32Adam()
	topos := []struct {
		name string
		topo func() *hw.Topology
	}{
		{"DGX-1 (asymmetric)", hw.DGX1},
		{"DGX-2 (symmetric)", hw.DGX2},
	}
	settings := []struct {
		name                      string
		disableMap, disableStripe bool
	}{
		{"default", true, true},
		{"+device mapping", false, true},
		{"+data striping", true, false},
		{"both", false, false},
	}
	var cfgs []mpress.Config
	for _, tc := range topos {
		for _, s := range settings {
			cfgs = append(cfgs, mpress.Config{
				Topology:  tc.topo(),
				Model:     bert,
				Schedule:  mpress.PipeDream,
				Precision: &prec,
				Stages:    8, MicrobatchSize: 12, Microbatches: 32, Minibatches: 2,
				System:               mpress.SystemMPress,
				DisableMappingSearch: s.disableMap,
				DisableStriping:      s.disableStripe,
			})
		}
	}
	// A dedicated runner keeps the lowered graphs and raw exec results
	// around (KeepArtifacts) so the D2D restore spans can be measured.
	r := mpress.NewRunner(mpress.RunnerOptions{Workers: parallelism, KeepArtifacts: true})
	results := r.RunConfigs(context.Background(), cfgs)

	type outcome struct {
		tflops  float64
		restore units.Duration
	}
	outcomeOf := func(jr mpress.JobResult) (outcome, error) {
		if jr.Err != nil {
			return outcome{}, jr.Err
		}
		if jr.Report.Failed() {
			return outcome{}, nil
		}
		ops, res := jr.State.ExecOpts.Ops(), jr.State.Exec
		var total units.Duration
		var n int
		for i := range ops.Len() {
			id := graph.OpID(i)
			if ops.Op(id).Kind == graph.SwapIn && strings.HasPrefix(ops.Name(id), "d2d") {
				sp := res.Spans[i]
				total += units.Duration(sp.End - sp.Start)
				n++
			}
		}
		out := outcome{tflops: res.TFLOPS}
		if n > 0 {
			out.restore = total / units.Duration(n)
		}
		return out, nil
	}

	t := newTable("Topology", "Setting", "Norm. TFLOPS", "Mean D2D restore")
	for ti, tc := range topos {
		// The "default" setting is the normalization base.
		base, err := outcomeOf(results[ti*len(settings)])
		if err != nil {
			return err
		}
		for si, s := range settings {
			o, err := outcomeOf(results[ti*len(settings)+si])
			if err != nil {
				return err
			}
			norm := "n/a"
			if base.tflops > 0 && o.tflops > 0 {
				norm = fmt.Sprintf("%.3f", o.tflops/base.tflops)
			}
			restore := "n/a"
			if o.restore > 0 {
				restore = o.restore.String()
			}
			t.add(tc.name, s.name, norm, restore)
		}
	}
	t.write(w)
	fmt.Fprintln(w, "\npaper: DGX-1 +17.4% mapping, +33.3% striping; DGX-2 mapping neutral,")
	fmt.Fprintln(w, "       +11% striping (throughput; our effect lands on restore latency)")
	return nil
}
