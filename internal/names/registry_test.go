package names_test

import (
	"reflect"
	"strings"
	"testing"

	"mpress/internal/catalog"
	"mpress/internal/cluster"
	"mpress/internal/experiments"
	"mpress/internal/hw"
	"mpress/internal/model"
	"mpress/internal/pipeline"
	"mpress/internal/runner"
)

// TestRegistries pins every registry's name list, canonical names and
// aliases in order: CLI help prints them, so a reordering is a
// user-visible change. Every listed name must also resolve upper-cased
// and padded with spaces — one matching rule for all of them.
func TestRegistries(t *testing.T) {
	for _, r := range []struct {
		name   string
		names  []string
		lookup func(string) error
		want   string
	}{
		{"topologies", hw.Topologies.Names(), errOf(hw.LookupTopology),
			"dgx1 dgx1-nvme dgx2 dgx2-fastnvme grace dgx-1v v100 dgx-2a100 a100 gracehopper gh200"},
		{"fabrics", cluster.Fabrics.Names(), errOf(cluster.Fabrics.Lookup),
			"ib-4x100 eth-25g eth-10g fast ib 25g slow 10g"},
		{"systems", runner.Systems.Names(), errOf(runner.Systems.Lookup),
			"plain swap recompute d2d mpress zero3 offload infinity"},
		{"schedules", pipeline.Schedules.Names(), errOf(pipeline.Schedules.Lookup),
			"pipedream dapple gpipe"},
		{"strategies", pipeline.Strategies.Names(), errOf(pipeline.Strategies.Lookup),
			"compute-balanced memory-balanced"},
		{"machines", catalog.MachineNames(), errOf(catalog.Lookup),
			"dgx1-v100 dgx2-a100 gh200 consumer-4090 offload-a100x4"},
		{"bert", model.BertVariants.Names(), errOf(model.BertVariants.Lookup),
			"0.35B 0.64B 1.67B 4.0B 6.2B"},
		{"gpt", model.GPTVariants.Names(), errOf(model.GPTVariants.Lookup),
			"5.3B 10.3B 15.4B 20.4B 25.5B"},
		{"families", runner.Families.Names(), errOf(runner.Families.Lookup),
			"bert gpt"},
		{"experiments", experiments.Registry.Names(), errOf(experiments.Registry.Lookup),
			"autosearch fig4 capacity mapping-cost partition-ablation grace fig1 table1 fig2 table2 " +
				"resilience scaling schedules table3 table4 fig7 fig8a fig8b fig9 tp"},
	} {
		if got := strings.Join(r.names, " "); got != r.want {
			t.Errorf("%s: Names() = %q, want %q", r.name, got, r.want)
		}
		for _, n := range r.names {
			if err := r.lookup("  " + strings.ToUpper(n) + " "); err != nil {
				t.Errorf("%s: %v", r.name, err)
			}
		}
	}
}

func errOf[V any](lookup func(string) (V, error)) func(string) error {
	return func(name string) error {
		_, err := lookup(name)
		return err
	}
}

// TestFamilies pins the paper's family presets: Bert atop PipeDream at
// microbatch 12 (Fig. 7), GPT atop DAPPLE at microbatch 2 (Fig. 8).
func TestFamilies(t *testing.T) {
	want := []runner.Family{
		{Variants: model.BertVariants, Schedule: pipeline.PipeDream, MicrobatchSize: 12},
		{Variants: model.GPTVariants, Schedule: pipeline.DAPPLE, MicrobatchSize: 2},
	}
	if got := runner.Families.Values(); !reflect.DeepEqual(got, want) {
		t.Errorf("Families = %+v, want %+v", got, want)
	}
}
