package runner_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"mpress"
	"mpress/internal/cluster"
	"mpress/internal/experiments"
	"mpress/internal/fabric"
	"mpress/internal/hw"
	"mpress/internal/pipeline"
	"mpress/internal/plan"
	"mpress/internal/runner"
	"mpress/internal/tensor"
)

// rebaseByMaps is plan.Rebase as it was while a lowering kept its
// activations in a map keyed by slot: it copies both lowerings' rows
// into such maps and walks them. TestRebaseMatchesMapWalk holds the
// dense Rebase to it.
func rebaseByMaps(pl *plan.Plan, from, to *pipeline.Built) (*plan.Plan, error) {
	slotMap := func(b *pipeline.Built) map[pipeline.SlotKey][]tensor.ID {
		acts := make(map[pipeline.SlotKey][]tensor.ID)
		for s := 0; s < b.NumStages(); s++ {
			for m := 0; m < b.TotalMicrobatches; m++ {
				k := pipeline.SlotKey{Stage: s, Microbatch: m}
				acts[k] = b.Acts(k)
			}
		}
		return acts
	}
	fromActs, toActs := slotMap(from), slotMap(to)

	fc, tc := from.Cfg, to.Cfg
	if from.NumStages() != to.NumStages() || fc.Microbatches != tc.Microbatches {
		return nil, fmt.Errorf("plan: rebase across different pipeline shapes (%d→%d stages, %d→%d microbatches)",
			from.NumStages(), to.NumStages(), fc.Microbatches, tc.Microbatches)
	}
	if fc.Minibatches == tc.Minibatches {
		return pl, nil
	}
	out := &plan.Plan{
		Mapping:     pl.Mapping,
		Act:         make(map[tensor.ID]plan.Mechanism),
		Parts:       make(map[tensor.ID][]fabric.Part),
		HostPersist: make(map[tensor.ID]bool),
		SavedByMech: pl.SavedByMech,
		StageRange:  pl.StageRange,
		Emulations:  pl.Emulations,
		Baseline:    pl.Baseline,
		Planned:     pl.Planned,
	}
	for id, parked := range pl.HostPersist {
		if !to.Persists(id) {
			return nil, fmt.Errorf("plan: rebase: host-parked tensor %d is not persistent in the target build", id)
		}
		out.HostPersist[id] = parked
	}
	micro := fc.Microbatches
	for s := 0; s < to.NumStages(); s++ {
		for m := 0; m < to.TotalMicrobatches; m++ {
			q, r := m/micro, m%micro
			src := fromActs[pipeline.SlotKey{Stage: s, Microbatch: (q%fc.Minibatches)*micro + r}]
			dst := toActs[pipeline.SlotKey{Stage: s, Microbatch: m}]
			if len(src) != len(dst) {
				return nil, fmt.Errorf("plan: rebase: slot s%d/mb%d has %d activations, source has %d",
					s, m, len(dst), len(src))
			}
			for i, sid := range src {
				if mech, ok := pl.Act[sid]; ok {
					out.Act[dst[i]] = mech
				}
				if parts, ok := pl.Parts[sid]; ok {
					out.Parts[dst[i]] = parts
				}
			}
		}
	}
	return out, nil
}

// rebaseConfigs returns every planner preset and every scale-out cell
// of the sweep benchmark workload (two models × two fabrics × 1, 2, 4
// and 8 DGX-1 nodes).
func rebaseConfigs() []experiments.PlannerPreset {
	cfgs := experiments.PlannerPresets()
	for _, m := range []experiments.PlannerPreset{
		{Name: "bert1.67b", Cfg: runner.Config{Model: mpress.MustBert("1.67B"), Schedule: pipeline.PipeDream,
			System: runner.SystemMPress, MicrobatchSize: 12}},
		{Name: "gpt5.3b", Cfg: runner.Config{Model: mpress.MustGPT("5.3B"), Schedule: pipeline.DAPPLE,
			System: runner.SystemMPress, MicrobatchSize: 2}},
	} {
		for _, f := range []struct {
			name string
			fab  cluster.Fabric
		}{{"ib4x100", cluster.InfiniBand4x100()}, {"10gbe", cluster.Ethernet10G()}} {
			for _, n := range []int{1, 2, 4, 8} {
				c := m.Cfg
				c.Cluster = cluster.MustNew(n, hw.DGX1(), f.fab)
				cfgs = append(cfgs, experiments.PlannerPreset{Name: fmt.Sprintf("scale/%s/%s/n%d", m.Name, f.name, n), Cfg: c})
			}
		}
	}
	return cfgs
}

// TestRebaseMatchesMapWalk holds plan.Rebase, which walks the
// lowerings' dense slot tables, to the map walk it replaced: for every
// config of rebaseConfigs, the plan computed at two minibatches,
// rebased to lowerings at 1, 3, 8 and 32, must deep-equal the
// reference's. A lowering whose slots hold a different activation
// count must fail with the reference's message.
func TestRebaseMatchesMapWalk(t *testing.T) {
	r := runner.New(runner.Options{Workers: 1})
	var last *pipeline.Built
	var lastPlan *plan.Plan
	rebased := 0
	for _, p := range rebaseConfigs() {
		name, cfg := p.Name, p.Cfg
		cfg.Minibatches = 2
		job, err := runner.NewJob(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res := r.RunKeep(context.Background(), job)
		if res.Err != nil {
			t.Fatalf("%s: %v", name, res.Err)
		}
		from, pl := res.State.Built, res.State.Plan
		if pl == nil {
			t.Fatalf("%s: no plan to rebase", name)
		}
		if len(pl.Act) > 0 {
			rebased++
		}
		for _, mini := range []int{1, 3, 8, 32} {
			bc := from.Cfg
			bc.Minibatches = mini
			to, err := pipeline.Build(bc)
			if err != nil {
				t.Fatalf("%s at %d: %v", name, mini, err)
			}
			got, err := plan.Rebase(pl, from, to)
			if err != nil {
				t.Fatalf("%s at %d: %v", name, mini, err)
			}
			want, err := rebaseByMaps(pl, from, to)
			if err != nil {
				t.Fatalf("%s at %d: reference: %v", name, mini, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s at %d: rebased plan differs from the map walk's", name, mini)
			}
		}
		last, lastPlan = from, pl
	}
	if rebased < 8 {
		t.Errorf("only %d configs plan any activation; the comparison is mostly vacuous", rebased)
	}

	// Move one block from stage 0 to stage 1: same stage and microbatch
	// counts, different activation counts per slot.
	bc := last.Cfg
	bc.Minibatches = 3
	bc.Part.Stages = append([]pipeline.Stage(nil), bc.Part.Stages...)
	bc.Part.Stages[0].NumBlocks--
	bc.Part.Stages[1].FirstBlock--
	bc.Part.Stages[1].NumBlocks++
	to, err := pipeline.Build(bc)
	if err != nil {
		t.Fatal(err)
	}
	k := pipeline.SlotKey{Stage: 0, Microbatch: 0}
	wantMsg := fmt.Sprintf("plan: rebase: slot s0/mb0 has %d activations, source has %d", len(to.Acts(k)), len(last.Acts(k)))
	_, err = plan.Rebase(lastPlan, last, to)
	_, refErr := rebaseByMaps(lastPlan, last, to)
	if err == nil || refErr == nil || err.Error() != wantMsg || refErr.Error() != wantMsg {
		t.Errorf("slot-count mismatch: Rebase error %v, reference %v; want %q", err, refErr, wantMsg)
	}
}
