package plan_test

import (
	"context"
	"slices"
	"testing"

	"mpress/internal/experiments"
	"mpress/internal/plan"
	"mpress/internal/runner"
	"mpress/internal/tensor"
)

// TestApplyRoutesExactlyD2D: the executor reads the planner's stripe
// table as it is, so for every planner preset Apply must route a tensor
// to peers exactly when the plan D2D-swaps it, over the plan's own
// stripes, and park exactly its host-parked tensors, ascending.
func TestApplyRoutesExactlyD2D(t *testing.T) {
	r := runner.New(runner.Options{Workers: 1})
	routed := 0
	for _, p := range experiments.PlannerPresets() {
		job, err := runner.NewJob(p.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := r.RunKeep(context.Background(), job)
		if res.Err != nil {
			t.Fatalf("%s: %v", p.Name, res.Err)
		}
		st := res.State
		pl := st.Plan
		o, err := plan.Apply(pl, st.Built, st.Grid.Plane())
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		n := st.Built.Graph.Tensors.Len()
		if len(o.Stripes.Of) != n {
			t.Fatalf("%s: stripe table has %d entries for %d tensors", p.Name, len(o.Stripes.Of), n)
		}
		for i, l := range o.Stripes.Of {
			id := tensor.ID(i)
			if d2d := pl.Act[id] == plan.MechD2D; (l != 0) != d2d {
				t.Fatalf("%s: tensor %d takes layout %d under %v", p.Name, id, l, pl.Act[id])
			}
			if l != 0 {
				routed++
				if !slices.Equal(o.Stripes.Layouts[l], pl.Parts[id]) {
					t.Fatalf("%s: tensor %d stripes %v, plan %v", p.Name, id, o.Stripes.Layouts[l], pl.Parts[id])
				}
			}
		}
		var parked []tensor.ID
		for id, on := range pl.HostPersist {
			if on {
				parked = append(parked, id)
			}
		}
		slices.Sort(parked)
		if !slices.Equal(o.Parked, parked) {
			t.Errorf("%s: parks %v, plan %v", p.Name, o.Parked, parked)
		}
	}
	if routed == 0 {
		t.Error("no preset's plan D2D-swaps a tensor")
	}
}
