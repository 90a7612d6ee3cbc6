package graph

import (
	"slices"
	"testing"

	"mpress/internal/tensor"
)

// TestValidateAllowsRecomputeReproduction: a Recompute op legitimately
// re-produces a tensor its forward already produced.
func TestValidateAllowsRecomputeReproduction(t *testing.T) {
	g, ops, ts := buildChain(t)
	drop := g.AddOp(Op{Kind: Drop, Subject: ts[0], Deps: []OpID{ops[0]}})
	rec := g.AddOp(Op{Kind: Recompute, Subject: ts[0], Outputs: []tensor.ID{ts[0]}, Deps: []OpID{drop}})
	g.AddDep(ops[2], rec)
	if err := g.Validate(); err != nil {
		t.Fatalf("recompute reproduction rejected: %v", err)
	}
	if !slices.Contains(g.Preds(ops[1]), rec) {
		t.Errorf("t0's consumer waits on %v, not the recompute %d that re-produced it", g.Preds(ops[1]), rec)
	}
}

// TestTopoOrderCachesAndInvalidates: the cached order is reused until
// a mutation, then recomputed.
func TestTopoOrderCachesAndInvalidates(t *testing.T) {
	g := New(nil)
	a := g.AddOp(Op{Name: "a"})
	o1, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	o2, _ := g.TopoOrder()
	if &o1[0] != &o2[0] {
		t.Error("cache not reused")
	}
	b := g.AddOp(Op{Name: "b", Deps: []OpID{a}})
	o3, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(o3) != 2 || o3[1] != b {
		t.Errorf("stale order after mutation: %v", o3)
	}
}
