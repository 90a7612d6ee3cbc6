package graph

import (
	"errors"
	"math/rand"
	"testing"

	"mpress/internal/tensor"
)

// buildChain makes a linear fw graph a->b->c via tensors t0,t1.
func buildChain(t *testing.T) (*Graph, []OpID, []tensor.ID) {
	t.Helper()
	g := New(nil)
	t0 := g.Tensors.Add(tensor.Tensor{Name: "t0", Class: tensor.Activation, Size: 100})
	t1 := g.Tensors.Add(tensor.Tensor{Name: "t1", Class: tensor.Activation, Size: 200})
	a := g.AddOp(Op{Name: "a", Kind: Forward, Outputs: []tensor.ID{t0}})
	b := g.AddOp(Op{Name: "b", Kind: Forward, Inputs: []tensor.ID{t0}, Outputs: []tensor.ID{t1}})
	c := g.AddOp(Op{Name: "c", Kind: Backward, Inputs: []tensor.ID{t1}})
	return g, []OpID{a, b, c}, []tensor.ID{t0, t1}
}

func TestOpKindString(t *testing.T) {
	if Forward.String() != "forward" || SwapOut.String() != "swapout" || ReduceScatter.String() != "reducescatter" {
		t.Error("op kind names wrong")
	}
	if OpKind(42).String() != "OpKind(42)" {
		t.Error("out-of-range op kind name wrong")
	}
}

func TestOpKindCompute(t *testing.T) {
	for _, k := range []OpKind{Forward, Backward, OptimizerStep, Recompute} {
		if !k.Compute() {
			t.Errorf("%v should be compute", k)
		}
	}
	for _, k := range []OpKind{Transfer, SwapOut, SwapIn, Drop, AllGather, ReduceScatter} {
		if k.Compute() {
			t.Errorf("%v should not be compute", k)
		}
	}
}

func TestTopoOrderChain(t *testing.T) {
	g, ops, _ := buildChain(t)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 {
		t.Fatalf("order length %d, want 3", len(order))
	}
	for i, want := range ops {
		if order[i] != want {
			t.Errorf("order[%d] = %d, want %d", i, order[i], want)
		}
	}
}

func TestTopoOrderDeterministicTies(t *testing.T) {
	// Diamond: root -> {x, y} -> sink. x and y are both ready after
	// root; the lower ID must come first.
	g := New(nil)
	root := g.AddOp(Op{Name: "root"})
	x := g.AddOp(Op{Name: "x", Deps: []OpID{root}})
	y := g.AddOp(Op{Name: "y", Deps: []OpID{root}})
	sink := g.AddOp(Op{Name: "sink", Deps: []OpID{x, y}})
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	want := []OpID{root, x, y, sink}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTopoOrderCycle(t *testing.T) {
	g := New(nil)
	a := g.AddOp(Op{Name: "a"})
	b := g.AddOp(Op{Name: "b", Deps: []OpID{a}})
	g.AddDep(a, b) // introduces the cycle a <-> b
	_, err := g.TopoOrder()
	var ce *CycleError
	if !errors.As(err, &ce) {
		t.Fatalf("expected CycleError, got %v", err)
	}
	if len(ce.Remaining) != 2 {
		t.Errorf("Remaining = %v, want both ops", ce.Remaining)
	}
	if err := g.Validate(); err == nil {
		t.Error("Validate must fail on a cyclic graph")
	}
}

func TestValidate(t *testing.T) {
	g, _, _ := buildChain(t)
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}

	bad := New(nil)
	bad.AddOp(Op{Name: "x", Inputs: []tensor.ID{99}})
	if err := bad.Validate(); err == nil {
		t.Error("unknown tensor reference not caught")
	}

	selfdep := New(nil)
	id := selfdep.AddOp(Op{Name: "s"})
	selfdep.Op(id).Deps = append(selfdep.Op(id).Deps, id)
	if err := selfdep.Validate(); err == nil {
		t.Error("self-dependency not caught")
	}

	dup := New(nil)
	tt := dup.Tensors.Add(tensor.Tensor{Name: "t"})
	dup.AddOp(Op{Name: "p1", Outputs: []tensor.ID{tt}})
	dup.AddOp(Op{Name: "p2", Outputs: []tensor.ID{tt}})
	if err := dup.Validate(); err == nil {
		t.Error("double-producer not caught")
	}
}

func TestAddDepIdempotent(t *testing.T) {
	g := New(nil)
	a := g.AddOp(Op{Name: "a"})
	b := g.AddOp(Op{Name: "b"})
	g.AddDep(b, a)
	g.AddDep(b, a)
	if len(g.Op(b).Deps) != 1 {
		t.Errorf("duplicate dep recorded: %v", g.Op(b).Deps)
	}
}

func TestAnalyzeLiveness(t *testing.T) {
	g, ops, ts := buildChain(t)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	l := g.Analyze(order)
	if l.Def[ts[0]] != 0 {
		t.Errorf("t0 defined at %d, want 0", l.Def[ts[0]])
	}
	if l.Def[ts[1]] != 1 {
		t.Errorf("t1 defined at %d, want 1", l.Def[ts[1]])
	}
	if got := l.LastUse(ts[0]); got != 1 {
		t.Errorf("t0 last use at %d, want 1", got)
	}
	if got := l.LastUse(ts[1]); got != 2 {
		t.Errorf("t1 last use at %d, want 2", got)
	}
	if len(l.Uses[ts[1]]) != 1 || l.Uses[ts[1]][0].Op != ops[2] {
		t.Errorf("t1 uses = %+v", l.Uses[ts[1]])
	}
}

func TestAnalyzeUnusedTensor(t *testing.T) {
	g := New(nil)
	tt := g.Tensors.Add(tensor.Tensor{Name: "orphan"})
	g.AddOp(Op{Name: "p", Outputs: []tensor.ID{tt}})
	order, _ := g.TopoOrder()
	l := g.Analyze(order)
	if got := l.LastUse(tt); got != -1 {
		t.Errorf("unused tensor LastUse = %d, want -1", got)
	}
}

// TestTopoOrderRandomDAGProperty: random DAGs (edges only from lower to
// higher IDs) must always sort, and every edge must be respected.
func TestTopoOrderRandomDAGProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		g := New(nil)
		n := 2 + rng.Intn(40)
		for i := 0; i < n; i++ {
			g.AddOp(Op{Name: "op"})
		}
		type edge struct{ from, to OpID }
		var edges []edge
		for i := 1; i < n; i++ {
			for k := 0; k < rng.Intn(3); k++ {
				from := OpID(rng.Intn(i))
				g.AddDep(OpID(i), from)
				edges = append(edges, edge{from, OpID(i)})
			}
		}
		order, err := g.TopoOrder()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		pos := make(map[OpID]int, n)
		for i, id := range order {
			pos[id] = i
		}
		for _, e := range edges {
			if pos[e.from] >= pos[e.to] {
				t.Fatalf("trial %d: edge %d->%d violated", trial, e.from, e.to)
			}
		}
	}
}

// TestFreezeFrozenIsNoop: re-freezing a frozen graph returns nil and
// writes nothing, so goroutines sharing one frozen graph may freeze and
// read it at once (run under -race). AddOp and AddDep on a frozen
// graph panic and leave its ops and cached order as they were.
func TestFreezeFrozenIsNoop(t *testing.T) {
	g, ids, _ := buildChain(t)
	if err := g.Freeze(); err != nil {
		t.Fatal(err)
	}
	order, _ := g.TopoOrder()
	live, _ := g.Liveness()
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			if err := g.Freeze(); err != nil {
				t.Error(err)
			}
			if _, err := g.TopoOrder(); err != nil {
				t.Error(err)
			}
			_, _ = g.Preds(2), g.Succs(0)
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	if o, _ := g.TopoOrder(); &o[0] != &order[0] {
		t.Error("re-freezing rebuilt the cached order")
	}
	if l, _ := g.Liveness(); l != live {
		t.Error("re-freezing rebuilt the cached liveness")
	}
	for name, mutate := range map[string]func(){
		"AddOp":  func() { g.AddOp(Op{Name: "d", Kind: Forward}) },
		"AddDep": func() { g.AddDep(ids[2], ids[0]) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a frozen graph did not panic", name)
				}
			}()
			mutate()
		}()
		if g.Len() != len(ids) || len(g.Op(ids[2]).Deps) != 0 {
			t.Errorf("%s changed a frozen graph's ops", name)
		}
		if o, _ := g.TopoOrder(); &o[0] != &order[0] {
			t.Errorf("%s dropped the frozen graph's cached order", name)
		}
	}
}
