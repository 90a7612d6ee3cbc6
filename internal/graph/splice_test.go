package graph

import (
	"errors"
	"slices"
	"testing"

	"mpress/internal/tensor"
	"mpress/internal/units"
)

// panics reports whether f panicked.
func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// spliceOverlay instruments a fork of a frozen graph through the
// Instrument primitives, anchored mostly at base ops (as plan.Apply
// does) and sometimes at earlier overlay ops, then adds extra deps:
// some close cycles, some point out of range or at the op itself. Some
// recomputes name a tensor the base never consumes. A fork guard must
// panic on exactly those calls, before changing the fork.
func spliceOverlay(t *testing.T, g *Graph, src *byteSource) {
	nb := g.Len()
	anchor := func() OpID {
		if src.intn(4) == 0 {
			return OpID(src.intn(g.Len()))
		}
		return OpID(src.intn(nb))
	}
	check := func(call string, bad bool, f func()) {
		t.Helper()
		n := g.Len()
		if got := panics(f); got != bad {
			t.Fatalf("%s: panicked = %v, want %v", call, got, bad)
		}
		if bad && g.Len() != n {
			t.Fatalf("%s: a guard panicked after adding ops", call)
		}
	}
	g.Grow(2 * src.intn(6))
	for k := src.intn(6); k > 0; k-- {
		tn := tensor.ID(src.intn(g.Tensors.Len()))
		after, before := anchor(), anchor()
		gate := OpID(src.intn(nb+1)) - 1
		switch src.intn(4) {
		case 0:
			check("recompute", len(g.base.live.Uses[tn]) == 0, func() {
				g.InstrumentRecompute(tn, after, before, gate, units.FLOPs(1))
			})
		case 1:
			g.InstrumentSwap(tn, after, before, gate, "h2d")
		case 2:
			g.InstrumentSwapIn(tn, before, gate, "d2d")
		default:
			g.InstrumentSwapOut(tn, after, "d2d")
		}
	}
	for k := src.intn(4); k > 0; k-- {
		after := OpID(src.intn(g.Len()))
		before := OpID(src.intn(g.Len()+4)) - 2 // -2 .. len+1
		bad := before < 0 || int(before) >= g.Len() || before == after
		check("AddDep", bad, func() { g.AddDep(after, before) })
	}
}

// checkSplice holds a fork's construction guards to the full check on
// an unforked copy of the same ops: whatever overlay the guards admit
// is valid but for a possible cycle, which exec.Run reports, and keeps
// every tensor's base uses, which exec reads its free points from.
func checkSplice(t *testing.T, data []byte) {
	src := &byteSource{data: data}
	base := randomDAG(src)
	if err := base.Freeze(); err != nil {
		return // an invalid base has no fork
	}
	f := base.Fork()
	spliceOverlay(t, f, src)
	full := New(f.Tensors)
	for _, op := range f.Ops() {
		full.AddOp(op)
	}
	if err := full.Validate(); err != nil {
		var cyc *CycleError
		if !errors.As(err, &cyc) {
			t.Fatalf("the guards admitted an overlay the full check rejects: %v", err)
		}
		return
	}
	live, _ := full.Liveness()
	useOps := func(l *Liveness, tn int) []OpID {
		var ids []OpID
		for _, u := range l.Uses[tn] {
			ids = append(ids, u.Op)
		}
		slices.Sort(ids)
		return ids
	}
	for tn := range live.Uses {
		if got, want := useOps(live, tn), useOps(base.live, tn); !slices.Equal(got, want) {
			t.Fatalf("tensor %d is used by ops %v on the fork, %v on the base", tn, got, want)
		}
	}
}

// FuzzSplice: for random frozen DAGs and random instrumented overlays,
// the fork guards panic on exactly the calls that break them, and the
// overlays they admit pass the full check (or fail it with a cycle
// only) and consume no tensor. The committed corpus lives in
// testdata/fuzz/FuzzSplice.
func FuzzSplice(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(checkSplice)
}

// TestForkGuards: on a fork of a frozen graph, AddOp, a recompute of a
// tensor the base never consumes, and a dep out of range or on the op
// itself panic; the same calls on an unfrozen graph do not, and are
// left to Validate.
func TestForkGuards(t *testing.T) {
	g, ops, ts := buildChain(t)
	unused := g.Tensors.Add(tensor.Tensor{Name: "t2", Class: tensor.Activation, Size: 8})
	g.Op(ops[2]).Outputs = []tensor.ID{unused}
	if err := g.Freeze(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		call func(f *Graph)
	}{
		{"AddOp", func(f *Graph) { f.AddOp(Op{Name: "late"}) }},
		{"recompute of an unconsumed tensor", func(f *Graph) {
			f.InstrumentRecompute(unused, ops[2], ops[2], -1, 1)
		}},
		{"dep past the graph", func(f *Graph) { f.AddDep(ops[0], OpID(f.Len())) }},
		{"negative dep", func(f *Graph) { f.AddDep(ops[0], -1) }},
		{"self dep", func(f *Graph) { f.AddDep(ops[1], ops[1]) }},
		{"gate past the graph", func(f *Graph) {
			f.InstrumentSwapIn(ts[0], ops[1], OpID(f.Len()), "h2d")
		}},
	}
	for _, c := range cases {
		if !panics(func() { c.call(g.Fork()) }) {
			t.Errorf("%s on a fork did not panic", c.name)
		}
	}
	f := g.Fork()
	if panics(func() { f.InstrumentRecompute(ts[0], ops[0], ops[1], ops[0], 1) }) {
		t.Error("a recompute of a consumed tensor panicked")
	}
	free, _, _ := buildChain(t)
	if panics(func() { free.AddDep(ops[1], ops[1]) }) {
		t.Error("a self dep on an unfrozen graph panicked")
	}
	if err := free.Validate(); err == nil {
		t.Error("Validate accepted a self dep")
	}
}
