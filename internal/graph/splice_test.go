package graph

import (
	"errors"
	"testing"

	"mpress/internal/tensor"
	"mpress/internal/units"
)

// spliceOverlay instruments a fork of a frozen graph through the
// Instrument primitives, anchored mostly at base ops (as plan.Apply
// does) and sometimes at earlier overlay ops, then adds extra deps:
// some close cycles, some point out of range or at the op itself.
func spliceOverlay(g *Graph, src *byteSource) {
	nb := g.Len()
	anchor := func() OpID {
		if src.intn(4) == 0 {
			return OpID(src.intn(g.Len()))
		}
		return OpID(src.intn(nb))
	}
	g.Grow(2 * src.intn(6))
	for k := src.intn(6); k > 0; k-- {
		t := tensor.ID(src.intn(g.Tensors.Len()))
		after, before := anchor(), anchor()
		gate := OpID(src.intn(nb+1)) - 1
		switch src.intn(4) {
		case 0:
			g.InstrumentRecompute(t, after, before, gate, units.FLOPs(1))
		case 1:
			g.InstrumentSwap(t, after, before, gate, "h2d")
		case 2:
			g.InstrumentSwapIn(t, before, gate, "d2d")
		default:
			g.InstrumentSwapOut(t, after, "d2d")
		}
	}
	for k := src.intn(4); k > 0; k-- {
		after := OpID(src.intn(g.Len()))
		before := OpID(src.intn(g.Len()+4)) - 2 // -2 .. len+1
		g.AddDep(after, before)
	}
}

// checkSplice compares a fork's Validate, which certifies the overlay
// when it can, with the full check on an unforked copy of the same ops.
func checkSplice(t *testing.T, data []byte) {
	src := &byteSource{data: data}
	base := randomDAG(src)
	if err := base.Freeze(); err != nil {
		return // an invalid base has no fork to certify
	}
	f := base.Fork()
	spliceOverlay(f, src)
	full := New(f.Tensors)
	for _, op := range f.Ops() {
		full.AddOp(op)
	}
	certified := f.certify()
	got, want := f.Validate(), full.Validate()
	if certified && want != nil {
		t.Fatalf("certified an overlay the full check rejects: %v", want)
	}
	if (got == nil) != (want == nil) {
		t.Fatalf("Validate = %v, full check = %v", got, want)
	}
	var gotCycle, wantCycle *CycleError
	if errors.As(got, &gotCycle) != errors.As(want, &wantCycle) {
		t.Fatalf("Validate = %v, full check = %v: error types differ", got, want)
	}
	if got != nil && got.Error() != want.Error() {
		t.Fatalf("Validate = %q, full check = %q", got, want)
	}
	if f.Certified() != (got == nil && certified) {
		t.Fatalf("Certified() = %v after Validate = %v (certify %v)", f.Certified(), got, certified)
	}
}

// FuzzSplice: for random frozen DAGs and random instrumented overlays,
// a fork's Validate — the certified fast path, falling back to the full
// check — accepts exactly what the full check accepts and reports the
// same error. The committed corpus lives in testdata/fuzz/FuzzSplice.
func FuzzSplice(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(checkSplice)
}

// TestSpliceCertifiesPlannerShapedOverlays pins that the fast path is
// actually taken: an overlay anchored as plan.Apply anchors it — after a
// producer, before a later consumer, gated on the producer — is
// certified without a full sort, and a dep closing a cycle is not.
func TestSpliceCertifiesPlannerShapedOverlays(t *testing.T) {
	g, ops, ts := buildChain(t)
	if err := g.Freeze(); err != nil {
		t.Fatal(err)
	}
	f := g.Fork()
	f.InstrumentRecompute(ts[0], ops[0], ops[1], ops[0], 1)
	if !f.certify() {
		t.Fatal("recompute anchored after its producer and before its consumer not certified")
	}
	if err := f.Validate(); err != nil || !f.Certified() {
		t.Fatalf("Validate = %v, Certified = %v", err, f.Certified())
	}
	f.AddDep(ops[0], ops[2])
	if f.Certified() || f.certify() {
		t.Fatal("a backward dep was certified")
	}
	var cyc *CycleError
	if err := f.Validate(); !errors.As(err, &cyc) {
		t.Fatalf("Validate = %v, want a *CycleError", err)
	}
}
