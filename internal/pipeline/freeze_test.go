package pipeline

import (
	"reflect"
	"testing"
)

// TestFreeRowsFollowTheirGraph: an unfrozen build has no free rows, so
// its runs derive their own; Freeze derives them once, equal to a
// derivation on the graph, and a second Freeze keeps them.
func TestFreeRowsFollowTheirGraph(t *testing.T) {
	b := smallBuild(t, DAPPLE, 4, 2)
	if b.Frees() != nil {
		t.Fatal("an unfrozen build has free rows")
	}
	want, err := b.DeriveFreeRows(b.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Freeze(); err != nil {
		t.Fatal(err)
	}
	rows := b.Frees()
	if !reflect.DeepEqual(rows, want) {
		t.Fatal("the frozen build's rows differ from a derivation on its graph")
	}
	if err := b.Freeze(); err != nil || rows == nil || b.Frees() != rows {
		t.Fatalf("refreezing: rows %p then %p (%v)", rows, b.Frees(), err)
	}
}
