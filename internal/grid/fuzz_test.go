package grid

import "testing"

// FuzzCoordRank round-trips Coord ↔ linear rank over arbitrary shapes
// — the Load(Save)-style invariant for the grid's linearization: for
// every in-shape coordinate, CoordOf(Rank(c)) == c and Rank stays
// inside [0, World).
func FuzzCoordRank(f *testing.F) {
	f.Add(2, 4, 2, 1, 3, 1)
	f.Add(1, 8, 1, 0, 7, 0)
	f.Add(4, 2, 3, 3, 1, 2)
	f.Fuzz(func(t *testing.T, tp, pp, dp, ct, cpp, cdp int) {
		s := Shape{TP: tp, PP: pp, DP: dp}
		if tp < 1 || pp < 1 || dp < 1 || s.World() > 1<<16 || s.World() < 0 {
			t.Skip()
		}
		c := Coord{TP: ct, PP: cpp, DP: cdp}
		if !s.Valid(c) {
			// Out-of-shape coordinates are the caller's bug; the
			// round-trip contract only covers valid ones.
			t.Skip()
		}
		r := s.Rank(c)
		if r < 0 || r >= s.World() {
			t.Fatalf("Rank(%v) = %d outside world %d of %v", c, r, s.World(), s)
		}
		if got := s.CoordOf(r); got != c {
			t.Fatalf("CoordOf(Rank(%v)) = %v under %v", c, got, s)
		}
		// And the other direction: every rank maps back into shape.
		c2 := s.CoordOf(r)
		if !s.Valid(c2) {
			t.Fatalf("CoordOf(%d) = %v escapes shape %v", r, c2, s)
		}
	})
}
