package units

import (
	"math"
	"testing"
)

func TestGbps(t *testing.T) {
	// 100 Gbit/s = 12.5 decimal GB/s.
	if got, want := float64(Gbps(100)), 12.5e9; got != want {
		t.Errorf("Gbps(100) = %g, want %g", got, want)
	}
	if got := Gbps(100).GBpsf(); got != 12.5 {
		t.Errorf("Gbps(100).GBpsf() = %g, want 12.5", got)
	}
	if got := GBps(12.5).Gbpsf(); math.Abs(got-100) > 1e-9 {
		t.Errorf("GBps(12.5).Gbpsf() = %g, want 100", got)
	}
}

func TestBitString(t *testing.T) {
	cases := []struct {
		bw   Bandwidth
		want string
	}{
		{Gbps(100), "100Gbit/s"},
		{Gbps(25), "25Gbit/s"},
		{Gbps(12.5), "12.5Gbit/s"},
		{GBps(12.5), "100Gbit/s"},
		{Gbps(0.4), "400Mbit/s"},
		{0, "0Gbit/s"},
	}
	for _, c := range cases {
		if got := c.bw.BitString(); got != c.want {
			t.Errorf("(%v).BitString() = %q, want %q", float64(c.bw), got, c.want)
		}
	}
}
