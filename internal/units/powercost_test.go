package units

import (
	"math"
	"testing"
)

func TestPowerString(t *testing.T) {
	cases := []struct {
		in   Power
		want string
	}{
		{0, "0W"},
		{350, "350W"},
		{Watts(3500), "3.50kW"},
		{KW(6.5), "6.50kW"},
		{KW(1200), "1.20MW"},
		{0.5, "500mW"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Power(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestPowerEnergy(t *testing.T) {
	// 1kW for one simulated hour is exactly 1 kWh.
	if got := KW(1).EnergyKWh(3600 * Second); math.Abs(got-1) > 1e-12 {
		t.Errorf("1kW x 1h = %v kWh, want 1", got)
	}
	if got := Watts(3500).EnergyKWh(30 * 60 * Second); math.Abs(got-1.75) > 1e-12 {
		t.Errorf("3.5kW x 30min = %v kWh, want 1.75", got)
	}
}

func TestCostFor(t *testing.T) {
	// $14/hr for 30 simulated minutes is $7.
	if got := USD(14).For(30 * 60 * Second); math.Abs(float64(got-7)) > 1e-12 {
		t.Errorf("$14/hr x 30min = %v, want 7", float64(got))
	}
}

func TestCostPrettyString(t *testing.T) {
	cases := []struct {
		in   Cost
		want string
	}{
		{12.5, "$12.50"},
		{0.004, "$0.0040"},
		{0, "$0.00"},
		{-3, "-$3.00"},
	}
	for _, c := range cases {
		if got := c.in.PrettyString(); got != c.want {
			t.Errorf("Cost(%v).PrettyString() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}
