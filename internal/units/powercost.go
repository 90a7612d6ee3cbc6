package units

import (
	"fmt"
	"strconv"
	"strings"
)

// Power is an electrical power draw in watts. Machine-type catalog
// entries (internal/catalog) quote one node's draw at training load;
// integrating it over a run's simulated wall clock yields the energy
// accounting in reports.
type Power float64

// Watts constructs a power from watts.
func Watts(n float64) Power { return Power(n) }

// KW constructs a power from kilowatts.
func KW(n float64) Power { return Power(n * 1e3) }

// Wattsf reports the power as watts.
func (p Power) Wattsf() float64 { return float64(p) }

// EnergyKWh returns the electrical energy, in kilowatt-hours, of
// drawing p for simulated duration d.
func (p Power) EnergyKWh(d Duration) float64 {
	return float64(p) / 1e3 * d.Secondsf() / 3600
}

// String formats the power with an adaptive unit, e.g. "350W",
// "6.50kW". Sub-watt draws render in milliwatts.
func (p Power) String() string {
	switch {
	case p < 0:
		return "-" + (-p).String()
	case p >= 1e6:
		return fmt.Sprintf("%.2fMW", float64(p)/1e6)
	case p >= 1e3:
		return fmt.Sprintf("%.2fkW", float64(p)/1e3)
	case p >= 1 || p == 0:
		return fmt.Sprintf("%gW", float64(p))
	default:
		return fmt.Sprintf("%gmW", float64(p)*1e3)
	}
}

// ParsePower parses power strings like "350W", "6.5kW", "1.2MW",
// "500mW". A bare number is watts.
//
// Matching is case-sensitive for the metric prefix — the same
// discipline ParseBandwidth applies to Gbps-vs-GBps: lowercase "m" is
// milli and uppercase "M" is mega, so "5mW" and "5MW" differ by nine
// orders of magnitude and neither is guessed from the other. The unit
// letter itself must be an uppercase "W" (SI), and "kW" accepts "KW"
// since no kelvin-watt ambiguity exists.
func ParsePower(s string) (Power, error) {
	t := strings.TrimSpace(s)
	mult := 1.0
	for _, suf := range []struct {
		name string
		m    float64
	}{
		{"GW", 1e9}, {"MW", 1e6}, {"mW", 1e-3}, {"kW", 1e3}, {"KW", 1e3}, {"W", 1},
	} {
		if strings.HasSuffix(t, suf.name) {
			mult = suf.m
			t = strings.TrimSpace(t[:len(t)-len(suf.name)])
			break
		}
	}
	v, err := strconv.ParseFloat(t, 64)
	if err != nil {
		return 0, fmt.Errorf("units: cannot parse %q as power: %v", s, err)
	}
	if v < 0 {
		return 0, fmt.Errorf("units: negative power %q", s)
	}
	return Power(v * mult), nil
}

// Cost is an amount of money in US dollars. Catalog entries use it as
// an hourly rental rate ($/hr, see Cost.For); reports use it as the
// absolute dollar cost of a run.
type Cost float64

// USD constructs a cost from dollars.
func USD(n float64) Cost { return Cost(n) }

// Dollarsf reports the cost as dollars.
func (c Cost) Dollarsf() float64 { return float64(c) }

// For treats the receiver as an hourly rate and returns the absolute
// cost of d simulated time at that rate.
func (c Cost) For(d Duration) Cost {
	return Cost(float64(c) * d.Secondsf() / 3600)
}

// String formats the cost exactly, e.g. "$12.5", "$0.004". The 'g'
// formatting with full precision guarantees ParseCost round-trips
// bit for bit; use PrettyString for fixed-width table output.
func (c Cost) String() string {
	if c < 0 {
		return "-" + (-c).String()
	}
	return "$" + strconv.FormatFloat(float64(c), 'g', -1, 64)
}

// PrettyString formats the cost for tables, e.g. "$12.50". Values
// under a cent keep four decimals so small per-sample rates stay
// visible.
func (c Cost) PrettyString() string {
	if c < 0 {
		return "-" + (-c).PrettyString()
	}
	if c > 0 && c < 0.01 {
		return fmt.Sprintf("$%.4f", float64(c))
	}
	return fmt.Sprintf("$%.2f", float64(c))
}

// ParseCost parses dollar amounts like "$12.50", "3.25", "$0.004/hr"
// — an optional leading "$" and an optional "/hr" or "/h" rate suffix
// (the rate-ness is contextual, the number is the same either way).
func ParseCost(s string) (Cost, error) {
	t := strings.TrimSpace(s)
	for _, suf := range []string{"/hr", "/h"} {
		if strings.HasSuffix(t, suf) {
			t = strings.TrimSpace(t[:len(t)-len(suf)])
			break
		}
	}
	t = strings.TrimSpace(strings.TrimPrefix(t, "$"))
	v, err := strconv.ParseFloat(t, 64)
	if err != nil {
		return 0, fmt.Errorf("units: cannot parse %q as cost: %v", s, err)
	}
	if v < 0 {
		return 0, fmt.Errorf("units: negative cost %q", s)
	}
	return Cost(v), nil
}
