package units

import (
	"fmt"
	"strconv"
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

// String formats the cost exactly, e.g. "$12.5", "$0.004": the 'g'
// formatting keeps full float precision. Use PrettyString for
// fixed-width table output.
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
