package runner

import (
	"context"
	"math"
	"testing"

	"mpress/internal/hw"
	"mpress/internal/model"
	"mpress/internal/units"
)

func priceTestConfig(t *testing.T) Config {
	t.Helper()
	m, err := model.BertVariants.Lookup("0.35B")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Topology:       hw.DGX1(),
		Model:          m,
		MicrobatchSize: 12,
		System:         SystemMPress,
	}
}

func runOne(t *testing.T, cfg Config) *Report {
	t.Helper()
	j, err := NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jr := New(Options{}).Run(context.Background(), j)
	if jr.Err != nil {
		t.Fatal(jr.Err)
	}
	return jr.Report
}

// Pricing joins the fingerprint only when attached — a Config without
// Price must fingerprint exactly as it did before the field existed —
// and never the plan key, so priced and unpriced sweeps share plans.
func TestPriceFingerprintGating(t *testing.T) {
	plain, err := NewJob(priceTestConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := priceTestConfig(t)
	cfg.Price = &Price{NodePower: units.KW(3.5), NodeHourlyCost: units.USD(14)}
	priced, err := NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Fingerprint() == priced.Fingerprint() {
		t.Error("pricing did not change the fingerprint")
	}
	if plain.PlanKey() != priced.PlanKey() {
		t.Error("pricing changed the plan key; priced and unpriced runs must share plans")
	}
	cfg2 := priceTestConfig(t)
	cfg2.Price = &Price{NodePower: units.KW(3.5), NodeHourlyCost: units.USD(21)}
	repriced, err := NewJob(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if repriced.Fingerprint() == priced.Fingerprint() {
		t.Error("different rates fingerprint identically")
	}
}

func TestPriceValidate(t *testing.T) {
	cfg := priceTestConfig(t)
	cfg.Price = &Price{NodePower: units.Watts(-1)}
	if _, err := NewJob(cfg); err == nil {
		t.Error("negative power validated")
	}
	cfg.Price = &Price{NodeHourlyCost: units.USD(-1)}
	if _, err := NewJob(cfg); err == nil {
		t.Error("negative cost validated")
	}
}

// A priced run's Report must carry energy and cost consistent with its
// wall clock; an unpriced run must leave both zero.
func TestPricedReport(t *testing.T) {
	cfg := priceTestConfig(t)
	cfg.Price = &Price{NodePower: units.KW(3.5), NodeHourlyCost: units.USD(14)}
	rep := runOne(t, cfg)
	if rep.Failed() {
		t.Fatal("priced run OOMed")
	}
	hours := rep.Duration.Secondsf() / 3600
	wantKWh := 3.5 * hours * float64(rep.Replicas)
	if math.Abs(rep.EnergyKWh-wantKWh) > 1e-12*wantKWh {
		t.Errorf("EnergyKWh = %g, want %g", rep.EnergyKWh, wantKWh)
	}
	wantUSD := 14 * hours * float64(rep.Replicas)
	if math.Abs(rep.CostUSD-wantUSD) > 1e-12*wantUSD {
		t.Errorf("CostUSD = %g, want %g", rep.CostUSD, wantUSD)
	}

	plain := runOne(t, priceTestConfig(t))
	if plain.EnergyKWh != 0 || plain.CostUSD != 0 {
		t.Errorf("unpriced report has EnergyKWh=%g CostUSD=%g", plain.EnergyKWh, plain.CostUSD)
	}
	// Pricing must not perturb the simulation itself.
	if plain.Duration != rep.Duration || plain.SamplesPerSec != rep.SamplesPerSec {
		t.Error("pricing changed the simulated outcome")
	}
}
