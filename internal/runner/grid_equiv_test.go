package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"mpress/internal/trace"
)

// TestTPDegreeOneEquivalence is the refactor's compatibility promise:
// a degenerate grid (TPDegree=1 — explicitly spelled out or left
// zero) is not a new configuration but the exact legacy one.
// Fingerprints, plan keys, reports, canonical plan files and Chrome
// traces must all be byte-identical to the pre-grid flat mapping, for
// every system the determinism tests cover.
func TestTPDegreeOneEquivalence(t *testing.T) {
	presets := []struct {
		name string
		cfg  Config
	}{
		{"mpress", bertCfg(t, "1.67B", SystemMPress)},
		{"d2d", bertCfg(t, "0.64B", SystemMPressD2D)},
		{"recompute", bertCfg(t, "0.64B", SystemRecompute)},
		{"swap", bertCfg(t, "0.64B", SystemGPUCPUSwap)},
		{"plain", bertCfg(t, "0.35B", SystemPlain)},
	}
	r := New(Options{Workers: 1, KeepArtifacts: true})
	for _, p := range presets {
		t.Run(p.name, func(t *testing.T) {
			legacy := p.cfg // TPDegree zero: the pre-grid config
			explicit := p.cfg
			explicit.TPDegree = 1

			jl, je := mustJob(t, legacy), mustJob(t, explicit)
			if jl.Fingerprint() != je.Fingerprint() {
				t.Fatalf("fingerprints differ: %s vs %s", jl.Fingerprint(), je.Fingerprint())
			}
			if jl.PlanKey() != je.PlanKey() {
				t.Fatalf("plan keys differ: %s vs %s", jl.PlanKey(), je.PlanKey())
			}

			rl, re := r.Run(context.Background(), jl), r.Run(context.Background(), je)
			if rl.Err != nil || re.Err != nil {
				t.Fatalf("run errors: %v / %v", rl.Err, re.Err)
			}

			// Reports serialize identically (the wire/CSV surface).
			bl, err := json.Marshal(rl.Report)
			if err != nil {
				t.Fatal(err)
			}
			be, err := json.Marshal(re.Report)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bl, be) {
				t.Errorf("report JSON differs:\n%s\nvs\n%s", bl, be)
			}

			// Canonical plan files are byte-identical (nil for plain).
			if (rl.State.Plan == nil) != (re.State.Plan == nil) {
				t.Fatalf("plan presence differs: %v vs %v", rl.State.Plan != nil, re.State.Plan != nil)
			}
			if rl.State.Plan != nil {
				var fl, fe bytes.Buffer
				if err := jl.SavePlan(&fl, rl.State.Plan); err != nil {
					t.Fatal(err)
				}
				if err := je.SavePlan(&fe, re.State.Plan); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(fl.Bytes(), fe.Bytes()) {
					t.Error("canonical plan files differ")
				}
			}

			// Chrome traces are byte-identical, and neither run names
			// lanes (metadata events only appear at TP > 1).
			var tl, te bytes.Buffer
			for _, pair := range []struct {
				res JobResult
				buf *bytes.Buffer
			}{{rl, &tl}, {re, &te}} {
				tml := trace.Collect(pair.res.State.ExecOpts, pair.res.State.Exec)
				if names := pair.res.State.TraceLaneNames(); names != nil {
					t.Errorf("degenerate grid names lanes: %v", names)
				}
				if err := tml.WriteChrome(pair.buf); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(tl.Bytes(), te.Bytes()) {
				t.Error("chrome trace bytes differ")
			}
		})
	}
}
