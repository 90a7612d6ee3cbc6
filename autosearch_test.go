package mpress_test

// Acceptance tests for planner v2 (internal/search), over the same
// determinism-suite model×topology pairs the parallel-planner test
// covers: the auto-searched strategy meets or beats every hand preset
// on time-to-fit, and the winner — strategy, report and plan — is
// byte-identical at every worker count. Under -race the slowest pair
// is skipped to keep the race suite's runtime bounded, matching
// TestParallelPlannerDeterministic.

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"mpress"
	"mpress/internal/experiments"
)

// presetSpace is the acceptance search space: every hand-preset system
// at the pair's own stage count and partition, so each candidate is
// exactly one hand preset.
func presetSpace() mpress.SearchSpace {
	return mpress.SearchSpace{
		Systems: []mpress.System{
			mpress.SystemMPress, mpress.SystemMPressD2D, mpress.SystemRecompute,
			mpress.SystemGPUCPUSwap, mpress.SystemPlain,
		},
	}
}

func autoSearch(t *testing.T, cfg mpress.Config, o mpress.SearchOptions) *mpress.SearchResult {
	t.Helper()
	res, err := mpress.AutoSearch(context.Background(), cfg, presetSpace(), o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAutoSearchBeatsPresets: for every determinism pair, the searched
// winner's time-to-fit is <= every hand preset's, cross-checked by
// full enumeration (pruning disabled), so the claim holds against the
// whole space, not just the candidates the bound let through.
func TestAutoSearchBeatsPresets(t *testing.T) {
	for _, p := range experiments.PlannerPresets() {
		if raceEnabled && p.Name == "bertxdgx2" {
			continue // the 16-GPU stress pair; too slow under -race
		}
		t.Run(p.Name, func(t *testing.T) {
			// Both searches share one transposition table, so the
			// pruned cross-check re-decides every candidate without
			// re-simulating anything.
			tab := mpress.NewSearchTable()
			res := autoSearch(t, p.Cfg, mpress.SearchOptions{Runner: mpress.NewRunner(mpress.RunnerOptions{Workers: 2}), FullEnum: true, Table: tab})
			best := res.Best()
			if best == nil {
				t.Fatal("no feasible strategy among the hand presets")
			}
			for i := range res.Candidates {
				c := &res.Candidates[i]
				if c.Eval == nil || c.Eval.OOM {
					continue
				}
				if c.TimeToFit < best.TimeToFit {
					t.Errorf("hand preset %v (%v) beats the searched winner %v (%v)",
						c.Key, c.TimeToFit, best.Key, best.TimeToFit)
				}
			}
			// And the pruned search agrees with full enumeration.
			pruned := autoSearch(t, p.Cfg, mpress.SearchOptions{Runner: mpress.NewRunner(mpress.RunnerOptions{Workers: 2}), Table: tab})
			pb := pruned.Best()
			if pb == nil || pb.Key != best.Key || pb.TimeToFit != best.TimeToFit {
				t.Errorf("pruned winner %+v differs from full enumeration %+v", pb, best)
			}
		})
	}
}

// TestAutoSearchDeterministicAcrossWorkers: the whole canonical result
// — winner strategy, its plan, every counter — is byte-identical at
// workers=1 and workers=8. The cheap pairs cover this under -race too
// (the data-race check on the wave-evaluation pool).
func TestAutoSearchDeterministicAcrossWorkers(t *testing.T) {
	for _, p := range experiments.PlannerPresets() {
		if p.Name == "bertxdgx2" {
			continue // byte-identity is fully covered by the cheap pairs
		}
		t.Run(p.Name, func(t *testing.T) {
			canonical := func(workers int) []byte {
				res := autoSearch(t, p.Cfg, mpress.SearchOptions{Runner: mpress.NewRunner(mpress.RunnerOptions{Workers: workers})})
				cp := *res
				cp.Wall = 0
				var buf bytes.Buffer
				mpress.WriteSearchReport(&buf, &cp)
				js, err := json.MarshalIndent(&cp, "", " ")
				if err != nil {
					t.Fatal(err)
				}
				buf.Write(js)
				if cp.WinnerReport == nil || cp.WinnerReport.Plan == nil {
					t.Fatal("winner carries no plan")
				}
				pj, err := json.Marshal(cp.WinnerReport.Plan)
				if err != nil {
					t.Fatal(err)
				}
				buf.Write(pj)
				return buf.Bytes()
			}
			w1, w8 := canonical(1), canonical(8)
			if !bytes.Equal(w1, w8) {
				t.Errorf("search result differs between workers 1 and 8:\n--- w1 ---\n%s\n--- w8 ---\n%s", w1, w8)
			}
		})
	}
}
