package experiments

import (
	"context"
	"fmt"
	"io"

	"mpress"
)

func init() {
	register(Experiment{
		Name:  "autosearch",
		Title: "Planner v2 auto-search: the searched winner vs every hand preset on time-to-fit",
		Run:   Autosearch,
	})
}

// autosearchSpace is the per-preset strategy space: every hand-preset
// system at the preset's own stage count and partition. Each candidate
// is therefore exactly one hand preset, so the searched winner beating
// or tying every candidate IS the meets-or-beats guarantee, checked
// here on every run.
func autosearchSpace() mpress.SearchSpace {
	return mpress.SearchSpace{
		Systems: []mpress.System{
			mpress.SystemMPress, mpress.SystemMPressD2D, mpress.SystemRecompute,
			mpress.SystemGPUCPUSwap, mpress.SystemPlain,
		},
	}
}

// Autosearch runs the planner-v2 searcher over the determinism-suite
// model×topology pairs (the planner presets) and prints every hand
// preset's time-to-fit next to the searched winner. A winner losing to
// any hand preset is an error, not a table row — the experiment is the
// regression guard for the search objective.
func Autosearch(w io.Writer) error {
	t := newTable("Preset", "Strategy", "Outcome", "Time-to-fit", "Winner")
	for _, p := range PlannerPresets() {
		res, err := mpress.AutoSearch(context.Background(), p.Cfg, autosearchSpace(),
			mpress.SearchOptions{Runner: sharedRunner})
		if err != nil {
			return fmt.Errorf("autosearch %s: %w", p.Name, err)
		}
		best := res.Best()
		if best == nil {
			return fmt.Errorf("autosearch %s: no feasible strategy", p.Name)
		}
		for i := range res.Candidates {
			c := &res.Candidates[i]
			mark := ""
			if c.Rank == res.Winner {
				mark = "*"
			}
			ttf := "-"
			switch {
			case c.Eval != nil && c.Eval.OOM:
				ttf = "OOM"
			case c.Eval != nil:
				ttf = fmt.Sprint(c.TimeToFit)
				if c.TimeToFit < best.TimeToFit {
					return fmt.Errorf("autosearch %s: winner %v (%v) loses to preset %v (%v)",
						p.Name, best.Key, best.TimeToFit, c.Key, c.TimeToFit)
				}
			case c.Outcome == mpress.SearchPruned:
				ttf = fmt.Sprintf(">=%v", c.Bound)
			}
			t.add(p.Name, c.Key.String(), string(c.Outcome), ttf, mark)
		}
		t.addf("%s|search|%d expanded, %d pruned, %d memo|-|-",
			p.Name, res.Expanded, res.Pruned, res.MemoHits)
	}
	t.write(w)
	return nil
}
