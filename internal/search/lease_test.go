package search_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"mpress/internal/experiments"
	"mpress/internal/runner"
	"mpress/internal/search"
)

// basisTriple is one planner basis: a canonical lowering, the plane it
// is planned on and the mapping switch. Candidates that differ only in
// system (the mechanisms the planner may use) share one.
type basisTriple struct {
	lowering, plane string
	identity        bool
}

// TestSearchPaysPerLowering: a DefaultSpace search holds its
// candidates' lowerings for its whole run, so each distinct lowering the
// search's jobs run on is built once, and each distinct (lowering,
// plane, mapping switch) the planner reads gets one profile run and one
// mapping step, at 1 and 4 workers. The report is byte-identical at
// both, and the runner holds no lowering once Run returns: after a
// normal run, a cancelled one and an oversize space alike.
func TestSearchPaysPerLowering(t *testing.T) {
	for _, p := range experiments.PlannerPresets() {
		if p.Name != "bertxdgx1" && p.Name != "gptxdgx2" {
			continue
		}
		t.Run(p.Name, func(t *testing.T) {
			var reports [][]byte
			for _, workers := range []int{1, 4} {
				var mu sync.Mutex
				lowerings := map[string]bool{}
				bases := map[basisTriple]bool{}
				onDone := func(jr runner.JobResult) {
					st := jr.State
					if jr.Err != nil || st == nil || st.Built == nil {
						return
					}
					mu.Lock()
					defer mu.Unlock()
					own := st.Built.Cfg
					lowerings[fmt.Sprintf("%#v", own)] = true
					if st.Plan == nil || jr.PlanCacheHit {
						return
					}
					canon := own
					canon.Minibatches = 2 // the runner plans at the canonical count
					key := fmt.Sprintf("%#v", canon)
					lowerings[key] = true
					plane := st.Grid.Plane()
					bases[basisTriple{key, plane.Canonical(),
						jr.Job.Config.DisableMappingSearch || plane.Switched}] = true
				}
				r := runner.New(runner.Options{Workers: workers, KeepArtifacts: true, OnJobDone: onDone})
				res, err := search.Run(context.Background(), p.Cfg, search.DefaultSpace(p.Cfg), search.Options{Runner: r})
				if err != nil {
					t.Fatal(err)
				}
				st := r.Stats()
				if st.LoweringBuilds != int64(len(lowerings)) {
					t.Errorf("workers=%d: %d lowering builds, want one per distinct lowering (%d)",
						workers, st.LoweringBuilds, len(lowerings))
				}
				if st.PlannerBases != int64(len(bases)) || st.PlanComputes <= st.PlannerBases {
					t.Errorf("workers=%d: %d profile runs and mapping steps for %d plan computes, want one per distinct (lowering, plane, switch) (%d)",
						workers, st.PlannerBases, st.PlanComputes, len(bases))
				}
				if st.LoweringEntries != 0 {
					t.Errorf("workers=%d: %d lowerings held after Run", workers, st.LoweringEntries)
				}
				var buf bytes.Buffer
				search.WriteReport(&buf, res)
				reports = append(reports, buf.Bytes())
			}
			if !bytes.Equal(reports[0], reports[1]) {
				t.Errorf("reports differ between workers 1 and 4:\n--- w1 ---\n%s\n--- w4 ---\n%s", reports[0], reports[1])
			}

			// Cancelled after the first job finishes: Run fails with the
			// context's error and still releases what it held.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			r := runner.New(runner.Options{Workers: 2, OnJobDone: func(runner.JobResult) { cancel() }})
			if _, err := search.Run(ctx, p.Cfg, search.DefaultSpace(p.Cfg), search.Options{Runner: r}); !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled search: err = %v, want context.Canceled", err)
			}
			if n := r.Stats().LoweringEntries; n != 0 {
				t.Errorf("cancelled search: %d lowerings held after Run", n)
			}

			// An oversize space is refused before anything is held.
			r = runner.New(runner.Options{Workers: 2})
			if _, err := search.Run(context.Background(), p.Cfg, search.Space{StageCounts: make([]int, 5000)},
				search.Options{Runner: r}); err == nil {
				t.Error("oversize space: no error")
			}
			if n := r.Stats().LoweringEntries; n != 0 {
				t.Errorf("oversize space: %d lowerings held after Run", n)
			}
		})
	}
}
