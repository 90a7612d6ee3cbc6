package mpress_test

// Acceptance test for the parallel planner: refinement with a worker
// pool must be invisible in the artifact. For every planner preset the
// plans produced at PlanWorkers=8 and at the default width (0: the
// runner's share of GOMAXPROCS, which make splice-smoke varies) are
// byte-for-byte identical to the sequential one — compared through api.CanonicalPlanFile, the same
// re-rendering path a client uses to persist a plan fetched from
// mpressd — and the Emulations accounting (serialized in the plan
// file) matches too. Under -race this doubles as the data-race check
// on the worker pool; the slowest preset is skipped there to keep the
// race suite's runtime bounded, since the byte-identity of every
// preset is already covered by the plain run.

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"mpress"
	"mpress/internal/experiments"
	"mpress/internal/serve/api"
)

// planFile runs cfg on a fresh single-worker runner (bypassing any
// plan cache — PlanWorkers is excluded from the cache key, so a shared
// runner would hand later worker settings the first one's plan) and
// returns the job's canonical plan file bytes.
func planFile(t *testing.T, cfg mpress.Config) []byte {
	t.Helper()
	j, err := mpress.NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := mpress.NewRunner(mpress.RunnerOptions{Workers: 1}).Run(context.Background(), j)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Report.Failed() {
		t.Fatalf("unexpected OOM: %v", res.Report.OOM)
	}
	var buf bytes.Buffer
	if err := j.SavePlan(&buf, res.Report.Plan); err != nil {
		t.Fatal(err)
	}
	resp := api.PlanResponse{Plan: json.RawMessage(buf.Bytes())}
	canonical, err := resp.CanonicalPlanFile()
	if err != nil {
		t.Fatal(err)
	}
	return canonical
}

func TestParallelPlannerDeterministic(t *testing.T) {
	for _, p := range experiments.PlannerPresets() {
		if raceEnabled && p.Name == "bertxdgx2" {
			continue // ~200 emulations on the 16-GPU box; too slow under -race
		}
		t.Run(p.Name, func(t *testing.T) {
			seq := p.Cfg
			seq.PlanWorkers = 1
			want := planFile(t, seq)
			for _, workers := range []int{8, 0} {
				par := p.Cfg
				par.PlanWorkers = workers
				if got := planFile(t, par); !bytes.Equal(want, got) {
					t.Errorf("plan differs between PlanWorkers=1 (%d bytes) and PlanWorkers=%d (%d bytes)",
						len(want), workers, len(got))
				}
			}
		})
	}
}
