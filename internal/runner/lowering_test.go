package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"testing"

	"mpress/internal/chaos"
	"mpress/internal/ckpt"
	"mpress/internal/cluster"
	"mpress/internal/trace"
	"mpress/internal/units"
)

// jobArtifacts renders a kept job result's report JSON, canonical plan
// file and Chrome trace (the resilient wall-clock timeline when there
// is one).
func jobArtifacts(t *testing.T, res JobResult) (report, planFile, chrome []byte) {
	t.Helper()
	if res.Err != nil {
		t.Fatalf("%s: %v", res.Job.Fingerprint(), res.Err)
	}
	report, err := json.Marshal(res.Report)
	if err != nil {
		t.Fatal(err)
	}
	var pb, tb bytes.Buffer
	if pl := res.State.Plan; pl != nil {
		if err := res.Job.SavePlan(&pb, pl); err != nil {
			t.Fatal(err)
		}
	}
	tl := res.State.Timeline()
	if tl == nil {
		tl = trace.Collect(res.State.ExecOpts, res.State.Exec)
	}
	if err := tl.WriteChrome(&tb); err != nil {
		t.Fatal(err)
	}
	return report, pb.Bytes(), tb.Bytes()
}

// runAlone runs each config on a fresh single-worker runner.
func runAlone(t *testing.T, cfgs []Config) []JobResult {
	t.Helper()
	out := make([]JobResult, len(cfgs))
	for i, c := range cfgs {
		out[i] = New(Options{Workers: 1}).RunKeep(context.Background(), mustJob(t, c))
		if out[i].Err != nil {
			t.Fatalf("job %d alone: %v", i, out[i].Err)
		}
	}
	return out
}

// scaleOutBatch is a sweep-shaped batch: node counts × minibatches
// 8/32 of one planned job, plus the plain system at both minibatch
// counts. The scale-out jobs of one minibatch count lower identically
// to each other and to the plain job.
func scaleOutBatch(t *testing.T) []Config {
	t.Helper()
	var cfgs []Config
	for _, mb := range []int{8, 32} {
		for _, n := range []int{1, 2, 4} {
			c := clusterCfg(t, n, cluster.InfiniBand4x100(), SystemMPress)
			c.Minibatches = mb
			cfgs = append(cfgs, c)
		}
		p := bertCfg(t, "0.64B", SystemPlain)
		p.Minibatches = mb
		cfgs = append(cfgs, p)
	}
	return cfgs
}

// TestSharedLoweringsMatchAlone: a batch whose jobs share lowerings —
// scale-out node counts × minibatches 8/32, a plain-system job, and
// resilience cells whose GPU failure forces a re-plan — produces
// reports, saved plans and Chrome traces byte-identical to each job
// run alone on a fresh runner, at 1 and 4 workers. Run under -race
// (make sweep-smoke) it also proves that concurrent jobs only read the
// shared frozen lowerings.
func TestSharedLoweringsMatchAlone(t *testing.T) {
	cfgs := scaleOutBatch(t)
	alone := runAlone(t, cfgs)
	ideal := alone[0].Report.Duration // the 1-node, 8-minibatch job
	for _, every := range []int{10, 4} {
		c := bertCfg(t, "0.64B", SystemMPress)
		c.Minibatches = 8
		c.Faults = &chaos.Config{Script: []chaos.Fault{{Kind: chaos.GPUFail, At: ideal / 3, GPU: 3}}}
		c.Checkpoint = &ckpt.Policy{Interval: ideal / units.Duration(every)}
		cfgs = append(cfgs, c)
		res := runAlone(t, []Config{c})[0]
		if res.Report.Failures != 1 || res.State.Recovered == nil {
			t.Fatalf("resilience cell did not re-plan: %d failures", res.Report.Failures)
		}
		alone = append(alone, res)
	}

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			r := New(Options{Workers: workers, KeepArtifacts: true})
			jobs := make([]*Job, len(cfgs))
			for i, c := range cfgs {
				jobs[i] = mustJob(t, c)
			}
			results := r.RunAll(context.Background(), jobs)
			for i, res := range results {
				if res.Job != jobs[i] {
					t.Fatalf("result %d is for another job", i)
				}
				gotRep, gotPlan, gotTrace := jobArtifacts(t, res)
				wantRep, wantPlan, wantTrace := jobArtifacts(t, alone[i])
				if !bytes.Equal(gotRep, wantRep) {
					t.Errorf("job %d: report differs from the job run alone", i)
				}
				if !bytes.Equal(gotPlan, wantPlan) {
					t.Errorf("job %d: saved plan differs from the job run alone", i)
				}
				if !bytes.Equal(gotTrace, wantTrace) {
					t.Errorf("job %d: Chrome trace differs from the job run alone", i)
				}
			}
			st := r.Stats()
			if st.LoweringShared == 0 {
				t.Error("no job shared a lowering")
			}
			if n := len(r.lowers.entries); n != 0 {
				t.Errorf("%d lowerings retained after RunAll", n)
			}
		})
	}
}

// TestLoweringRetention: RunAll builds each distinct lowering of its
// batch exactly once, serves every other fetch from the shared entry,
// and retains nothing once it returns; a lone Run retains nothing
// either.
func TestLoweringRetention(t *testing.T) {
	cfgs := scaleOutBatch(t)
	jobs := make([]*Job, len(cfgs))
	distinct := map[string]bool{}
	fetches := 0
	for i, c := range cfgs {
		jobs[i] = mustJob(t, c)
		for _, bc := range lowerConfigs(jobs[i].Config) {
			distinct[lowerKey(bc)] = true
			fetches++
		}
	}
	// Canonical and own lowerings of both minibatch counts.
	if len(distinct) != 3 {
		t.Fatalf("batch has %d distinct lowerings, want 3", len(distinct))
	}
	for _, workers := range []int{1, 2} {
		r := New(Options{Workers: workers})
		for i, res := range r.RunAll(context.Background(), jobs) {
			if res.Err != nil {
				t.Fatalf("job %d: %v", i, res.Err)
			}
		}
		st := r.Stats()
		if st.LoweringBuilds != int64(len(distinct)) {
			t.Errorf("workers=%d: %d builds, want one per distinct lowering (%d)",
				workers, st.LoweringBuilds, len(distinct))
		}
		// Every job fetches its listed lowerings; a job that computes a
		// plan fetches the canonical one once more, for the planner.
		if got, want := st.LoweringBuilds+st.LoweringShared, int64(fetches)+st.PlanComputes; got != want {
			t.Errorf("workers=%d: %d fetches, want %d", workers, got, want)
		}
		if n := len(r.lowers.entries); n != 0 {
			t.Errorf("workers=%d: %d lowerings retained after RunAll", workers, n)
		}
		if res := r.Run(context.Background(), jobs[0]); res.Err != nil {
			t.Fatal(res.Err)
		}
		if n := len(r.lowers.entries); n != 0 {
			t.Errorf("workers=%d: %d lowerings retained after Run", workers, n)
		}
	}
}

// TestDispatchGroupsByLowering: RunAll's dispatch order runs jobs that
// share a canonical lowering together and, within that, jobs sharing
// their own lowering back to back, groups in first-appearance order,
// ties in input order; and every job's keys are reserved up front.
func TestDispatchGroupsByLowering(t *testing.T) {
	mpress := func(mb int) Config {
		c := bertCfg(t, "0.64B", SystemMPress)
		c.Minibatches = mb
		return c
	}
	plain := bertCfg(t, "0.64B", SystemPlain)
	plain.Minibatches = 8
	zero := bertCfg(t, "0.64B", SystemZeRO3)
	cfgs := []Config{mpress(8), mpress(32), plain, mpress(8), mpress(32), zero}
	jobs := make([]*Job, len(cfgs))
	for i, c := range cfgs {
		jobs[i] = mustJob(t, c)
	}
	r := New(Options{})
	leases, order := r.reserve(jobs)
	// Ranks: canonical 0, own mb8 1, own mb32 2. The ZeRO job lowers
	// nothing and sorts first; the plain job's only key is own mb8.
	if want := []int{5, 0, 3, 1, 4, 2}; !slices.Equal(order, want) {
		t.Errorf("dispatch order %v, want %v", order, want)
	}
	refs := map[int]int{}
	for _, e := range r.lowers.entries {
		refs[e.refs]++
	}
	// Canonical: 4 planned jobs; own mb8: 2 planned + plain; own mb32: 2.
	if want := map[int]int{4: 1, 3: 1, 2: 1}; !maps.Equal(refs, want) {
		t.Errorf("reservation counts %v, want %v", refs, want)
	}
	for _, l := range leases {
		l.release()
	}
	if len(r.lowers.entries) != 0 {
		t.Errorf("%d entries survive releasing every reservation", len(r.lowers.entries))
	}
}
