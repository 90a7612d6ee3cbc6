package runner

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"mpress/internal/hw"
	"mpress/internal/model"
	"mpress/internal/pipeline"
	"mpress/internal/plan"
	"mpress/internal/units"
)

// bertCfg is the test workhorse: small enough to simulate in well
// under a second, big enough to exercise the full stage pipeline.
func bertCfg(t *testing.T, size string, sys System) Config {
	t.Helper()
	m, err := model.BertVariants.Lookup(size)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Topology:       hw.DGX1(),
		Model:          m,
		Schedule:       pipeline.PipeDream,
		System:         sys,
		MicrobatchSize: 12,
	}
}

func mustJob(t *testing.T, cfg Config) *Job {
	t.Helper()
	j, err := NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestFingerprintAndPlanKey(t *testing.T) {
	base := bertCfg(t, "0.64B", SystemMPress)
	j1, j2 := mustJob(t, base), mustJob(t, base)
	if j1.Fingerprint() != j2.Fingerprint() || j1.PlanKey() != j2.PlanKey() {
		t.Fatal("identical configs must fingerprint identically")
	}

	// Minibatches is excluded from the plan key but not the fingerprint.
	mini := base
	mini.Minibatches = 4
	jm := mustJob(t, mini)
	if jm.Fingerprint() == j1.Fingerprint() {
		t.Error("minibatch count must change the fingerprint")
	}
	if jm.PlanKey() != j1.PlanKey() {
		t.Error("minibatch count must not change the plan key")
	}

	// The ablation knobs key distinct plans.
	for _, mutate := range []func(*Config){
		func(c *Config) { c.DisableStriping = true },
		func(c *Config) { c.DisableMappingSearch = true },
		func(c *Config) { c.System = SystemRecompute },
	} {
		v := base
		mutate(&v)
		if jv := mustJob(t, v); jv.PlanKey() == j1.PlanKey() {
			t.Errorf("variant %+v shares the base plan key", v)
		}
	}

	// Systems that never run the planner have no plan key.
	for _, sys := range []System{SystemPlain, SystemZeRO3, SystemZeROOffload, SystemZeROInfinity} {
		if j := mustJob(t, bertCfg(t, "0.64B", sys)); j.PlanKey() != "" {
			t.Errorf("%v has a plan key", sys)
		}
	}
}

// TestDeterminism is the regression test for the refactor's core
// promise: the same Config yields byte-identical Reports whether run
// serially through Train or concurrently through a Runner alongside
// other jobs.
func TestDeterminism(t *testing.T) {
	cfg := bertCfg(t, "1.67B", SystemMPress)
	rep1, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatal("two serial Train calls disagree")
	}

	// The same config twice in a concurrent batch, interleaved with
	// different jobs contending for the worker pool and plan cache.
	r := New(Options{Workers: 4})
	batch := []Config{
		cfg,
		bertCfg(t, "0.64B", SystemRecompute),
		bertCfg(t, "0.64B", SystemGPUCPUSwap),
		cfg,
	}
	results := r.RunConfigs(context.Background(), batch)
	for _, i := range []int{0, 3} {
		if results[i].Err != nil {
			t.Fatalf("job %d: %v", i, results[i].Err)
		}
		if !reflect.DeepEqual(results[i].Report, rep1) {
			t.Errorf("concurrent job %d's report differs from the serial one", i)
		}
	}
	st := r.Stats()
	if st.Jobs != 4 {
		t.Errorf("jobs counter = %d, want 4", st.Jobs)
	}
	// Three distinct plan keys; the duplicated config reuses its twin's.
	if st.PlanComputes != 3 || st.PlanCacheHits != 1 {
		t.Errorf("plan cache: %d computes, %d hits; want 3, 1", st.PlanComputes, st.PlanCacheHits)
	}
}

func TestMinibatchVariantsSharePlan(t *testing.T) {
	base := bertCfg(t, "0.64B", SystemMPress)
	vary := base
	vary.Minibatches = 4

	r := New(Options{Workers: 1})
	results := r.RunConfigs(context.Background(), []Config{base, vary})
	for i, jr := range results {
		if jr.Err != nil {
			t.Fatalf("job %d: %v", i, jr.Err)
		}
	}
	st := r.Stats()
	if st.PlanComputes != 1 || st.PlanCacheHits != 1 {
		t.Fatalf("plan cache: %d computes, %d hits; want 1, 1", st.PlanComputes, st.PlanCacheHits)
	}
	if results[0].PlanCacheHit || !results[1].PlanCacheHit {
		t.Errorf("cache hit flags = %v, %v; want false, true", results[0].PlanCacheHit, results[1].PlanCacheHit)
	}

	// The rebased cached plan must reproduce a from-scratch run.
	fresh, err := Train(vary)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(results[1].Report, fresh) {
		t.Error("cached+rebased report differs from a from-scratch Train")
	}
}

func TestKnobVariantsMissCache(t *testing.T) {
	base := bertCfg(t, "0.64B", SystemMPress)
	noStripe := base
	noStripe.DisableStriping = true
	noMap := base
	noMap.DisableMappingSearch = true

	r := New(Options{Workers: 1})
	results := r.RunConfigs(context.Background(), []Config{base, noStripe, noMap})
	for i, jr := range results {
		if jr.Err != nil {
			t.Fatalf("job %d: %v", i, jr.Err)
		}
		if jr.PlanCacheHit {
			t.Errorf("job %d hit the cache across ablation knobs", i)
		}
	}
	if st := r.Stats(); st.PlanComputes != 3 || st.PlanCacheHits != 0 {
		t.Errorf("plan cache: %d computes, %d hits; want 3, 0", st.PlanComputes, st.PlanCacheHits)
	}
}

// TestDisableMappingSearchSavedBytes pins the Fig. 9 "no mapping
// search" ablation on DGX-1: the identity placement is scored without
// walking the 8! assignments, and the plan saves exactly what it did
// when the walk ran and its winner was discarded.
func TestDisableMappingSearchSavedBytes(t *testing.T) {
	cfg := bertCfg(t, "0.64B", SystemMPress)
	cfg.DisableMappingSearch = true
	r, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.OOM != nil {
		t.Fatalf("OOM: %v", r.OOM)
	}
	for s, g := range r.Plan.Mapping {
		if int(g) != s {
			t.Fatalf("mapping not identity: %v", r.Plan.Mapping)
		}
	}
	want := map[plan.Mechanism]units.Bytes{
		plan.MechRecompute: 0,
		plan.MechHostSwap:  6782402560,
		plan.MechD2D:       7332691968,
	}
	for mech, b := range want {
		if got := r.Plan.SavedByMech[mech]; got != b {
			t.Errorf("%v saved %d bytes, want %d", mech, int64(got), int64(b))
		}
	}
	if r.Plan.Emulations != 2 || r.Duration != 41096553958 {
		t.Errorf("emulations %d, duration %d; want 2, 41096553958", r.Plan.Emulations, int64(r.Duration))
	}
}

func TestSingleflightComputesOnce(t *testing.T) {
	cfg := bertCfg(t, "0.64B", SystemMPress)
	jobs := make([]*Job, 4)
	for i := range jobs {
		jobs[i] = mustJob(t, cfg)
	}
	r := New(Options{Workers: 4})
	results := r.RunAll(context.Background(), jobs)
	for i, jr := range results {
		if jr.Err != nil {
			t.Fatalf("job %d: %v", i, jr.Err)
		}
		if i > 0 && !reflect.DeepEqual(jr.Report, results[0].Report) {
			t.Errorf("job %d's report differs", i)
		}
	}
	st := r.Stats()
	if st.PlanComputes != 1 {
		t.Errorf("identical concurrent jobs ran the planner %d times, want 1", st.PlanComputes)
	}
	if st.PlanCacheHits != 3 {
		t.Errorf("plan cache hits = %d, want 3", st.PlanCacheHits)
	}
}

func TestCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := New(Options{Workers: 2})
	results := r.RunConfigs(ctx, []Config{
		bertCfg(t, "0.64B", SystemMPress),
		bertCfg(t, "0.64B", SystemPlain),
	})
	for i, jr := range results {
		if !errors.Is(jr.Err, context.Canceled) {
			t.Errorf("job %d: want context.Canceled, got %v", i, jr.Err)
		}
		if jr.Report != nil {
			t.Errorf("job %d produced a report despite cancellation", i)
		}
	}
}

func TestRunConfigsSlotsValidationErrors(t *testing.T) {
	good := bertCfg(t, "0.64B", SystemPlain)
	results := New(Options{Workers: 2}).RunConfigs(context.Background(),
		[]Config{good, {}, good})
	if len(results) != 3 {
		t.Fatalf("got %d results for 3 configs", len(results))
	}
	if results[1].Err == nil {
		t.Error("empty config did not error")
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Errorf("job %d: %v", i, results[i].Err)
		}
		if results[i].Report == nil {
			t.Errorf("job %d has no report", i)
		}
	}
}

func TestTrainRejectsInvalidConfig(t *testing.T) {
	if _, err := Train(Config{}); err == nil {
		t.Error("Train accepted an empty config")
	}
}

// TestWithDefaultsRejectsUnknownEnums: an out-of-range Schedule used to
// simulate silently as PipeDream (under a bogus fingerprint) and an
// out-of-range Strategy failed only inside PartitionModel; both must
// fail validation with the valid names listed, while every registered
// value still validates.
func TestWithDefaultsRejectsUnknownEnums(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		want   string // "" = must validate
	}{
		{"schedule 99", func(c *Config) { c.Schedule = 99 }, "valid schedules: pipedream, dapple, gpipe"},
		{"schedule -1", func(c *Config) { c.Schedule = -1 }, "unknown schedule"},
		{"schedule 99 on ZeRO", func(c *Config) { c.System = SystemZeRO3; c.Schedule = 99 }, "unknown schedule"},
		{"strategy 7", func(c *Config) { c.Strategy = 7 }, "valid strategies: compute-balanced, memory-balanced"},
		{"system 42", func(c *Config) { c.System = 42 }, "unknown system"},
		{"dapple", func(c *Config) { c.Schedule = pipeline.DAPPLE }, ""},
		{"gpipe", func(c *Config) { c.Schedule = pipeline.GPipe }, ""},
		{"memory-balanced", func(c *Config) { c.Strategy = pipeline.MemoryBalanced }, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := bertCfg(t, "0.64B", SystemMPress)
			tc.mutate(&cfg)
			_, err := NewJob(cfg)
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("valid config rejected: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("error = %v, want it to contain %q", err, tc.want)
			}
		})
	}
}

func TestStageTimesRecorded(t *testing.T) {
	j := mustJob(t, bertCfg(t, "0.64B", SystemRecompute))
	r := New(Options{Workers: 1})
	res := r.Run(context.Background(), j)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for _, stage := range []string{"partition", "build", "plan", "apply", "execute", "report"} {
		if _, ok := res.StageTimes[stage]; !ok {
			t.Errorf("stage %q missing from StageTimes", stage)
		}
	}
	if res.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
	st := r.Stats()
	if st.PlanTime <= 0 || st.ExecTime <= 0 {
		t.Errorf("stats timings not accumulated: plan %v, exec %v", st.PlanTime, st.ExecTime)
	}
}

func TestKeepArtifacts(t *testing.T) {
	cfg := bertCfg(t, "0.64B", SystemRecompute)
	j := mustJob(t, cfg)
	res := New(Options{Workers: 1, KeepArtifacts: true}).Run(context.Background(), j)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.State == nil || res.State.Built == nil || res.State.Exec == nil {
		t.Fatal("KeepArtifacts did not retain the pipeline state")
	}
	if res2 := New(Options{Workers: 1}).Run(context.Background(), j); res2.State != nil {
		t.Error("State retained without KeepArtifacts")
	}
}

// TestFingerprintsStable pins the exact fingerprint and plan-key
// strings of one planned job at three tensor-parallel degrees. Both
// are hashed into plan-cache keys and SavePlan labels, so any change
// to the canonical rendering — including the ";tp=%d;cp=1" suffix a
// TP > 1 job carries — invalidates every saved plan and must fail
// here first.
func TestFingerprintsStable(t *testing.T) {
	for _, tc := range []struct {
		tp          int
		fp, planKey string
	}{
		{0, "1543ff566a1f3aa96136c89fb27670a7", "c4debc937d6107e356c549d6f15e6429"},
		{2, "501bfb7d10b79d4172cfe05c15c6221c", "fba936e84f0cfd0b7a1358c9f1ad9028"},
		{4, "0474d31ada7f961eaf6c1bf7ef0ffc31", "e8aa3e10beb042eaa806f502a043a610"},
	} {
		cfg := bertCfg(t, "0.64B", SystemMPress)
		cfg.TPDegree = tc.tp
		j := mustJob(t, cfg)
		if got := j.Fingerprint(); got != tc.fp {
			t.Errorf("tp=%d: fingerprint %s, want %s", tc.tp, got, tc.fp)
		}
		if got := j.PlanKey(); got != tc.planKey {
			t.Errorf("tp=%d: plan key %s, want %s", tc.tp, got, tc.planKey)
		}
	}
}

// TestRunPlanMatchesPlanned: a plan saved from a planned run and read
// back replays through RunPlan on a fresh runner to byte-identical
// report JSON, plan file and Chrome trace — on one node, under TP and
// at a non-canonical minibatch count (whose saved plan is the rebased
// one). Systems that do not plan refuse a plan.
func TestRunPlanMatchesPlanned(t *testing.T) {
	tp := bertCfg(t, "1.67B", SystemMPress)
	tp.TPDegree = 2
	mini := bertCfg(t, "1.67B", SystemMPress)
	mini.Minibatches = 3
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"single-node", bertCfg(t, "1.67B", SystemMPress)},
		{"tp2", tp},
		{"minibatches3", mini},
	} {
		cfg := tc.cfg
		t.Run(tc.name, func(t *testing.T) {
			planned := New(Options{Workers: 1}).RunKeep(context.Background(), mustJob(t, cfg))
			rep, pf, chrome := jobArtifacts(t, planned)
			var saved bytes.Buffer
			if err := planned.Job.SavePlan(&saved, planned.Report.Plan); err != nil {
				t.Fatal(err)
			}
			j := mustJob(t, cfg)
			pl, err := j.LoadPlan(&saved, false)
			if err != nil {
				t.Fatal(err)
			}
			r := New(Options{Workers: 1})
			replayed := r.RunPlan(context.Background(), j, pl)
			if st := r.Stats(); st.PlanComputes != 0 || st.PlanCacheHits+st.PlanCacheMisses != 0 || replayed.PlanCacheHit {
				t.Errorf("RunPlan planned or used the plan cache: %+v", st)
			}
			rep2, pf2, chrome2 := jobArtifacts(t, replayed)
			if !bytes.Equal(rep, rep2) {
				t.Errorf("report JSON differs:\n%s\n%s", rep, rep2)
			}
			if !bytes.Equal(pf, pf2) {
				t.Error("plan file differs")
			}
			if !bytes.Equal(chrome, chrome2) {
				t.Errorf("Chrome trace differs: %d vs %d bytes", len(chrome), len(chrome2))
			}
		})
	}

	pl := New(Options{Workers: 1}).Run(context.Background(), mustJob(t, bertCfg(t, "1.67B", SystemMPress))).Report.Plan
	for _, sys := range []System{SystemPlain, SystemZeRO3, SystemZeROOffload, SystemZeROInfinity} {
		if res := New(Options{Workers: 1}).RunPlan(context.Background(), mustJob(t, bertCfg(t, "0.64B", sys)), pl); res.Err == nil {
			t.Errorf("RunPlan ran %v, which does not plan", sys)
		}
	}
}
