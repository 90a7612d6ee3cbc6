package runner

import (
	"context"
	"reflect"
	"testing"

	"mpress/internal/chaos"
	"mpress/internal/ckpt"
	"mpress/internal/hw"
	"mpress/internal/units"
)

// idealRun runs the config fault-free and returns its kept result.
func idealRun(t *testing.T, cfg Config) JobResult {
	t.Helper()
	r := New(Options{Workers: 1})
	res := r.RunKeep(context.Background(), mustJob(t, cfg))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Report.OOM != nil {
		t.Fatalf("ideal run OOMs: %v", res.Report.OOM)
	}
	return res
}

// stripePairs collects every (src GPU, peer GPU) D2D stripe pair of a
// run's plan, src derived from the owning stage's mapping.
func stripePairs(t *testing.T, res JobResult) map[[2]hw.DeviceID]bool {
	t.Helper()
	built := res.State.Built
	if res.State.Recovered != nil {
		built = res.State.Recovered
	}
	rep := res.Report
	pairs := map[[2]hw.DeviceID]bool{}
	for id, parts := range rep.Plan.Parts {
		stage := built.Graph.Tensors.Get(id).Stage
		src := rep.Mapping[stage]
		for _, p := range parts {
			pairs[pairKey(src, p.Peer)] = true
		}
	}
	return pairs
}

// TestNVLinkFailureReplansStriping is the headline acceptance test: an
// NVLink goes down mid-run, the job rolls back, re-plans on the
// degraded topology, and the recovered plan's D2D striping excludes
// the downed peer — while the run still completes, with goodput below
// the ideal throughput and positive lost work.
func TestNVLinkFailureReplansStriping(t *testing.T) {
	cfg := bertCfg(t, "0.64B", SystemMPress)
	base := idealRun(t, cfg)
	pairs := stripePairs(t, base)
	if len(pairs) == 0 {
		t.Fatal("baseline plan has no D2D stripes; the test needs memory pressure")
	}
	// Deterministic victim: the smallest striped pair.
	victim := [2]hw.DeviceID{127, 127}
	for p := range pairs {
		if p[0] < victim[0] || (p[0] == victim[0] && p[1] < victim[1]) {
			victim = p
		}
	}

	ideal := base.Report.Duration
	cfg.Faults = &chaos.Config{Script: []chaos.Fault{
		{Kind: chaos.NVLinkFail, At: ideal / 2, GPU: victim[0], Peer: victim[1]},
	}}
	cfg.Checkpoint = &ckpt.Policy{Interval: ideal / 8}

	res := New(Options{Workers: 1}).RunKeep(context.Background(), mustJob(t, cfg))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	rep := res.Report
	if rep.OOM != nil {
		t.Fatalf("resilient run OOMs: %v", rep.OOM)
	}
	if rep.Failures != 1 || len(rep.Recoveries) != 1 {
		t.Fatalf("Failures = %d, Recoveries = %d, want 1", rep.Failures, len(rep.Recoveries))
	}
	if rep.LostWork <= 0 {
		t.Errorf("LostWork = %v, want > 0", rep.LostWork)
	}
	if rep.Goodput <= 0 || rep.Goodput >= rep.SamplesPerSec {
		t.Errorf("Goodput = %g, want in (0, %g)", rep.Goodput, rep.SamplesPerSec)
	}
	if rep.IdealDuration != ideal {
		t.Errorf("IdealDuration = %v, want %v", rep.IdealDuration, ideal)
	}
	if rep.Duration <= ideal {
		t.Errorf("resilient Duration %v not beyond ideal %v", rep.Duration, ideal)
	}
	if rep.Checkpoints == 0 || rep.CheckpointBytes == 0 {
		t.Errorf("checkpoints = %d (%v), want some", rep.Checkpoints, rep.CheckpointBytes)
	}
	if res.State.Recovered == nil {
		t.Fatal("no recovered build recorded after a degrading fault")
	}
	recovered := stripePairs(t, res)
	if len(recovered) == 0 {
		t.Error("recovered plan lost all D2D striping")
	}
	if recovered[victim] {
		t.Errorf("recovered plan still stripes across downed pair %v-%v", victim[0], victim[1])
	}
	if tl := res.State.Timeline(); tl == nil || tl.Span != rep.Duration {
		t.Error("resilient timeline missing or span mismatch")
	}
}

// TestGPUFailureRecovery kills a GPU mid-run: the pipeline re-partitions
// across the seven survivors and finishes.
func TestGPUFailureRecovery(t *testing.T) {
	cfg := bertCfg(t, "0.64B", SystemPlain)
	cfg.MicrobatchSize = 2
	base := idealRun(t, cfg)
	ideal := base.Report.Duration

	cfg.Faults = &chaos.Config{Script: []chaos.Fault{
		{Kind: chaos.GPUFail, At: ideal / 3, GPU: 3},
	}}
	cfg.Checkpoint = &ckpt.Policy{Interval: ideal / 10}
	res := New(Options{Workers: 1}).RunKeep(context.Background(), mustJob(t, cfg))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	rep := res.Report
	if rep.OOM != nil {
		t.Fatalf("recovered run OOMs: %v", rep.OOM)
	}
	if rep.Failures != 1 {
		t.Fatalf("Failures = %d, want 1", rep.Failures)
	}
	rec := rep.Recoveries[0]
	if rec.Topology == cfg.Topology.Name {
		t.Errorf("recovery topology %q not degraded", rec.Topology)
	}
	if rec.RecoveryTime <= 0 {
		t.Error("recovery time not accounted")
	}
	if len(rep.Mapping) != cfg.Topology.NumGPUs-1 {
		t.Errorf("recovered mapping has %d stages, want %d", len(rep.Mapping), cfg.Topology.NumGPUs-1)
	}
	if rep.Goodput <= 0 || rep.Goodput >= rep.SamplesPerSec {
		t.Errorf("Goodput = %g, want in (0, %g)", rep.Goodput, rep.SamplesPerSec)
	}
}

// TestCheckpointOnlyRun prices checkpointing with no faults: same
// result, slower clock, goodput below ideal.
func TestCheckpointOnlyRun(t *testing.T) {
	cfg := bertCfg(t, "0.64B", SystemPlain)
	cfg.MicrobatchSize = 2
	cfg.Minibatches = 4
	base := idealRun(t, cfg)
	ideal := base.Report.Duration

	cfg.Checkpoint = &ckpt.Policy{Interval: units.Microsecond}
	rep, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 0 || rep.LostWork != 0 || rep.RecoveryTime != 0 {
		t.Errorf("fault-free run reports failures: %+v", rep.Recoveries)
	}
	if rep.Checkpoints != cfg.Minibatches-1 {
		t.Errorf("Checkpoints = %d, want %d", rep.Checkpoints, cfg.Minibatches-1)
	}
	// Snapshot drains overlap pipeline compute, so an uncongested run
	// may hide them entirely: the invariants are "never faster" and a
	// fully accounted drain time.
	if rep.Duration < ideal || rep.Goodput > rep.SamplesPerSec {
		t.Errorf("checkpointing sped the run up: dur %v vs %v, goodput %g vs %g",
			rep.Duration, ideal, rep.Goodput, rep.SamplesPerSec)
	}
	if rep.CheckpointTime <= 0 {
		t.Error("CheckpointTime not accounted")
	}
}

// TestResilientValidation exercises the config error paths.
func TestResilientValidation(t *testing.T) {
	cfg := bertCfg(t, "0.64B", SystemPlain)
	cfg.Checkpoint = &ckpt.Policy{} // Young–Daly needs an MTBF
	if _, err := NewJob(cfg); err == nil {
		t.Error("interval 0 without MTBF must be rejected")
	}

	cfg = bertCfg(t, "0.64B", SystemZeRO3)
	cfg.Faults = &chaos.Config{MTBF: units.Second}
	if _, err := NewJob(cfg); err == nil {
		t.Error("fault injection on a ZeRO baseline must be rejected")
	}

	cfg = bertCfg(t, "0.64B", SystemPlain)
	cfg.Faults = &chaos.Config{Script: []chaos.Fault{{Kind: chaos.GPUFail, At: units.Second, GPU: 99}}}
	if _, err := NewJob(cfg); err == nil {
		t.Error("script targeting a nonexistent GPU must be rejected")
	}
}

// TestResilientFingerprint: faults and checkpoints change the job
// fingerprint but never the plan key.
func TestResilientFingerprint(t *testing.T) {
	base := bertCfg(t, "0.64B", SystemMPress)
	j0 := mustJob(t, base)

	faulty := base
	faulty.Faults = &chaos.Config{Seed: 1, MTBF: units.Second}
	jf := mustJob(t, faulty)
	if jf.Fingerprint() == j0.Fingerprint() {
		t.Error("fault schedule must change the fingerprint")
	}
	if jf.PlanKey() != j0.PlanKey() {
		t.Error("fault schedule must not change the plan key")
	}

	seeded := faulty
	seeded.Faults = &chaos.Config{Seed: 2, MTBF: units.Second}
	if mustJob(t, seeded).Fingerprint() == jf.Fingerprint() {
		t.Error("fault seed must change the fingerprint")
	}

	ck := base
	ck.Checkpoint = &ckpt.Policy{Interval: units.Second}
	jc := mustJob(t, ck)
	if jc.Fingerprint() == j0.Fingerprint() || jc.PlanKey() != j0.PlanKey() {
		t.Error("checkpoint policy must change the fingerprint only")
	}
}

// TestResilientDeterminism: the same seeded fault schedule yields a
// byte-identical outcome, run to run.
func TestResilientDeterminism(t *testing.T) {
	cfg := bertCfg(t, "0.64B", SystemPlain)
	cfg.MicrobatchSize = 2
	base := idealRun(t, cfg)
	cfg.Faults = &chaos.Config{Seed: 42, MTBF: base.Report.Duration / 2, MaxFaults: 2,
		Kinds: []chaos.Kind{chaos.GPUFail}}
	cfg.Checkpoint = &ckpt.Policy{Interval: base.Report.Duration / 10}

	a, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Recoveries, b.Recoveries) ||
		a.Duration != b.Duration || a.Goodput != b.Goodput ||
		a.CheckpointBytes != b.CheckpointBytes || a.LostWork != b.LostWork {
		t.Errorf("identical seeded runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestHostPressureSurvivesByReplanning starves host DRAM mid-run on a
// model small enough that the re-plan can trade host swap for
// D2D/recomputation: the run degrades but completes.
func TestHostPressureSurvivesByReplanning(t *testing.T) {
	cfg := bertCfg(t, "1.67B", SystemMPress)
	base := idealRun(t, cfg)
	ideal := base.Report.Duration

	cfg.Faults = &chaos.Config{Script: []chaos.Fault{
		{Kind: chaos.HostPressure, At: ideal / 2, HostLoss: 600 * units.GiB},
	}}
	cfg.Checkpoint = &ckpt.Policy{Interval: ideal / 8}

	rep, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OOM != nil {
		t.Fatalf("1.67B should re-plan around host pressure, got OOM: %v", rep.OOM)
	}
	if len(rep.Recoveries) != 1 {
		t.Fatalf("Recoveries = %d, want 1", len(rep.Recoveries))
	}
	if rep.Goodput <= 0 || rep.Goodput >= rep.SamplesPerSec {
		t.Errorf("Goodput = %g, want in (0, %g)", rep.Goodput, rep.SamplesPerSec)
	}
}

// TestHostPressureReportsOOM starves host DRAM under a model whose
// overflow exceeds what D2D and recomputation can absorb (4.0B needs
// host swap — the d2d-only and recompute-only systems OOM on it even
// fault-free): the degraded machine cannot stage the host-swapped
// state, and the run dies of a *reported* OOM — like every other
// capacity failure — rather than a hard re-planning error.
func TestHostPressureReportsOOM(t *testing.T) {
	cfg := bertCfg(t, "4.0B", SystemMPress)
	base := idealRun(t, cfg)
	ideal := base.Report.Duration

	cfg.Faults = &chaos.Config{Script: []chaos.Fault{
		{Kind: chaos.HostPressure, At: ideal / 2, HostLoss: 600 * units.GiB},
	}}
	cfg.Checkpoint = &ckpt.Policy{Interval: ideal / 8}

	res := New(Options{Workers: 1}).RunKeep(context.Background(), mustJob(t, cfg))
	if res.Err != nil {
		t.Fatalf("host-pressure run errored (want reported OOM): %v", res.Err)
	}
	rep := res.Report
	if rep.OOM == nil {
		t.Fatal("host-pressure run completed; want a degraded-topology OOM")
	}
	if rep.OOM.Device != "host" {
		t.Errorf("OOM device = %q, want host", rep.OOM.Device)
	}
	if len(rep.Recoveries) == 0 {
		t.Error("no recovery recorded before the OOM")
	}
}
