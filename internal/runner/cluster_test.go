package runner

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"mpress/internal/chaos"
	"mpress/internal/ckpt"
	"mpress/internal/cluster"
	"mpress/internal/hw"
	"mpress/internal/sim"
)

func clusterCfg(t *testing.T, nodes int, fab cluster.Fabric, sys System) Config {
	t.Helper()
	c := bertCfg(t, "0.64B", sys)
	c.Cluster = cluster.MustNew(nodes, hw.DGX1(), fab)
	return c
}

// TestOneNodeClusterMatchesSingleServer: the degenerate 1-node cluster
// must reproduce the single-server run exactly — same fingerprint,
// same report.
func TestOneNodeClusterMatchesSingleServer(t *testing.T) {
	single := mustJob(t, bertCfg(t, "0.64B", SystemMPress))
	clustered := mustJob(t, clusterCfg(t, 1, cluster.InfiniBand4x100(), SystemMPress))
	if single.Fingerprint() != clustered.Fingerprint() {
		t.Fatal("1-node cluster must fingerprint identically to the single-server job")
	}
	r := New(Options{})
	a := r.Run(context.Background(), single)
	b := r.Run(context.Background(), clustered)
	if a.Err != nil || b.Err != nil {
		t.Fatal(a.Err, b.Err)
	}
	if a.Report.Duration != b.Report.Duration ||
		a.Report.TFLOPS != b.Report.TFLOPS ||
		!reflect.DeepEqual(a.Report.PerGPUPeak, b.Report.PerGPUPeak) {
		t.Errorf("1-node cluster diverged: %v/%v vs %v/%v",
			a.Report.Duration, a.Report.TFLOPS, b.Report.Duration, b.Report.TFLOPS)
	}
	if b.Report.Replicas != 1 || b.Report.NICBytes != 0 || b.Report.AllReduces != 0 {
		t.Errorf("1-node cluster shows fabric activity: %+v", b.Report)
	}
	if b.Report.ClusterTFLOPS != b.Report.TFLOPS {
		t.Errorf("1-node ClusterTFLOPS %g != TFLOPS %g", b.Report.ClusterTFLOPS, b.Report.TFLOPS)
	}
}

// TestClusterPlanKeyShared: scaling out must not re-run the planner —
// the plan key excludes the cluster, the fingerprint includes it.
func TestClusterPlanKeyShared(t *testing.T) {
	single := mustJob(t, bertCfg(t, "0.64B", SystemMPress))
	n4 := mustJob(t, clusterCfg(t, 4, cluster.InfiniBand4x100(), SystemMPress))
	if single.PlanKey() != n4.PlanKey() {
		t.Error("node count must not change the plan key")
	}
	if single.Fingerprint() == n4.Fingerprint() {
		t.Error("node count must change the fingerprint")
	}
	slow := mustJob(t, clusterCfg(t, 4, cluster.Ethernet10G(), SystemMPress))
	if slow.Fingerprint() == n4.Fingerprint() {
		t.Error("fabric must change the fingerprint")
	}
	if slow.PlanKey() != n4.PlanKey() {
		t.Error("fabric must not change the plan key")
	}

	// And the runner's cache must actually hit across node counts.
	r := New(Options{})
	if res := r.Run(context.Background(), single); res.Err != nil {
		t.Fatal(res.Err)
	}
	res := r.Run(context.Background(), n4)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.PlanCacheHit {
		t.Error("4-node job recomputed the plan the 1-node job already cached")
	}
}

// TestClusterRunDeterministic: two runs of the same multi-node job are
// byte-identical.
func TestClusterRunDeterministic(t *testing.T) {
	j := mustJob(t, clusterCfg(t, 4, cluster.Ethernet10G(), SystemMPress))
	r := New(Options{})
	a := r.Run(context.Background(), j)
	b := r.Run(context.Background(), j)
	if a.Err != nil || b.Err != nil {
		t.Fatal(a.Err, b.Err)
	}
	if !reflect.DeepEqual(a.Report, b.Report) {
		t.Errorf("nondeterministic cluster run:\n%+v\nvs\n%+v", a.Report, b.Report)
	}
}

// TestClusterSlowdownMonotonic: per-replica iteration time never
// improves when nodes are added or the fabric slows down.
func TestClusterSlowdownMonotonic(t *testing.T) {
	r := New(Options{})
	run := func(cfg Config) *Report {
		t.Helper()
		res := r.Run(context.Background(), mustJob(t, cfg))
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.Report.Failed() {
			t.Fatalf("OOM: %v", res.Report.OOM)
		}
		return res.Report
	}
	base := run(bertCfg(t, "0.64B", SystemMPress))
	fast := run(clusterCfg(t, 4, cluster.InfiniBand4x100(), SystemMPress))
	slow := run(clusterCfg(t, 4, cluster.Ethernet10G(), SystemMPress))
	if fast.Duration < base.Duration {
		t.Errorf("4-node iteration %v beats single-server %v", fast.Duration, base.Duration)
	}
	if slow.Duration <= fast.Duration {
		t.Errorf("10G fabric iteration %v not slower than 4x100G %v", slow.Duration, fast.Duration)
	}
	if fast.NICBytes <= 0 || fast.AllReduces <= 0 {
		t.Errorf("multi-node run reports no fabric traffic: %+v", fast)
	}
	if fast.ClusterTFLOPS <= fast.TFLOPS {
		t.Errorf("ClusterTFLOPS %g not scaled above per-replica %g", fast.ClusterTFLOPS, fast.TFLOPS)
	}
	// Scaling efficiency = cluster throughput / (N x single-server).
	eff := func(rep *Report) float64 { return rep.ClusterTFLOPS / (float64(rep.Replicas) * base.TFLOPS) }
	if e := eff(fast); e <= 0 || e > 1.0000001 {
		t.Errorf("fast-fabric efficiency %g outside (0,1]", e)
	}
	if eff(slow) >= eff(fast) {
		t.Errorf("slow fabric efficiency %g not below fast %g", eff(slow), eff(fast))
	}
}

func TestClusterConfigErrors(t *testing.T) {
	// ZeRO baselines are single-server only.
	if _, err := NewJob(clusterCfg(t, 2, cluster.InfiniBand4x100(), SystemZeRO3)); err == nil {
		t.Error("multi-node ZeRO validated")
	}
	// Mismatched Topology vs Cluster.Server.
	cfg := clusterCfg(t, 2, cluster.InfiniBand4x100(), SystemMPress)
	cfg.Topology = hw.DGX2()
	if _, err := NewJob(cfg); err == nil {
		t.Error("mismatched topology validated")
	}
	// Topology defaults from the cluster.
	cfg = clusterCfg(t, 2, cluster.InfiniBand4x100(), SystemMPress)
	cfg.Topology = nil
	j, err := NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if j.Config.Topology == nil || j.Config.Topology.Name != "DGX-1V" {
		t.Errorf("Topology not defaulted from cluster: %+v", j.Config.Topology)
	}
	if j.Config.AllReduceBuckets != 4 {
		t.Errorf("AllReduceBuckets defaulted to %d, want 4", j.Config.AllReduceBuckets)
	}
	cfg.AllReduceBuckets = -1
	if _, err := NewJob(cfg); err == nil {
		t.Error("negative bucket count validated")
	}
}

// TestClusterResilientReportsIdealTraffic: a resilient multi-node job
// reports the inter-node traffic of its fault-free run, like every
// other traffic field — one all-reduce per (stage, minibatch) — not
// that of a replay segment a fault cut short.
func TestClusterResilientReportsIdealTraffic(t *testing.T) {
	cfg := clusterCfg(t, 2, cluster.InfiniBand4x100(), SystemPlain)
	cfg.MicrobatchSize = 2
	ideal := idealRun(t, cfg)
	base, built := ideal.Report, ideal.State.Built
	if want := int64(built.NumStages() * built.Cfg.Minibatches); base.AllReduces != want || base.NICBytes <= 0 {
		t.Fatalf("fault-free run: %d all-reduces, %v NIC bytes; want %d all-reduces", base.AllReduces, base.NICBytes, want)
	}
	cfg.Faults = &chaos.Config{Script: []chaos.Fault{
		{Kind: chaos.GPUFail, At: base.Duration / 3, GPU: 3},
	}}
	cfg.Checkpoint = &ckpt.Policy{Interval: base.Duration / 10}
	rep, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OOM != nil || rep.Failures != 1 {
		t.Fatalf("resilient run: OOM %v, %d failures; want one recovered failure", rep.OOM, rep.Failures)
	}
	if rep.AllReduces != base.AllReduces || rep.NICBytes != base.NICBytes {
		t.Errorf("resilient run reports %d all-reduces and %v NIC bytes, its fault-free run %d and %v",
			rep.AllReduces, rep.NICBytes, base.AllReduces, base.NICBytes)
	}
}

// TestNewJobRejectsRingStepsOverBudget: on 1,024 nodes each minibatch
// posts 8 stages × 4 buckets × 2(1024-1) = 65,472 ring steps, so 4,000
// minibatches overrun the kernel's event budget on the ring alone. The
// job must fail validation with sim.ErrRunaway, not minutes into the
// event loop; at the default 2 minibatches it stays valid.
func TestNewJobRejectsRingStepsOverBudget(t *testing.T) {
	cfg := bertCfg(t, "0.35B", SystemPlain)
	cfg.MicrobatchSize = 4
	cfg.Cluster = cluster.MustNew(1024, hw.DGX1(), cluster.Ethernet25G())
	if _, err := NewJob(cfg); err != nil {
		t.Fatalf("default minibatches rejected: %v", err)
	}
	cfg.Minibatches = 4000
	if _, err := NewJob(cfg); !errors.Is(err, sim.ErrRunaway) {
		t.Fatalf("NewJob = %v, want sim.ErrRunaway", err)
	}
}
