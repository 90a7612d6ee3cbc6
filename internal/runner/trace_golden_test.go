package runner

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"mpress/internal/chaos"
	"mpress/internal/ckpt"
	"mpress/internal/cluster"
	"mpress/internal/hw"
	"mpress/internal/units"
)

// TestResilientTraceGolden pins the Chrome trace bytes of two resilient
// jobs' merged wall-clock timelines to committed sha256 digests: a GPU
// failure after two durable checkpoints, which forces a re-plan of the
// last two minibatches on the seven survivors, and a NIC flap on a
// two-node job without checkpoints, which reruns the job on its own
// plan. Each timeline interleaves the segments'
// executor events with the failure and recovery marks, so a change to
// how the timeline is assembled shows here as a changed digest.
func TestResilientTraceGolden(t *testing.T) {
	gpu := bertCfg(t, "0.64B", SystemMPress)
	gpu.Minibatches = 4
	gpu.Faults = &chaos.Config{Script: []chaos.Fault{{Kind: chaos.GPUFail, At: 50 * units.Second, GPU: 3}}}
	gpu.Checkpoint = &ckpt.Policy{Interval: 4 * units.Second}
	flap := bertCfg(t, "0.64B", SystemMPress)
	flap.Topology, flap.Cluster = nil, cluster.MustNew(2, hw.DGX1(), cluster.InfiniBand4x100())
	flap.Faults = &chaos.Config{Script: []chaos.Fault{{Kind: chaos.NICFlap, At: 20 * units.Second}}}
	for _, tc := range []struct {
		name    string
		cfg     Config
		replans bool
		want    string
	}{
		{"gpu-fail", gpu, true, "0e31989b66fa47c1e39711abb5ee8cb9bafc006d17196343c0e978dd9d9fa28d"},
		{"nic-flap", flap, false, "5cf011b9be247cdbaa43e6f7e23ca0c8b8664b13bcb1ef0f84a43434d89c0f15"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := New(Options{Workers: 1}).RunKeep(context.Background(), mustJob(t, tc.cfg))
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if rep := res.Report; rep.OOM != nil || rep.Failures != 1 || (res.State.Recovered != nil) != tc.replans {
				t.Fatalf("OOM %v, %d failures, re-planned %v; want no OOM, 1 failure, re-planned %v",
					rep.OOM, rep.Failures, res.State.Recovered != nil, tc.replans)
			}
			var buf bytes.Buffer
			if err := res.State.Timeline().WriteChrome(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("Chrome trace sha256 = %s (%d bytes), want %s", got, buf.Len(), tc.want)
			}
		})
	}
}
