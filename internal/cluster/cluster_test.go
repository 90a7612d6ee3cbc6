package cluster

import (
	"strings"
	"testing"

	"mpress/internal/hw"
	"mpress/internal/sim"
	"mpress/internal/units"
)

func newTestSim() *sim.Sim { return sim.New() }

func TestValidate(t *testing.T) {
	if _, err := New(0, hw.DGX1(), InfiniBand4x100()); err == nil {
		t.Error("0-node cluster validated")
	}
	if _, err := New(2, nil, InfiniBand4x100()); err == nil {
		t.Error("server-less cluster validated")
	}
	if _, err := New(2, hw.DGX1(), Fabric{Name: "bad", NICs: 0, PerNICBW: units.Gbps(10)}); err == nil {
		t.Error("0-NIC fabric validated")
	}
	if _, err := New(2, hw.DGX1(), Fabric{Name: "bad", NICs: 1, PerNICBW: 0}); err == nil {
		t.Error("0-bandwidth fabric validated")
	}
	if _, err := New(2, hw.DGX1(), Fabric{Name: "bad", NICs: 1, PerNICBW: units.Gbps(10), Latency: -1}); err == nil {
		t.Error("negative-latency fabric validated")
	}
	// A single node never touches the fabric, so a zero Fabric is fine.
	if _, err := New(1, hw.DGX1(), Fabric{}); err != nil {
		t.Errorf("1-node cluster with zero fabric: %v", err)
	}
	c := MustNew(4, hw.DGX1(), InfiniBand4x100())
	if c.Name != "4xDGX-1V+ib-4x100" {
		t.Errorf("Name = %q", c.Name)
	}
}

func TestLookupFabric(t *testing.T) {
	for name, want := range map[string]string{
		"fast": "ib-4x100", "ib": "ib-4x100", "ib-4x100": "ib-4x100",
		"25g": "eth-25g", "slow": "eth-10g", "10g": "eth-10g",
	} {
		f, err := Fabrics.Lookup(name)
		if err != nil {
			t.Fatalf("Fabrics.Lookup(%q): %v", name, err)
		}
		if f.Name != want {
			t.Errorf("Fabrics.Lookup(%q).Name = %q, want %q", name, f.Name, want)
		}
	}
	if _, err := Fabrics.Lookup("carrier-pigeon"); err == nil {
		t.Error("unknown fabric resolved")
	}
	// The error must teach the valid vocabulary: every accepted name,
	// canonical or alias, is resolvable and listed.
	_, err := Fabrics.Lookup("carrier-pigeon")
	names := Fabrics.Names()
	if len(names) == 0 {
		t.Fatal("Fabrics is empty")
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list valid name %q", err, name)
		}
		if _, lerr := Fabrics.Lookup(name); lerr != nil {
			t.Errorf("Fabrics lists %q but rejects it: %v", name, lerr)
		}
	}
	ib := InfiniBand4x100()
	if s := ib.String(); !strings.Contains(s, "100Gbit/s") {
		t.Errorf("fabric String %q lacks bit-rate", s)
	}
}

func TestDevices(t *testing.T) {
	c := MustNew(2, hw.DGX1(), InfiniBand4x100())
	if got := c.TotalGPUs(); got != 16 {
		t.Errorf("TotalGPUs = %d, want 16", got)
	}
	if got, want := c.TotalGPUMemory(), units.Bytes(2)*hw.DGX1().TotalGPUMemory(); got != want {
		t.Errorf("TotalGPUMemory = %v, want %v", got, want)
	}
}

// TestRingMatchesClosedForm asserts the simulated uncontended bucketed
// ring all-reduce lands within the link-latency term of the closed
// form 2(N-1)/N * size / nodeBW, for several node and bucket counts.
func TestRingMatchesClosedForm(t *testing.T) {
	const size = 64 * units.MiB
	fabrics := []Fabric{InfiniBand4x100(), Ethernet10G()}
	for _, f := range fabrics {
		for _, nodes := range []int{2, 4, 8} {
			for _, buckets := range []int{1, 2, 4, 8} {
				c := MustNew(nodes, hw.DGX1(), f)
				got := MeasureAllReduce(c, size, buckets)
				ideal := c.IdealAllReduceTime(size)
				// Every one of the B*2(N-1) ring steps pays the fabric
				// latency once; chunk-size truncation adds at most a
				// nanosecond per lane reservation.
				steps := buckets * 2 * (nodes - 1)
				latTerm := units.Duration(steps) * f.Latency
				eps := units.Duration(steps*f.NICs + steps)
				if got < ideal-eps {
					t.Errorf("%s N=%d B=%d: simulated %v beats ideal %v", f.Name, nodes, buckets, got, ideal)
				}
				if got > ideal+latTerm+eps {
					t.Errorf("%s N=%d B=%d: simulated %v exceeds ideal %v + latency term %v",
						f.Name, nodes, buckets, got, ideal, latTerm)
				}
			}
		}
	}
}

// TestRingZeroLatencyExact pins the latency-free case to the closed
// form within per-reservation rounding only.
func TestRingZeroLatencyExact(t *testing.T) {
	const size = 128 * units.MiB
	for _, nics := range []int{1, 4} {
		f := Fabric{Name: "ideal", NICs: nics, PerNICBW: units.Gbps(100)}
		for _, nodes := range []int{2, 4, 8} {
			for _, buckets := range []int{1, 4} {
				c := MustNew(nodes, hw.DGX1(), f)
				got := MeasureAllReduce(c, size, buckets)
				ideal := c.IdealAllReduceTime(size)
				steps := buckets * 2 * (nodes - 1)
				eps := units.Duration(steps*nics + steps)
				diff := got - ideal
				if diff < 0 {
					diff = -diff
				}
				if diff > eps {
					t.Errorf("nics=%d N=%d B=%d: simulated %v, ideal %v (diff %d ns > eps %d ns)",
						nics, nodes, buckets, got, ideal, int64(diff), int64(eps))
				}
			}
		}
	}
}

func TestMeasureDeterminism(t *testing.T) {
	c := MustNew(4, hw.DGX1(), InfiniBand4x100())
	a := MeasureAllReduce(c, 48*units.MiB, 4)
	b := MeasureAllReduce(c, 48*units.MiB, 4)
	if a != b {
		t.Errorf("two measurements differ: %v vs %v", a, b)
	}
	if bw := EffectiveAllReduceBandwidth(c, 48*units.MiB, 4); bw <= 0 || bw > c.Net.NodeBW() {
		t.Errorf("algbw %v outside (0, %v]", bw, c.Net.NodeBW())
	}
}

func TestSingleNodeNoop(t *testing.T) {
	c := MustNew(1, hw.DGX1(), InfiniBand4x100())
	if d := c.IdealAllReduceTime(units.GiB); d != 0 {
		t.Errorf("1-node ideal all-reduce = %v, want 0", d)
	}
	if d := MeasureAllReduce(c, units.GiB, 4); d != 0 {
		t.Errorf("1-node simulated all-reduce = %v, want 0", d)
	}
}

// TestStats checks one node's egress accounting: a ring all-reduce of
// size bytes moves 2(N-1) chunks of ~size/(B*N) per bucket.
func TestStats(t *testing.T) {
	const size = 32 * units.MiB
	c := MustNew(4, hw.DGX1(), InfiniBand4x100())
	s := newTestSim()
	n := NewNet(s, c, 4, 0)
	done := n.AllReduce(7, size)
	s.Handle = func(ev sim.Event) {
		if token, ok := n.Handle(ev); ok {
			if token != 7 {
				t.Errorf("completed token %d, want 7", token)
			}
			done = true
		}
	}
	s.Run()
	if !done {
		t.Fatal("all-reduce never completed")
	}
	st := n.Stats()
	if st.AllReduces != 1 {
		t.Errorf("AllReduces = %d", st.AllReduces)
	}
	wire := size * 2 * units.Bytes(c.Nodes-1) / units.Bytes(c.Nodes)
	// Ceil-divided chunks may overshoot the exact wire volume slightly.
	if st.EgressBytes < wire || st.EgressBytes > wire+units.KiB {
		t.Errorf("EgressBytes = %v, want ~%v", st.EgressBytes, wire)
	}
	if st.Busy <= 0 {
		t.Errorf("Busy = %v", st.Busy)
	}
}

// TestContention checks that two concurrent all-reduces sharing the NIC
// lanes finish later than an isolated one but never lose bytes.
func TestContention(t *testing.T) {
	const size = 16 * units.MiB
	c := MustNew(4, hw.DGX1(), Ethernet10G())
	solo := MeasureAllReduce(c, size, 2)

	s := newTestSim()
	n := NewNet(s, c, 2, 0)
	var ends [2]units.Duration
	s.Handle = func(ev sim.Event) {
		if token, ok := n.Handle(ev); ok {
			ends[token] = s.Now()
		}
	}
	if n.AllReduce(0, size) || n.AllReduce(1, size) {
		t.Fatal("a multi-node all-reduce completed at once")
	}
	s.Run()
	first, second := ends[0], ends[1]
	if first == 0 || second == 0 {
		t.Fatalf("all-reduces finished at %v and %v", first, second)
	}
	last := first
	if second > last {
		last = second
	}
	if last <= solo {
		t.Errorf("two concurrent all-reduces finished in %v, isolated takes %v", last, solo)
	}
	if st := n.Stats(); st.AllReduces != 2 {
		t.Errorf("AllReduces = %d", st.AllReduces)
	}
}
