// Package cluster composes N single-server topologies (internal/hw)
// into one multi-node training cluster joined by a modeled NIC fabric,
// and provides the inter-node communication model for hybrid
// data+pipeline parallelism: every node hosts one MPress-planned
// pipeline replica, and replicas synchronize gradients with a bucketed
// ring all-reduce over the inter-node links, overlapped with backward
// compute on the discrete-event simulator.
//
// The paper (Sec. V) argues MPress's compaction extends beyond one
// 8-GPU server; the systems it builds on are explicitly hybrid —
// DAPPLE runs pipeline stages replicated data-parallel across
// machines. This package supplies the missing scale-out dimension:
// the per-server planner and executor are unchanged, and the cluster
// layer adds only what crossing the node boundary costs.
package cluster

import (
	"fmt"

	"mpress/internal/hw"
	"mpress/internal/names"
	"mpress/internal/units"
)

// Fabric describes the inter-node network: each node owns NICs
// identical full-duplex ports of PerNICBW each, with Latency the
// per-message setup cost (switch traversal + NIC processing). The
// ports play the role NVLink lanes play inside a server: a transfer
// can stripe across all of a node's NICs.
type Fabric struct {
	Name string `json:"name"`
	// NICs is the port count per node (e.g. 4 ConnectX HCAs on a DGX).
	NICs int `json:"nics"`
	// PerNICBW is one port's unidirectional bandwidth. NICs are quoted
	// in bits/s — use units.Gbps.
	PerNICBW units.Bandwidth `json:"per_nic_bw"`
	// Latency is the per-transfer setup latency of the fabric.
	Latency units.Duration `json:"latency"`
}

// Validate checks internal consistency of the fabric description.
func (f *Fabric) Validate() error {
	if f.NICs <= 0 {
		return fmt.Errorf("cluster: fabric %q has %d NICs", f.Name, f.NICs)
	}
	if f.PerNICBW <= 0 {
		return fmt.Errorf("cluster: fabric %q has non-positive NIC bandwidth", f.Name)
	}
	if f.Latency < 0 {
		return fmt.Errorf("cluster: fabric %q has negative latency", f.Name)
	}
	return nil
}

// NodeBW returns one node's aggregate unidirectional bandwidth when
// striping across all of its NICs.
func (f *Fabric) NodeBW() units.Bandwidth {
	return units.Bandwidth(float64(f.PerNICBW) * float64(f.NICs))
}

// String summarizes the fabric, e.g. "ib-4x100: 4 x 100Gbit/s NICs, 2.00us".
func (f *Fabric) String() string {
	return fmt.Sprintf("%s: %d x %s NICs, %v", f.Name, f.NICs, f.PerNICBW.BitString(), f.Latency)
}

// InfiniBand4x100 is the fast-fabric preset: 4 x 100 Gbit/s HDR-class
// InfiniBand ports per node (the DGX generation's standard complement),
// 50 GB/s aggregate per direction.
func InfiniBand4x100() Fabric {
	return Fabric{
		Name:     "ib-4x100",
		NICs:     4,
		PerNICBW: units.Gbps(100),
		Latency:  2 * units.Microsecond,
	}
}

// Ethernet25G is a mid-range fabric: one 25 Gbit/s Ethernet port per
// node, typical of cost-conscious cloud instances.
func Ethernet25G() Fabric {
	return Fabric{
		Name:     "eth-25g",
		NICs:     1,
		PerNICBW: units.Gbps(25),
		Latency:  15 * units.Microsecond,
	}
}

// Ethernet10G is the slow-fabric preset: one 10 Gbit/s port per node —
// the regime where gradient synchronization stops hiding under
// backward compute.
func Ethernet10G() Fabric {
	return Fabric{
		Name:     "eth-10g",
		NICs:     1,
		PerNICBW: units.Gbps(10),
		Latency:  30 * units.Microsecond,
	}
}

// Fabrics maps every accepted -fabric name (including aliases) to its
// preset. "fast" and "slow" alias the InfiniBand and 10G-Ethernet
// presets.
var Fabrics = names.New[Fabric]("cluster: unknown fabric").
	Add("ib-4x100", InfiniBand4x100(), "fast", "ib").
	Add("eth-25g", Ethernet25G(), "25g").
	Add("eth-10g", Ethernet10G(), "slow", "10g")

// Cluster is N identical servers joined by a fabric. Each node hosts
// one full pipeline replica of the training job; the per-node server
// topology is simulated exactly as in the single-server case.
type Cluster struct {
	Name string `json:"name"`
	// Nodes is the replica count. 1 is a degenerate cluster that
	// behaves exactly like its single server.
	Nodes int `json:"nodes"`
	// Server is the per-node topology (every node is identical).
	Server *hw.Topology `json:"server"`
	// Net is the inter-node fabric (ignored when Nodes == 1).
	Net Fabric `json:"net"`
}

// New builds and validates a cluster of n replicas of server joined by
// net.
func New(n int, server *hw.Topology, net Fabric) (*Cluster, error) {
	c := &Cluster{Nodes: n, Server: server, Net: net}
	if server != nil {
		c.Name = fmt.Sprintf("%dx%s+%s", n, server.Name, net.Name)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// MustNew is New panicking on invalid input, for tests and examples.
func MustNew(n int, server *hw.Topology, net Fabric) *Cluster {
	c, err := New(n, server, net)
	if err != nil {
		panic(err)
	}
	return c
}

// Validate checks internal consistency of the cluster description.
func (c *Cluster) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("cluster: %q has %d nodes", c.Name, c.Nodes)
	}
	if c.Server == nil {
		return fmt.Errorf("cluster: %q has no server topology", c.Name)
	}
	if err := c.Server.Validate(); err != nil {
		return err
	}
	if c.Nodes > 1 {
		return c.Net.Validate()
	}
	return nil
}

// TotalGPUs returns the cluster-wide GPU count.
func (c *Cluster) TotalGPUs() int { return c.Nodes * c.Server.NumGPUs }

// TotalGPUMemory returns the cluster-wide aggregate GPU memory.
func (c *Cluster) TotalGPUMemory() units.Bytes {
	return units.Bytes(c.Nodes) * c.Server.TotalGPUMemory()
}

// IdealAllReduceTime is the latency-free lower bound of a ring
// all-reduce of size bytes across the cluster: each node moves
// 2(N-1)/N x size through its NICs at aggregate node bandwidth. Zero
// for single-node clusters. The simulated time (Net model) adds the
// per-step latency and any contention on the NIC lanes.
func (c *Cluster) IdealAllReduceTime(size units.Bytes) units.Duration {
	if c.Nodes <= 1 {
		return 0
	}
	wire := float64(size) * 2 * float64(c.Nodes-1) / float64(c.Nodes)
	return c.Net.NodeBW().TransferTime(units.Bytes(wire))
}
