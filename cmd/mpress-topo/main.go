// Command mpress-topo prints a server topology's NVLink lane matrix
// (like `nvidia-smi topo -m`) and the Fig. 4 link-bandwidth
// microbenchmark measured on the simulated fabric. With -nodes > 1 it
// composes the server into a cluster (internal/cluster) and adds the
// inter-node fabric and its all-reduce probe.
//
// Usage:
//
//	mpress-topo -topo dgx1
//	mpress-topo -topo dgx2 -size 256MiB
//	mpress-topo -topo dgx1 -json               # the topology as mpressd wire JSON
//	mpress-topo -topo dgx1 -nodes 4 -fabric fast
//	mpress-topo -topo dgx1 -nodes 4 -json      # the cluster as JSON
//	mpress-topo -topo dgx1 -tp 2               # the TP(2)×PP(4)×DP(1) grid
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mpress/internal/cluster"
	"mpress/internal/fabric"
	"mpress/internal/grid"
	"mpress/internal/hw"
	"mpress/internal/units"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command, parameterized over its arguments and
// output streams so tests can drive it; it returns the exit code: 0 on
// success, 1 on an output failure, 2 on invalid input. Every input —
// the grid included — is validated before anything is written to
// stdout.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mpress-topo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	topoName := fs.String("topo", "dgx1", "topology, one of: "+strings.Join(hw.Topologies.Names(), ", "))
	sizeStr := fs.String("size", "256MiB", "transfer size for the bandwidth probe")
	nodes := fs.Int("nodes", 1, "node count; > 1 composes a multi-node cluster")
	tp := fs.Int("tp", 1, "tensor-parallel degree for the grid factorization")
	fabricName := fs.String("fabric", "fast", "inter-node fabric, one of: "+strings.Join(cluster.Fabrics.Names(), ", "))
	asJSON := fs.Bool("json", false, "emit the topology (or cluster, with -nodes > 1) as JSON and exit")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "mpress-topo: %v\n", err)
		return code
	}

	topo, err := hw.LookupTopology(*topoName)
	if err != nil {
		return fail(2, err)
	}
	var clus *cluster.Cluster
	if *nodes > 1 {
		fab, err := cluster.Fabrics.Lookup(*fabricName)
		if err != nil {
			return fail(2, err)
		}
		if clus, err = cluster.New(*nodes, topo, fab); err != nil {
			return fail(2, err)
		}
	}
	g, err := grid.New(topo, *nodes, *tp)
	if err != nil {
		return fail(2, err)
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		var v interface{} = topo
		if clus != nil {
			v = clus
		}
		if err := enc.Encode(v); err != nil {
			return fail(1, err)
		}
		return 0
	}
	size, err := units.ParseBytes(*sizeStr)
	if err != nil {
		return fail(2, err)
	}

	if clus != nil {
		fmt.Fprintf(stdout, "%s: %d nodes, %d GPUs, %v total GPU memory\n",
			clus.Name, clus.Nodes, clus.TotalGPUs(), clus.TotalGPUMemory())
		fmt.Fprintf(stdout, "inter-node %s (%s/node aggregate)\n\n", clus.Net.String(), clus.Net.NodeBW().BitString())
		for n := 0; n < clus.Nodes; n++ {
			devs := make([]string, topo.NumGPUs)
			for g := range devs {
				devs[g] = hw.DeviceID(g).On(n).String()
			}
			fmt.Fprintf(stdout, "node %d: %s .. %s\n", n, devs[0], devs[len(devs)-1])
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "%s: %d x %s (%v each), host %v\n", topo.Name, topo.NumGPUs,
		topo.GPU.Name, topo.GPU.Memory, topo.HostMemory)
	fmt.Fprintf(stdout, "NVLink: %v/lane, %d lanes per GPU; PCIe %v", topo.NVLinkLaneBW,
		topo.LanesPerGPU, topo.PCIeBW)
	if topo.NVMeBW > 0 {
		fmt.Fprintf(stdout, "; NVMe %v (%v)", topo.NVMeBW, topo.NVMeSize)
	}
	fmt.Fprintln(stdout)
	if topo.Switched {
		fmt.Fprintln(stdout, "\nsymmetric NVSwitch fabric: every pair fully connected")
	} else {
		fmt.Fprintln(stdout, "\nlane matrix:")
		fmt.Fprint(stdout, topo.LaneMatrixString())
	}

	fmt.Fprintf(stdout, "\neffective bandwidth at %v from gpu0:\n", size)
	fmt.Fprintf(stdout, "  PCIe (to host): %v\n", fabric.EffectiveHostBandwidth(topo, 0, size))
	for _, nb := range topo.NVLinkNeighbors(0) {
		fmt.Fprintf(stdout, "  -> %v (%d lanes): %v\n", nb, topo.LanesBetween(0, nb),
			fabric.EffectiveBandwidth(topo, 0, nb, size, 0))
	}
	if !topo.Switched {
		parts := []fabric.Part{
			{Peer: 1, Bytes: size / 6}, {Peer: 2, Bytes: size / 6},
			{Peer: 3, Bytes: size / 3}, {Peer: 4, Bytes: size - size/6*2 - size/3},
		}
		fmt.Fprintf(stdout, "  6-lane weighted scatter: %v\n", fabric.EffectiveScatterBandwidth(topo, 0, parts))
	}
	if clus != nil {
		fmt.Fprintf(stdout, "\nring all-reduce of %v across %d nodes (4 buckets):\n", size, clus.Nodes)
		fmt.Fprintf(stdout, "  ideal (latency-free): %v\n", clus.IdealAllReduceTime(size))
		fmt.Fprintf(stdout, "  simulated: %v (algbw %v)\n",
			cluster.MeasureAllReduce(clus, size, 4),
			cluster.EffectiveAllReduceBandwidth(clus, size, 4))
	}

	fmt.Fprintf(stdout, "\ngrid: %s\n", g.Shape)
	if g.Shape.TP > 1 {
		for n := 0; n < g.Shape.DP; n++ {
			fmt.Fprintf(stdout, "  node %d:\n", n)
			for pp := 0; pp < g.Shape.PP; pp++ {
				fmt.Fprintf(stdout, "    %s\n", g.GroupString(pp, n))
			}
		}
		fmt.Fprintf(stdout, "  TP ring hop bandwidth: %v\n", g.TPRingBandwidth())
	}
	return 0
}
