// Package mapping implements the device-mapping search of paper
// Fig. 6: choose which GPU hosts which pipeline stage so that
// overflowing (early) stages sit next to NVLink neighbors with spare
// memory, maximizing the bandwidth available to D2D swaps.
//
// The search enumerates stage→GPU assignments, and for each one
// distributes the importers' spare memory over the reachable
// exporters, scoring the assignment by the ratio of revenue (bytes
// offloadable over NVLink) to cost (the slowest exporter's one-way
// transfer time). Symmetric (switched) topologies skip the search:
// every mapping is equivalent there (Sec. III-C). Each search derives
// its neighbour tables and lane bandwidths from the topology once, so
// scoring one assignment allocates nothing.
package mapping

import (
	"fmt"
	"time"

	"mpress/internal/hw"
	"mpress/internal/units"
)

// SpareMargin is headroom kept free on every importer so that imported
// stripes never push a light-loaded GPU into OOM.
const SpareMargin = units.Bytes(512) * units.MiB

// InfeasibleError reports a placement that cannot exist: more
// pipeline stages than devices to host them. It is a typed error so
// service layers can classify it as a caller mistake (HTTP 400)
// instead of crashing — the condition is reachable from user input
// (e.g. Stages > the TP plane's device count) and from degraded
// replans after GPU failures.
type InfeasibleError struct {
	Stages int
	GPUs   int
}

// Error describes the infeasibility.
func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("mapping: %d stages exceed the %d available GPUs", e.Stages, e.GPUs)
}

// Result describes the chosen mapping.
type Result struct {
	// Mapping lists, per stage, the GPU hosting it (plane-space; see
	// internal/grid.Placement for shard expansion).
	Mapping []hw.DeviceID
	// Spare[g] is the remaining import budget of each GPU under this
	// mapping (after the margin), for the planner to consume.
	Spare map[hw.DeviceID]units.Bytes
	// Score is revenue/cost of the winning assignment (+Inf conceptually
	// when there is no overflow; represented as Score == 0 with
	// NoOverflow == true).
	Score      float64
	NoOverflow bool
	// Placed is how many overflow bytes the winning assignment can
	// host over NVLink; MaxTime the slowest exporter's one-way time.
	Placed  units.Bytes
	MaxTime units.Duration
	// Searched counts assignments evaluated; Elapsed is wall time.
	Searched int
	Elapsed  time.Duration
}

// Search finds the best stage→GPU assignment for the given per-stage
// memory demands (profiler output). demands[s] is stage s's peak; the
// GPU capacity comes from topo. A demand list longer than the device
// count returns an *InfeasibleError.
func Search(topo *hw.Topology, demands []units.Bytes) (*Result, error) {
	start := time.Now()
	sc, err := newScorer(topo, demands)
	if err != nil {
		return nil, err
	}
	if !sc.anyOverflow || topo.Switched {
		// Nothing to place, or every placement is equivalent: keep
		// the identity mapping (the paper "randomly maps stages to
		// devices" for symmetric fabrics).
		return sc.identity(start), nil
	}

	n, S := topo.NumGPUs, len(demands)
	best := &Result{Mapping: make([]hw.DeviceID, S), Score: -1}
	perm := make([]hw.DeviceID, S)
	used := make([]bool, n)
	var walk func(int)
	walk = func(s int) {
		if s == S {
			best.Searched++
			placed, maxTime, score := sc.score(perm)
			if score > best.Score {
				best.Score = score
				copy(best.Mapping, perm)
				best.Placed, best.MaxTime = placed, maxTime
			}
			return
		}
		for g := 0; g < n; g++ {
			if used[g] {
				continue
			}
			used[g] = true
			perm[s] = hw.DeviceID(g)
			walk(s + 1)
			used[g] = false
		}
	}
	walk(0)

	best.Spare = sc.spareMap(best.Mapping)
	best.Elapsed = time.Since(start)
	return best, nil
}

// Identity scores the identity mapping (stage s on GPU s) without
// searching: the placement for symmetric fabrics, and for planners
// that disable the search. Like Search, it returns an *InfeasibleError
// when there are more stages than GPUs.
func Identity(topo *hw.Topology, demands []units.Bytes) (*Result, error) {
	start := time.Now()
	sc, err := newScorer(topo, demands)
	if err != nil {
		return nil, err
	}
	return sc.identity(start), nil
}

// neighbor is one NVLink peer of an exporter and the bandwidth of the
// lanes between them.
type neighbor struct {
	gpu hw.DeviceID
	bw  units.Bandwidth
}

// scorer holds everything one search derives from the topology and
// the demands, plus the scratch spare budget it reuses for every
// assignment.
type scorer struct {
	// nbrs[g] lists g's NVLink peers with 1..LanesPerGPU lanes, fattest
	// pairs first and ascending GPU id among equals: the order the
	// greedy fill visits them in.
	nbrs    [][]neighbor
	latency units.Duration
	// idle is the import budget of a GPU that hosts no stage.
	idle units.Bytes

	overflow, spareOf []units.Bytes
	anyOverflow       bool

	// spare[g] is GPU g's remaining import budget during one score.
	spare []units.Bytes
}

// newScorer splits demands into per-stage overflow and spare and
// derives the neighbour tables from topo; more stages than GPUs is an
// *InfeasibleError.
func newScorer(topo *hw.Topology, demands []units.Bytes) (*scorer, error) {
	n, S := topo.NumGPUs, len(demands)
	if S > n {
		return nil, &InfeasibleError{Stages: S, GPUs: n}
	}
	cap := topo.GPU.Memory
	sc := &scorer{
		nbrs:     make([][]neighbor, n),
		latency:  topo.NVLinkLatency,
		overflow: make([]units.Bytes, S),
		spareOf:  make([]units.Bytes, S),
		spare:    make([]units.Bytes, n),
	}
	if cap > SpareMargin {
		sc.idle = cap - SpareMargin
	}
	for s, d := range demands {
		if d > cap {
			sc.overflow[s] = d - cap
			sc.anyOverflow = true
		} else if free := cap - d; free > SpareMargin {
			sc.spareOf[s] = free - SpareMargin
		}
	}

	laneBW := float64(topo.NVLinkLaneBW)
	for g := range sc.nbrs {
		for lanes := topo.LanesPerGPU; lanes >= 1; lanes-- {
			bw := units.Bandwidth(laneBW * float64(lanes))
			for j := 0; j < n; j++ {
				if topo.LanesBetween(hw.DeviceID(g), hw.DeviceID(j)) == lanes {
					sc.nbrs[g] = append(sc.nbrs[g], neighbor{hw.DeviceID(j), bw})
				}
			}
		}
	}
	return sc, nil
}

// identity scores the identity mapping and reports it as a one-
// assignment search that started at start.
func (sc *scorer) identity(start time.Time) *Result {
	m := make([]hw.DeviceID, len(sc.overflow))
	for i := range m {
		m[i] = hw.DeviceID(i)
	}
	r := &Result{Mapping: m, NoOverflow: !sc.anyOverflow, Searched: 1}
	r.Placed, r.MaxTime, r.Score = sc.score(m)
	r.Spare = sc.spareMap(m)
	r.Elapsed = time.Since(start)
	return r
}

// resetSpare fills sc.spare with the per-GPU import budgets under
// mapping (one GPU per stage), counting GPUs that host no stage as
// fully spare.
func (sc *scorer) resetSpare(mapping []hw.DeviceID) {
	for g := range sc.spare {
		sc.spare[g] = sc.idle
	}
	for s, g := range mapping {
		sc.spare[g] = sc.spareOf[s]
	}
}

// spareMap returns the budgets under mapping as the Result.Spare map,
// which lists only GPUs with budget left.
func (sc *scorer) spareMap(mapping []hw.DeviceID) map[hw.DeviceID]units.Bytes {
	sc.resetSpare(mapping)
	spare := make(map[hw.DeviceID]units.Bytes)
	for g, b := range sc.spare {
		if b > 0 {
			spare[hw.DeviceID(g)] = b
		}
	}
	return spare
}

// score evaluates one assignment: distribute reachable spare over the
// exporters, fattest pairs first (partial placement allowed), and
// compute revenue/cost. It allocates nothing.
func (sc *scorer) score(mapping []hw.DeviceID) (placed units.Bytes, maxTime units.Duration, score float64) {
	sc.resetSpare(mapping)
	// Exporters in descending overflow order would need a sort; with
	// ≤8 stages a fixed stage order is stable enough.
	for s, ov := range sc.overflow {
		if ov == 0 {
			continue
		}
		remaining := ov
		var slowest units.Duration
		for _, nb := range sc.nbrs[mapping[s]] {
			if remaining == 0 {
				break
			}
			take := sc.spare[nb.gpu]
			if take == 0 {
				continue
			}
			if take > remaining {
				take = remaining
			}
			sc.spare[nb.gpu] -= take
			remaining -= take
			placed += take
			if t := sc.latency + nb.bw.TransferTime(take); t > slowest {
				slowest = t
			}
		}
		if slowest > maxTime {
			maxTime = slowest
		}
	}
	if placed == 0 {
		return 0, 0, 0
	}
	if maxTime <= 0 {
		maxTime = 1
	}
	// Revenue (GiB placed) per unit cost (seconds).
	return placed, maxTime, placed.GiBf() / maxTime.Secondsf()
}
