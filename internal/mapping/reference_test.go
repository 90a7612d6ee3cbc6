package mapping

// The brute-force search as it stood before the scorer was
// precomputed per topology, kept verbatim (renamed) as the reference
// FuzzMappingEquivalence holds Search and Identity to: per
// assignment it rebuilds the spare map and re-derives every
// exporter's NVLink neighbours.

import (
	"time"

	"mpress/internal/hw"
	"mpress/internal/units"
)

// referenceSearch finds the best stage→GPU assignment for the given per-stage
// memory demands (profiler output). demands[s] is stage s's peak; the
// GPU capacity comes from topo. A demand list longer than the device
// count returns an *InfeasibleError.
func referenceSearch(topo *hw.Topology, demands []units.Bytes) (*Result, error) {
	start := time.Now()
	n := topo.NumGPUs
	S := len(demands)
	if S > n {
		return nil, &InfeasibleError{Stages: S, GPUs: n}
	}
	cap := topo.GPU.Memory

	overflow := make([]units.Bytes, S)
	spareOf := make([]units.Bytes, S)
	anyOverflow := false
	for s, d := range demands {
		if d > cap {
			overflow[s] = d - cap
			anyOverflow = true
		} else if free := cap - d; free > SpareMargin {
			spareOf[s] = free - SpareMargin
		}
	}

	identity := make([]hw.DeviceID, S)
	for i := range identity {
		identity[i] = hw.DeviceID(i)
	}

	if !anyOverflow || topo.Switched {
		// Nothing to place, or every placement is equivalent: keep
		// the identity mapping (the paper "randomly maps stages to
		// devices" for symmetric fabrics).
		r := &Result{Mapping: identity, NoOverflow: !anyOverflow, Searched: 1, Elapsed: time.Since(start)}
		r.Spare = referenceSpareUnder(topo, identity, spareOf)
		r.Placed, r.MaxTime, r.Score = referenceEvaluate(topo, identity, overflow, spareOf)
		return r, nil
	}

	best := &Result{Mapping: identity, Score: -1}
	perm := make([]hw.DeviceID, S)
	used := make([]bool, n)
	var walk func(int)
	var searched int
	var bestPlaced units.Bytes
	var bestTime units.Duration
	walk = func(s int) {
		if s == S {
			searched++
			placed, maxTime, score := referenceEvaluate(topo, perm, overflow, spareOf)
			if score > best.Score {
				best.Score = score
				best.Mapping = append([]hw.DeviceID(nil), perm...)
				bestPlaced, bestTime = placed, maxTime
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

	best.Placed = bestPlaced
	best.MaxTime = bestTime
	best.Searched = searched
	best.Elapsed = time.Since(start)
	best.Spare = referenceSpareUnder(topo, best.Mapping, spareOf)
	return best, nil
}

// referenceSpareUnder converts per-stage spare into per-GPU budgets, counting
// GPUs that host no stage as fully spare.
func referenceSpareUnder(topo *hw.Topology, mapping []hw.DeviceID, spareOf []units.Bytes) map[hw.DeviceID]units.Bytes {
	spare := make(map[hw.DeviceID]units.Bytes)
	hosted := make(map[hw.DeviceID]bool)
	for s, g := range mapping {
		hosted[g] = true
		if spareOf[s] > 0 {
			spare[g] = spareOf[s]
		}
	}
	for g := 0; g < topo.NumGPUs; g++ {
		id := hw.DeviceID(g)
		if !hosted[id] && topo.GPU.Memory > SpareMargin {
			spare[id] = topo.GPU.Memory - SpareMargin
		}
	}
	return spare
}

// referenceEvaluate scores one assignment: distribute reachable spare over the
// exporters proportionally to pair bandwidth (partial placement
// allowed) and compute revenue/cost.
func referenceEvaluate(topo *hw.Topology, mapping []hw.DeviceID, overflow, spareOf []units.Bytes) (placed units.Bytes, maxTime units.Duration, score float64) {
	spare := referenceSpareUnder(topo, mapping, spareOf)
	laneBW := float64(topo.NVLinkLaneBW)

	// Exporters in descending overflow order would need a sort; with
	// ≤8 stages a fixed stage order is stable enough and keeps the
	// hot path allocation-free.
	for s, ov := range overflow {
		if ov == 0 {
			continue
		}
		g := mapping[s]
		// Greedily fill from the fattest pairs.
		remaining := ov
		var slowest units.Duration
		for lanes := topo.LanesPerGPU; lanes >= 1 && remaining > 0; lanes-- {
			for _, nb := range topo.NVLinkNeighbors(g) {
				if topo.LanesBetween(g, nb) != lanes || spare[nb] == 0 || remaining == 0 {
					continue
				}
				take := spare[nb]
				if take > remaining {
					take = remaining
				}
				spare[nb] -= take
				remaining -= take
				placed += take
				bw := units.Bandwidth(laneBW * float64(lanes))
				if t := topo.NVLinkLatency + bw.TransferTime(take); t > slowest {
					slowest = t
				}
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
