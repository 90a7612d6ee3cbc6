package plan

import (
	"fmt"

	"mpress/internal/fabric"
	"mpress/internal/pipeline"
	"mpress/internal/tensor"
)

// Rebase translates a plan computed against one lowering of a job to
// a lowering that differs only in its minibatch count, so a cached
// plan can serve every Minibatches variant of a sweep point without
// re-running the mapping search and refinement loop.
//
// The translation leans on two builder invariants (see
// pipeline.Build): persistent tensors are created before any per-slot
// tensor and independently of Minibatches, so their IDs carry over
// unchanged; and each slot's activation list is built in a fixed
// block order, so slot {s, m} of the target corresponds index by
// index to slot {s, (q mod M)·micro + r} of the source, where
// q = m / micro, r = m % micro and M is the source minibatch count:
// minibatch q of the target replays the mechanisms and D2D stripe
// layouts of minibatch q mod M of the source. Rebase walks both
// lowerings' slot tables in that order. The replay does not make the
// plan fit the target: a steady-state minibatch that replays a layout
// chosen during the pipeline fill can run out of memory (ROADMAP item
// 1: bertxdgx2 is OOM at Minibatches 3 and 4).
func Rebase(pl *Plan, from, to *pipeline.Built) (*Plan, error) {
	fc, tc := from.Cfg, to.Cfg
	if from.NumStages() != to.NumStages() || fc.Microbatches != tc.Microbatches {
		return nil, fmt.Errorf("plan: rebase across different pipeline shapes (%d→%d stages, %d→%d microbatches)",
			from.NumStages(), to.NumStages(), fc.Microbatches, tc.Microbatches)
	}
	if fc.Minibatches == tc.Minibatches {
		return pl, nil
	}

	out := &Plan{
		Mapping:     pl.Mapping,
		Act:         make(map[tensor.ID]Mechanism, len(pl.Act)*tc.Minibatches/fc.Minibatches+1),
		Parts:       make(map[tensor.ID][]fabric.Part, len(pl.Parts)),
		HostPersist: make(map[tensor.ID]bool, len(pl.HostPersist)),
		SavedByMech: pl.SavedByMech,
		StageRange:  pl.StageRange,
		Emulations:  pl.Emulations,
		Baseline:    pl.Baseline,
		Planned:     pl.Planned,
	}
	for id, parked := range pl.HostPersist {
		if !to.Persists(id) {
			return nil, fmt.Errorf("plan: rebase: host-parked tensor %d is not persistent in the target build", id)
		}
		out.HostPersist[id] = parked // a false entry stays for Apply to reject
	}

	micro := fc.Microbatches
	for s := 0; s < to.NumStages(); s++ {
		for m := 0; m < to.TotalMicrobatches; m++ {
			q, r := m/micro, m%micro
			src := from.Acts(pipeline.SlotKey{Stage: s, Microbatch: (q%fc.Minibatches)*micro + r})
			dst := to.Acts(pipeline.SlotKey{Stage: s, Microbatch: m})
			if len(src) != len(dst) {
				return nil, fmt.Errorf("plan: rebase: slot s%d/mb%d has %d activations, source has %d",
					s, m, len(dst), len(src))
			}
			for i, sid := range src {
				if mech, ok := pl.Act[sid]; ok {
					out.Act[dst[i]] = mech
				}
				if parts, ok := pl.Parts[sid]; ok {
					out.Parts[dst[i]] = parts
				}
			}
		}
	}
	return out, nil
}
