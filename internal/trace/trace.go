// Package trace renders a simulated training run as an execution
// timeline: the classic pipeline diagram of the paper's Fig. 1 as
// ASCII art, and Chrome's trace-event JSON (load in
// chrome://tracing or Perfetto) for interactive inspection of how
// compute, transfers, swaps and recomputation interleave.
package trace

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"mpress/internal/exec"
	"mpress/internal/graph"
	"mpress/internal/units"
)

// Event is one rendered timeline span.
type Event struct {
	// Name is the operator name, Kind its operator kind.
	Name string
	Kind graph.OpKind
	// Stage is the pipeline stage (lane) the event belongs to.
	Stage int
	// Microbatch is the microbatch index (-1 for per-iteration work).
	Microbatch int
	Start      units.Duration
	End        units.Duration
}

// Duration returns the event's length.
func (e Event) Duration() units.Duration { return e.End - e.Start }

// Timeline is the ordered set of events of one run.
type Timeline struct {
	Events []Event
	// Span is the run's total duration.
	Span units.Duration
	// Stages is the stage count (number of lanes).
	Stages int
	// LaneNames, when set, names stage lanes in exported traces (one
	// entry per stage; Perfetto renders it as the process name). Used
	// by tensor-parallel runs to spell out which physical device group
	// each simulated lane stands for, e.g. "n0/gpu2 tp1". Empty lanes
	// and a nil slice emit nothing, keeping legacy traces byte-
	// identical.
	LaneNames []string
}

// Collect extracts the timeline of the run o configured. Zero-length
// bookkeeping events (drops) are kept: they mark eviction points.
func Collect(o *exec.Options, res *exec.Result) *Timeline {
	ops := o.Ops()
	t := &Timeline{Stages: o.Built.NumStages(), Span: res.Duration,
		Events: make([]Event, 0, ops.Len()+len(res.Checkpoints)+1)}
	for i := range ops.Len() {
		op, sp := ops.Op(graph.OpID(i)), res.Spans[i]
		if sp.End == 0 && sp.Start == 0 && op.Kind != graph.Drop && i != 0 {
			continue // never ran (the run died of OOM first, say)
		}
		t.Events = append(t.Events, Event{
			Name:       ops.Name(graph.OpID(i)),
			Kind:       op.Kind,
			Stage:      op.Stage,
			Microbatch: op.Microbatch,
			Start:      units.Duration(sp.Start),
			End:        units.Duration(sp.End),
		})
	}
	for _, rec := range res.Checkpoints {
		t.Events = append(t.Events, Event{
			Name:       "checkpoint",
			Kind:       graph.Checkpoint,
			Stage:      -1, // run-wide lane: the snapshot drains every stage
			Microbatch: rec.Minibatch,
			Start:      units.Duration(rec.Start),
			End:        units.Duration(rec.End),
		})
	}
	if f := res.Failure; f != nil {
		at := units.Duration(f.At)
		t.Events = append(t.Events, Event{
			Name: "failure", Kind: graph.Failure, Stage: -1, Microbatch: -1,
			Start: at, End: at,
		})
	}
	slices.SortStableFunc(t.Events, func(a, b Event) int {
		return cmp.Or(cmp.Compare(a.Stage, b.Stage), cmp.Compare(a.Start, b.Start))
	})
	return t
}

// chromeEvent is the trace-event JSON schema (phase "X" = complete).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// lane buckets separate op classes within a stage's row group so
// overlapping compute and swap traffic render on distinct tracks.
func lane(k graph.OpKind) (tid int, track string) {
	switch k {
	case graph.Forward, graph.Backward, graph.OptimizerStep, graph.Recompute:
		return 0, "compute"
	case graph.Transfer:
		return 1, "boundary"
	case graph.SwapOut, graph.SwapIn, graph.Drop:
		return 2, "compaction"
	case graph.Checkpoint, graph.Failure, graph.Recovery:
		return 4, "resilience"
	default:
		return 3, "other"
	}
}

// WriteChrome writes the timeline as Chrome trace-event JSON.
func (t *Timeline) WriteChrome(w io.Writer) error {
	var evs []chromeEvent
	for s, name := range t.LaneNames {
		if name == "" {
			continue
		}
		// Phase-M metadata names the pid's row group (one per stage).
		evs = append(evs, chromeEvent{
			Name: "process_name",
			Ph:   "M",
			Pid:  s,
			Args: map[string]string{"name": name},
		})
	}
	for _, e := range t.Events {
		tid, track := lane(e.Kind)
		evs = append(evs, chromeEvent{
			Name: e.Name,
			Cat:  e.Kind.String(),
			Ph:   "X",
			Ts:   float64(e.Start) / 1e3,
			Dur:  float64(e.Duration()) / 1e3,
			Pid:  e.Stage,
			Tid:  tid,
			Args: map[string]string{
				"track":      track,
				"microbatch": fmt.Sprintf("%d", e.Microbatch),
			},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]interface{}{"traceEvents": evs})
}

// gantt configuration.
const ganttWidth = 100

// symbolFor picks the diagram glyph: digits for forward microbatches
// (like the paper's Fig. 1 black boxes), letters for backward, and
// punctuation for the memory machinery.
func symbolFor(e Event) byte {
	switch e.Kind {
	case graph.Forward:
		return byte('0' + e.Microbatch%10)
	case graph.Backward:
		return byte('a' + e.Microbatch%26)
	case graph.OptimizerStep:
		return 'U'
	case graph.Recompute:
		return 'r'
	case graph.SwapOut, graph.SwapIn:
		return '~'
	case graph.Transfer:
		return '-'
	default:
		return '.'
	}
}

// WriteGantt renders the per-stage compute timeline as ASCII art —
// the paper's Fig. 1 diagram regenerated from an actual run. Only
// compute-stream events are drawn (transfers and swaps overlap them).
func (t *Timeline) WriteGantt(w io.Writer) {
	if t.Span <= 0 {
		fmt.Fprintln(w, "(empty timeline)")
		return
	}
	scale := float64(ganttWidth) / float64(t.Span)
	for s := 0; s < t.Stages; s++ {
		row := []byte(strings.Repeat(" ", ganttWidth))
		for _, e := range t.Events {
			if e.Stage != s || !e.Kind.Compute() {
				continue
			}
			from := int(float64(e.Start) * scale)
			to := int(float64(e.End) * scale)
			if to >= ganttWidth {
				to = ganttWidth - 1
			}
			sym := symbolFor(e)
			for x := from; x <= to; x++ {
				row[x] = sym
			}
		}
		fmt.Fprintf(w, "stage %d |%s|\n", s, string(row))
	}
	fmt.Fprintf(w, "         0%*s\n", ganttWidth, t.Span.String())
	fmt.Fprintln(w, "digits: forward microbatch   letters: backward   r: recompute   U: optimizer")
}

// Stats summarizes the timeline by op kind: total busy time and count.
type Stats struct {
	Kind  graph.OpKind
	Count int
	Busy  units.Duration
}

// Summarize aggregates per-kind activity, ordered by kind.
func (t *Timeline) Summarize() []Stats {
	var out []Stats
	for _, e := range t.Events {
		i, ok := slices.BinarySearchFunc(out, e.Kind, func(s Stats, k graph.OpKind) int { return cmp.Compare(s.Kind, k) })
		if !ok {
			out = slices.Insert(out, i, Stats{Kind: e.Kind})
		}
		out[i].Count++
		out[i].Busy += e.Duration()
	}
	return out
}
