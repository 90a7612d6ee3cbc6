package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the
// system. Spans are recorded from the benchmark's own code, around the
// calls it makes, so the program under test is unchanged; runner stage
// spans are rebuilt from JobResult.StageTimes.
type span struct {
	name       string
	start, end time.Time
	parent     int   // index into tracer.spans, -1 for a root
	op         int64 // benchmark op the span belongs to, 0 for none
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced configuration: every method is a no-op returning -1.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span now and returns its id; end closes it.
func (t *tracer) begin(name string, parent int, op int64) int {
	return t.add(name, time.Now(), time.Time{}, parent, op)
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// add records a finished span.
func (t *tracer) add(name string, start, end time.Time, parent int, op int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: start, end: end, parent: parent, op: op})
	return len(t.spans) - 1
}

// stageOrder is the runner's stage sequence (runner.stagesFor); spans
// for the stages a job ran are laid end to end in this order.
var stageOrder = []string{"partition", "build", "plan", "apply", "execute", "resilience", "report"}

// addJob records a runner job that ended at end and took elapsed, with
// one child span per stage.
func (t *tracer) addJob(end time.Time, elapsed time.Duration, stages map[string]time.Duration, parent int, op int64) {
	if t == nil {
		return
	}
	start := end.Add(-elapsed)
	id := t.add("runner.Run", start, end, parent, op)
	at := start
	for _, name := range stageOrder {
		d, ok := stages[name]
		if !ok {
			continue
		}
		t.add("runner."+name, at, at.Add(d), id, op)
		at = at.Add(d)
	}
}

// layerTime is one layer's share of the traced run.
type layerTime struct {
	name  string
	calls int
	total time.Duration
	self  time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part of it its children cover.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	byName := map[string]*layerTime{}
	for i, s := range t.spans {
		lt := byName[s.name]
		if lt == nil {
			lt = &layerTime{name: s.name}
			byName[s.name] = lt
		}
		d := s.end.Sub(s.start)
		lt.calls++
		lt.total += d
		lt.self += d - covered(t.spans, children[i], s.start, s.end)
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered returns how much of [from, to) the union of the given spans
// covers; children of one span may overlap when it ran work on
// several workers.
func covered(spans []span, ids []int, from, to time.Time) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(ids))
	for _, i := range ids {
		a, b := spans[i].start, spans[i].end
		if a.Before(from) {
			a = from
		}
		if b.After(to) {
			b = to
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var sum time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			sum += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		sum += cur.b.Sub(cur.a)
	}
	return sum
}

// writeChrome writes the spans as Chrome trace-event JSON (complete
// "X" events), loadable in chrome://tracing and Perfetto. Spans nest
// on their parent's row; a span that overlaps an earlier sibling (work
// a pool ran concurrently) opens the first row free at its start.
func (t *tracer) writeChrome(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == 0 {
		_, err := io.WriteString(w, `{"traceEvents":[]}`+"\n")
		return err
	}
	origin := t.spans[0].start
	for _, s := range t.spans {
		if s.start.Before(origin) {
			origin = s.start
		}
	}
	order := make([]int, len(t.spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return t.spans[order[a]].start.Before(t.spans[order[b]].start) })
	lane := make([]int, len(t.spans))
	childEnd := make([]time.Time, len(t.spans))
	var laneEnd []time.Time
	for _, i := range order {
		s := t.spans[i]
		if p := s.parent; p >= 0 && !childEnd[p].After(s.start) {
			lane[i] = lane[p]
			childEnd[p] = s.end
			continue
		}
		l := 0
		for l < len(laneEnd) && laneEnd[l].After(s.start) {
			l++
		}
		if l == len(laneEnd) {
			laneEnd = append(laneEnd, time.Time{})
		}
		laneEnd[l] = s.end
		lane[i] = l
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]event, 0, len(t.spans))
	for _, i := range order {
		s := t.spans[i]
		args := map[string]any{}
		if s.op != 0 {
			args["op"] = s.op
		}
		if s.parent >= 0 {
			args["parent"] = t.spans[s.parent].name
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: lane[i],
			Ts: us(s.start.Sub(origin)), Dur: us(s.end.Sub(s.start)), Args: args,
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// writeTraceFile writes the Chrome trace to path, creating its
// directory.
func (t *tracer) writeTraceFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.writeChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
