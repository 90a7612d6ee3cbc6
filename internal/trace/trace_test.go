package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mpress/internal/exec"
	"mpress/internal/graph"
	"mpress/internal/hw"
	"mpress/internal/model"
	"mpress/internal/pipeline"
	"mpress/internal/tensor"
)

func runTiny(t *testing.T) (*exec.Options, *exec.Result) {
	t.Helper()
	cfg := model.Config{
		Name: "Tiny", Arch: model.GPT,
		Layers: 8, Hidden: 512, Heads: 8, SeqLen: 128, Vocab: 4096,
		DType: tensor.FP16,
	}
	prec := model.MixedAdam()
	part, err := pipeline.PartitionModel(cfg, 4, pipeline.ComputeBalanced, pipeline.DAPPLE, prec, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pipeline.Build(pipeline.BuildConfig{
		Model: cfg, Prec: prec, Part: part, Kind: pipeline.DAPPLE,
		MicrobatchSize: 2, Microbatches: 4, Minibatches: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := &exec.Options{Topo: hw.DGX1(), Built: b, Mapping: exec.IdentityMapping(4)}
	res, err := exec.Run(*opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.OOM != nil {
		t.Fatal(res.OOM)
	}
	return opts, res
}

func TestCollect(t *testing.T) {
	b, res := runTiny(t)
	tl := Collect(b, res)
	if tl.Stages != 4 {
		t.Errorf("stages = %d", tl.Stages)
	}
	if tl.Span != res.Duration {
		t.Errorf("span = %v, want %v", tl.Span, res.Duration)
	}
	if len(tl.Events) == 0 {
		t.Fatal("no events")
	}
	// Events are sorted by (stage, start).
	for i := 1; i < len(tl.Events); i++ {
		a, c := tl.Events[i-1], tl.Events[i]
		if a.Stage > c.Stage || (a.Stage == c.Stage && a.Start > c.Start) {
			t.Fatalf("events unsorted at %d: %+v then %+v", i, a, c)
		}
	}
	// Compute events on a stage never overlap (serial stream).
	for s := 0; s < 4; s++ {
		var last Event
		for _, e := range tl.Events {
			if e.Stage != s || !e.Kind.Compute() {
				continue
			}
			if last.End > e.Start {
				t.Fatalf("stage %d compute overlap: %+v then %+v", s, last, e)
			}
			last = e
		}
	}
}

func TestWriteChrome(t *testing.T) {
	b, res := runTiny(t)
	tl := Collect(b, res)
	var buf bytes.Buffer
	if err := tl.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if len(doc.TraceEvents) != len(tl.Events) {
		t.Errorf("events = %d, want %d", len(doc.TraceEvents), len(tl.Events))
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			t.Fatalf("phase %q", e.Ph)
		}
		if e.Pid < 0 || e.Pid >= 4 {
			t.Fatalf("pid %d out of stage range", e.Pid)
		}
		if e.Dur < 0 {
			t.Fatalf("negative duration on %s", e.Name)
		}
	}
}

func TestWriteGantt(t *testing.T) {
	b, res := runTiny(t)
	tl := Collect(b, res)
	var buf bytes.Buffer
	tl.WriteGantt(&buf)
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4+2 { // 4 stage rows + axis + legend
		t.Fatalf("gantt lines = %d:\n%s", len(lines), out)
	}
	for s := 0; s < 4; s++ {
		if !strings.HasPrefix(lines[s], "stage ") {
			t.Fatalf("row %d = %q", s, lines[s])
		}
		// Every stage computed something: digits (forward) must appear.
		if !strings.ContainsAny(lines[s], "0123456789") {
			t.Errorf("stage %d row has no forward work: %q", s, lines[s])
		}
	}
	// The last stage alternates F and B: letters must appear too.
	if !strings.ContainsAny(lines[3], "abcd") {
		t.Errorf("last stage shows no backward work: %q", lines[3])
	}
}

func TestWriteGanttEmpty(t *testing.T) {
	var buf bytes.Buffer
	(&Timeline{}).WriteGantt(&buf)
	if !strings.Contains(buf.String(), "empty") {
		t.Errorf("empty timeline rendering: %q", buf.String())
	}
}

func TestSummarize(t *testing.T) {
	b, res := runTiny(t)
	tl := Collect(b, res)
	stats := tl.Summarize()
	byKind := map[graph.OpKind]Stats{}
	for _, s := range stats {
		byKind[s.Kind] = s
	}
	// 4 stages x 4 microbatches forwards and backwards.
	if byKind[graph.Forward].Count != 16 {
		t.Errorf("forward count = %d, want 16", byKind[graph.Forward].Count)
	}
	if byKind[graph.Backward].Count != 16 {
		t.Errorf("backward count = %d, want 16", byKind[graph.Backward].Count)
	}
	if byKind[graph.Backward].Busy <= byKind[graph.Forward].Busy {
		t.Error("backward busy time must exceed forward (2x FLOPs)")
	}
	// Kinds are ordered.
	for i := 1; i < len(stats); i++ {
		if stats[i-1].Kind >= stats[i].Kind {
			t.Fatal("summary unsorted")
		}
	}
}

func TestEventDuration(t *testing.T) {
	e := Event{Start: 10, End: 35}
	if e.Duration() != 25 {
		t.Errorf("duration = %v", e.Duration())
	}
}
