package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload at one op, untraced and traced, and
// checks that each metric BENCHMARK.json lists for that mode is
// printed with its unit, that every output matches its committed
// digest, and that the traced run writes a loadable Chrome trace.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			want := sp.EndToEnd
			o := options{workload: wl.name, seed: 1, trace: "0", smoke: true}
			if traced {
				want = sp.PerLayer
				o.trace = filepath.Join(t.TempDir(), "trace.json")
			}
			t.Run(fmt.Sprintf("%s/traced=%v", wl.name, traced), func(t *testing.T) {
				var out bytes.Buffer
				res, err := runWorkload(o, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (printed: %v), want unit %q", m.Name, got, ok, m.Unit)
					}
					if !strings.Contains(out.String(), "metric "+m.Name+" ") {
						t.Errorf("metric %s missing from the human-readable output", m.Name)
					}
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if traced {
					data, err := os.ReadFile(o.trace)
					if err != nil {
						t.Fatal(err)
					}
					var tr struct {
						TraceEvents []map[string]any `json:"traceEvents"`
					}
					if err := json.Unmarshal(data, &tr); err != nil || len(tr.TraceEvents) == 0 {
						t.Fatalf("Chrome trace: %d events, err %v", len(tr.TraceEvents), err)
					}
				}
			})
		}
	}
}
