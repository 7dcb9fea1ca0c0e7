package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// output is the JSON line a run prints last.
type output struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// TestSmoke runs every workload at reduced size, untraced and traced, and
// checks that the correctness checks pass and that every declared metric
// is printed with its unit (end-to-end metrics also non-zero).
func TestSmoke(t *testing.T) {
	for _, wl := range []string{"ingest", "fleet", "tickets"} {
		t.Run(wl, func(t *testing.T) {
			w := &run{workload: wl, seed: 7, tenants: 1000, dirs: &scratchDirs{root: t.TempDir()}}
			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			for _, c := range []struct {
				names []metric
				run   func() *result
			}{
				{endToEnd, func() *result { return w.measure(time.Second, nil) }},
				{perLayer, func() *result { return w.traced(1500*time.Millisecond, spans) }},
			} {
				var buf bytes.Buffer
				if !report(&buf, wl, c.run(), c.names) {
					t.Fatalf("correctness checks failed:\n%s", buf.String())
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var out output
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
					t.Fatalf("last line is not the JSON result: %v\n%s", err, buf.String())
				}
				if !out.Correct || out.Attempted < 1 || out.Failed != 0 {
					t.Errorf("result correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
				}
				if len(out.Metrics) != len(c.names) {
					t.Errorf("printed %d metrics, want %d", len(out.Metrics), len(c.names))
				}
				for _, m := range c.names {
					got, ok := out.Metrics[m.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.name)
					case got.Unit != m.unit:
						t.Errorf("metric %s unit %q, want %q", m.name, got.Unit, m.unit)
					case len(c.names) == len(endToEnd) && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, got.Value)
					}
				}
			}
			if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
				t.Errorf("traced run wrote no spans: %v", err)
			}
		})
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares the workloads and
// metrics this program prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, wl := range b.Workloads {
		wls = append(wls, wl.Name)
	}
	if got := strings.Join(wls, ","); got != "ingest,fleet,tickets" {
		t.Errorf("workloads %s, want ingest,fleet,tickets", got)
	}
	for _, c := range []struct {
		what     string
		declared []struct{ Name, Unit string }
		printed  []metric
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.declared) != len(c.printed) {
			t.Errorf("%s declares %d metrics, the program prints %d", c.what, len(c.declared), len(c.printed))
			continue
		}
		for i, m := range c.printed {
			if d := c.declared[i]; d.Name != m.name || d.Unit != m.unit {
				t.Errorf("%s[%d] declares %s (%s), the program prints %s (%s)", c.what, i, d.Name, d.Unit, m.name, m.unit)
			}
		}
	}
}
