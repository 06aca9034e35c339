package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []benchMetric           `json:"end_to_end"`
	PerLayer  []benchMetric           `json:"per_layer"`
}

type benchMetric struct{ Name, Unit string }

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// checkMetrics asserts that the run reported exactly the declared metrics,
// each once, finite, and with the declared unit.
func checkMetrics(t *testing.T, res *result, report string, want []benchMetric) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics reported, BENCHMARK.json declares %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s is declared but was not reported", m.Name)
			continue
		}
		if got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("metric %s = %v %s, want a finite value in %s", m.Name, got.Value, got.Unit, m.Unit)
		}
		lines := 0
		for _, l := range strings.Split(report, "\n") {
			if f := strings.Fields(l); len(f) > 0 && f[0] == m.Name {
				lines++
			}
		}
		if lines != 1 {
			t.Errorf("metric %s printed %d times, want once", m.Name, lines)
		}
	}
}

// TestSmoke runs every workload on tiny inputs, so that a change to a public
// signature the benchmark drives is caught by `go test` in this directory.
func TestSmoke(t *testing.T) {
	decl := loadBenchmarkJSON(t)
	if len(decl.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(decl.Workloads), len(specs))
	}
	for _, wl := range decl.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			var report bytes.Buffer
			o := options{workload: wl.Name, seed: 3, seconds: 1, blocks: minBlocks, tiny: true}
			res, err := run(o, &report)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < minBlocks {
				t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			checkMetrics(t, res, report.String(), decl.EndToEnd)

			o.selfcheck = true
			res, err = run(o, &report)
			if err != nil {
				t.Fatalf("-selfcheck: %v", err)
			}
			if res.Correct || res.Failed == 0 || res.Metrics["ok_ratio"].Value >= 1 {
				t.Errorf("-selfcheck: a corrupted expectation still verified (failed=%d)", res.Failed)
			}
		})
	}
}

// TestSmokeTraced checks the per-layer side once: the layer metrics are the
// same whatever -workload says, so one traced run covers the names.
func TestSmokeTraced(t *testing.T) {
	decl := loadBenchmarkJSON(t)
	var report bytes.Buffer
	out := filepath.Join(t.TempDir(), "trace.json")
	o := options{workload: "gateway_zipf", seed: 3, seconds: 1, trace: 1, tiny: true, traceOut: out}
	res, err := run(o, &report)
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, res, report.String(), decl.PerLayer)
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []span }
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if want := tinySizes.ladderOps["gateway_zipf"] * 4; len(doc.Spans) != want {
		t.Errorf("trace holds %d spans, want %d", len(doc.Spans), want)
	}
	for i, s := range doc.Spans {
		if s.EndNs < s.StartNs || s.Parent >= i || (s.Parent >= 0 && doc.Spans[s.Parent].Op != s.Op) {
			t.Fatalf("span %d is malformed: %+v", i, s)
		}
	}
}
