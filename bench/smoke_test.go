package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkJSON is the shape of ../BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMirrorsTheCode holds BENCHMARK.json to the metric
// and workload tables the program reports from.
func TestBenchmarkJSONMirrorsTheCode(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the code %q / %q", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the code %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := b.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %+v", i, got, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := b.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the code %+v", i, got, d)
		}
	}
}

// TestSmokeEveryWorkload runs every workload at 1/20 of its units and
// clients (same tick counts: the percentile picker needs them), traced,
// and asserts that every hash check passes and every metric named in
// BENCHMARK.json is reported.
func TestSmokeEveryWorkload(t *testing.T) {
	b := loadBenchmarkJSON(t)
	ws := make([]*workload, len(workloads))
	for i := range workloads {
		w := workloads[i]
		w.units /= 20
		w.clients /= 20
		ws[i] = &w
	}
	dir := t.TempDir()
	results, err := runSet(ws, options{seed: 5, trace: true, traceDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if !res.Correct {
			t.Errorf("%s: checks failed: %v", res.Name, res.Problems)
		}
		if res.Reps != minReps || res.TracedReps != 1 {
			t.Errorf("%s: %d reps, %d traced; want %d and 1", res.Name, res.Reps, res.TracedReps, minReps)
		}
		if res.Ops < 1 || res.FailedOps != 0 {
			t.Errorf("%s: %d of %d operations failed", res.Name, res.FailedOps, res.Ops)
		}
		plain, traced := res.contract(false).Metrics, res.contract(true).Metrics
		for _, m := range b.EndToEnd {
			if v, ok := plain[m.Name]; !ok || v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s missing or not positive: %+v", res.Name, m.Name, v)
			}
		}
		for _, m := range b.PerLayer {
			if _, ok := traced[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", res.Name, m.Name)
			}
		}
		if len(res.Spans) == 0 {
			t.Errorf("%s: traced repetition produced no layer table", res.Name)
		}
		if st, err := os.Stat(filepath.Join(dir, res.Name+".trace.json")); err != nil || st.Size() == 0 {
			t.Errorf("%s: no Chrome trace written: %v", res.Name, err)
		}
	}
}
