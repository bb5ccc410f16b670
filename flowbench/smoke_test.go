package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks the
// workloads against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload at a tiny size, plain and traced, and
// checks that its outputs pass their checks and that it reports exactly the
// metrics BENCHMARK.json declares (end-to-end ones plain, per-layer ones
// traced), each with the declared unit and a finite value other than 0.
func TestSmoke(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	for _, trace := range []bool{false, true} {
		declared := map[string]string{}
		list := bf.EndToEnd
		if trace {
			list = bf.PerLayer
		}
		for _, m := range list {
			declared[m.Name] = m.Unit
		}
		seen := map[string]bool{}
		for _, w := range bf.Workloads {
			fn, ok := workloads[w.Name]
			if !ok {
				t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not have", w.Name)
			}
			o := opts{seed: 7, seconds: 0.05, trace: trace, small: true, spansDir: t.TempDir(), info: t.Logf}
			r, err := fn(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !r.res.Correct || r.res.Attempted < 1 || r.res.Failed != 0 {
				t.Errorf("%s trace=%v: correct %v attempted %d failed %d: %v",
					w.Name, trace, r.res.Correct, r.res.Attempted, r.res.Failed, r.errs)
			}
			for name, m := range r.res.Metrics {
				unit, ok := declared[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %q is not declared", w.Name, trace, name)
				case unit != m.Unit:
					t.Errorf("%s trace=%v: metric %q has unit %q, declared %q", w.Name, trace, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: metric %q = %v", w.Name, trace, name, m.Value)
				}
				seen[name] = true
			}
		}
		for name := range declared {
			if !seen[name] {
				t.Errorf("trace=%v: declared metric %q is reported by no workload", trace, name)
			}
		}
	}
}
