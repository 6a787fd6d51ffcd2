package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

var tinyScale = scale{libPerClass: 1, servePool: 8, serveSeq: 64, storeKeys: 2, storeHistory: 4, setups: 1, libSetups: 1}

func tinyConfig(t *testing.T, workload string, seed int64, trace bool) config {
	dir := t.TempDir()
	return config{workload: workload, seed: seed, seconds: 0.3, trace: trace,
		traceDir: dir, workDir: dir, scale: tinyScale}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that every metric is emitted with its unit, that the end-to-end
// metrics are non-zero, and that nothing failed.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, name, 7, trace)
			o, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			res := o.result(trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d: %v",
					name, trace, res.Correct, res.Failed, res.Attempted, o.mismatches)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%v: %s has unit %q, want %q", name, trace, d.name, m.Unit, d.unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
			if trace {
				if v := res.Metrics["fail_ratio"].Value; v != 0 {
					t.Errorf("%s: fail_ratio = %v", name, v)
				}
				if v := res.Metrics["unaccounted.share"].Value; v < 0 || v > 1 {
					t.Errorf("%s: unaccounted.share = %v", name, v)
				}
			}
		}
	}
}

// countMetric reports whether a metric is an exact count of the fixed
// inputs, which must repeat on the same seed.
func countMetric(name string) bool {
	if !strings.HasPrefix(name, "match.") && !strings.HasPrefix(name, "core.") {
		return false
	}
	return !strings.Contains(name, ".self_ms") && !strings.HasSuffix(name, ".share")
}

// TestSeedDeterminism checks that one seed gives identical inputs and
// identical count metrics, and another seed different inputs.
func TestSeedDeterminism(t *testing.T) {
	lib := func(seed int64) any {
		p, err := libCorpus(seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	serve := func(seed int64) any {
		p, err := servePool(seed, 8)
		if err != nil {
			t.Fatal(err)
		}
		return []any{p, serveSequence(seed, len(p), 64)}
	}
	store := func(seed int64) any {
		texts, err := versionTexts(seed, 0, []int{1, 2, 3, 4, 5, 6})
		if err != nil {
			t.Fatal(err)
		}
		return texts
	}
	for name, gen := range map[string]func(int64) any{"lib-corpus": lib, "serve-routed": serve, "store-history": store} {
		if !reflect.DeepEqual(gen(3), gen(3)) {
			t.Errorf("%s: seed 3 gave different inputs twice", name)
		}
		if reflect.DeepEqual(gen(3), gen(4)) {
			t.Errorf("%s: seeds 3 and 4 gave the same inputs", name)
		}
	}

	for _, name := range workloadNames() {
		var runs [2]*outcome
		for i := range runs {
			o, err := workloads[name](tinyConfig(t, name, 5, true))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			runs[i] = o
		}
		if a, b := runs[0].e2e["script_cost"], runs[1].e2e["script_cost"]; a != b || a <= 0 {
			t.Errorf("%s: script_cost %v then %v", name, a, b)
		}
		for _, d := range perLayer {
			if !countMetric(d.name) {
				continue
			}
			if a, b := runs[0].layer[d.name], runs[1].layer[d.name]; a != b {
				t.Errorf("%s: %s %v then %v", name, d.name, a, b)
			}
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names the workloads and
// metrics this program emits, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	for _, c := range []struct {
		kind string
		got  []metric
		want []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", c.kind, len(c.got), len(c.want))
			continue
		}
		for i, d := range c.want {
			if c.got[i].Name != d.name || c.got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					c.kind, i, c.got[i].Name, c.got[i].Unit, d.name, d.unit)
			}
		}
	}
}
