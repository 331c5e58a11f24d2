package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// TestSmoke runs every workload briefly in a traced run: set-up and
// measurement must pass every output oracle, the span tree must be
// well formed (execute checks that no child outlasts its parent), and
// the workload's self time, and the siege phase's in mesh's run, must
// be reported.
func TestSmoke(t *testing.T) {
	names := make([]string, 0, len(workloadDefs))
	for name := range workloadDefs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			rep := &report{Workload: name, Seed: 7, Seconds: 2, Trace: true, Params: workloadDefs[name].params}
			res, err := execute(workloadDefs[name], rep, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %s", res.Correct, res.Attempted, res.Failed, rep.FirstError)
			}
			for _, m := range perLayer() {
				if _, ok := res.Metrics[m.name]; !ok {
					t.Errorf("per-layer metric %s missing", m.name)
				}
			}
			selfOf := []string{name}
			if name == "mesh" {
				selfOf = append(selfOf, "siege") // the siege phase of mesh's traced run
			}
			for _, w := range selfOf {
				if self := res.Metrics[w+".self_ms"].Value; self <= 0 {
					t.Errorf("%s.self_ms = %v, want > 0", w, self)
				}
			}
		})
	}
}

func TestSpanCheck(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr := &tracer{}
	tr.on.Store(true)
	root := tr.id()
	tr.add(0, root, 1, "child", at(1), at(3))
	tr.add(root, 0, 1, "root", at(0), at(4))
	if err := tr.check(); err != nil {
		t.Fatalf("well-formed tree rejected: %v", err)
	}
	if self := tr.selfTimes("root", time.Millisecond); len(self) != 1 || self[0] != 2 {
		t.Fatalf("self time = %v, want [2]", self)
	}
	tr.add(0, root, 1, "late", at(3), at(5))
	if err := tr.check(); err == nil {
		t.Fatal("child outlasting its parent was accepted")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the program
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadDefs) {
		t.Errorf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloadDefs))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloadDefs[w.Name]; !ok {
			t.Errorf("declared workload %s is not implemented", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d declared, %d printed", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: declared %s [%s], printed %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer())
}

// TestCPUTimes checks the /proc/stat reader the steal scaling rests on:
// the machine line and each CPU the process may use must parse.
func TestCPUTimes(t *testing.T) {
	if _, err := os.Stat("/proc/stat"); err != nil {
		t.Skip("no /proc/stat")
	}
	if _, busy, ok := cpuTimes(-1); !ok || busy <= 0 {
		t.Fatalf("machine counters: ok=%v busy=%d", ok, busy)
	}
	if set, ok := getAffinity(); ok {
		for _, cpu := range set.cpus() {
			if _, _, ok := cpuTimes(cpu); !ok {
				t.Errorf("cpu%d counters missing", cpu)
			}
		}
	}
	if got := stealShare(1, 3); got != 0.25 {
		t.Errorf("stealShare(1, 3) = %v, want 0.25", got)
	}
}
