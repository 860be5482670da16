package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestCountsRepeat checks that two same-seed runs of each workload give
// identical count metrics, the property that lets a later change claim
// a count as evidence.
func TestCountsRepeat(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			var runs [2]map[string]float64
			for i := range runs {
				s, ds, _, err := setup(name, 3, newTracer())
				if err != nil {
					t.Fatal(err)
				}
				if err := s.build(ds); err != nil {
					t.Fatal(err)
				}
				n := s.countOps / 10
				vals, _, err := counts(s, 3, n)
				if err != nil {
					t.Fatal(err)
				}
				runs[i] = vals
			}
			for k, v := range runs[0] {
				if !deterministic(k) {
					continue
				}
				if runs[1][k] != v {
					t.Errorf("%s: %v then %v", k, v, runs[1][k])
				}
			}
		})
	}
}

func deterministic(metric string) bool {
	for _, p := range []string{"summary.", "storage.", "exec.", "medwin.", "view.column_scans_per_op"} {
		if strings.HasPrefix(metric, p) {
			return true
		}
	}
	return false
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// metrics this program prints, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, program runs %v", names, workloadNames)
	}
	for _, c := range []struct {
		declared []struct{ Name, Unit string }
		printed  []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.declared) != len(c.printed) {
			t.Errorf("BENCHMARK.json declares %d metrics, program prints %d", len(c.declared), len(c.printed))
			continue
		}
		for i, m := range c.declared {
			if m.Name != c.printed[i].name || m.Unit != c.printed[i].unit {
				t.Errorf("metric %d: declared %s (%s), printed %s (%s)", i, m.Name, m.Unit, c.printed[i].name, c.printed[i].unit)
			}
		}
	}
}

func TestSameAnswer(t *testing.T) {
	for _, c := range []struct {
		got, want string
		same      bool
	}{
		{"mean(AGE) = 48.51234567891\n", "mean(AGE) = 48.51234567891\n", true},
		{"sd(AGE) = 17.915291420971453\n", "sd(AGE) = 17.915291420971116\n", true},
		{"sd(AGE) = 17.9153\n", "sd(AGE) = 17.9152\n", false},
		{"median(AGE) = 48\n", "mean(AGE) = 48\n", false},
		{"320 rows updated\n", "321 rows updated\n", false},
	} {
		if got := sameAnswer(c.got, c.want); got != c.same {
			t.Errorf("sameAnswer(%q, %q) = %v", c.got, c.want, got)
		}
	}
}

// TestAnalyseBalances checks the self-time split on a hand-built trace:
// one op with two statements, a device read and an event-log write
// inside, and replays outside the root.
func TestAnalyseBalances(t *testing.T) {
	spans := []span{
		{name: "op", parent: -1, start: 0, end: 100000},
		{name: "query.update", parent: 0, start: 1000, end: 41000},
		{name: "storage.read", parent: 1, start: 2000, end: 7000},
		{name: "query.describe", parent: 0, start: 42000, end: 99000},
		{name: "obs.sink", parent: 3, start: 90000, end: 91000},
		{name: "query.parse", parent: -1, start: 100000, end: 102000},
		{name: "view.update", parent: -1, start: 102000, end: 130000},
		{name: "storage.read", parent: 6, start: 103000, end: 108000},
		{name: "obs.snapshot", op: probeOp, parent: -1, start: 130000, end: 131000},
	}
	b, err := analyse(spans)
	if err != nil {
		t.Fatal(err)
	}
	want := breakdown{ops: 1, op: 100, parse: 2, view: 23, execSelf: 66, device: 5, sink: 1, remainder: 3}
	if b.ops != want.ops || b.op != want.op || b.parse != want.parse || b.view != want.view ||
		b.execSelf != want.execSelf || b.device != want.device || b.sink != want.sink || b.remainder != want.remainder {
		t.Errorf("breakdown %+v, want %+v", b, want)
	}
	if b.stmt["query.update"] != 40 || b.self["obs.snapshot"] != 1 || b.self["storage.read"] != 5 {
		t.Errorf("stmt %v self %v", b.stmt, b.self)
	}
}
