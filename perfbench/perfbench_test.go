package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/datum"
)

// tinyScale keeps every workload's set-up and check well under a second.
var tinyScale = scale{
	portalCustomers: 60,
	portalRate:      400,
	reportCustomers: 120,
	semiUsers:       500,
	semiEvents:      400,
	setupRuns:       1,
	replayCap:       20,
}

type benchSpec struct {
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

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func tinyRun(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	o := options{workload: workload, seed: 7, seconds: 300 * time.Millisecond, trace: trace, traceDir: t.TempDir()}
	res, err := run(o, tinyScale, io.Discard)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", workload, trace, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// A tiny run of every workload, untraced and traced, is correct and
// emits exactly the metrics BENCHMARK.json names, each with its unit.
func TestTinyRunEmitsEveryMetric(t *testing.T) {
	spec := readSpec(t)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", w.Name)
		}
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			if trace {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			res := tinyRun(t, w.Name, trace)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d: %v", w.Name, trace, len(res.Metrics), len(want), keys(res.Metrics))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%v: %s unit %q, want %q", w.Name, trace, name, m.Unit, unit)
				}
			}
		}
	}
}

func keys(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// The answer check fails the ops of a statement whose answer differs
// from the expected one by a single row.
func TestAnswerCheckRejectsInjectedWrongRow(t *testing.T) {
	fx, err := setupReport(3, tinyScale, nil)
	if err != nil {
		t.Fatal(err)
	}
	cf := fx.(*closedFixture)
	p, err := cf.run(200*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, probs, err := cf.check(p); err != nil || n != 0 || len(probs) != 0 {
		t.Fatalf("untampered check: failed=%d problems=%v err=%v", n, probs, err)
	}
	// Expect one extra row from the first statement's answer.
	orig := cf.stmts[0].want
	cf.stmts[0].want = func() []datum.Row {
		rows := orig()
		return append(rows, datum.Row{datum.NewString("west"), datum.NewString("nobody"), datum.NewFloat(1)})
	}
	n, probs, err := cf.check(p)
	if err != nil {
		t.Fatal(err)
	}
	var ran int
	for _, s := range p.samples {
		if s.stmt == 0 {
			ran++
		}
	}
	if n != ran || ran == 0 || len(probs) != 1 {
		t.Fatalf("injected wrong row: failed=%d (statement ran %d times), problems=%v", n, ran, probs)
	}
}

func TestSameAnswer(t *testing.T) {
	a := canonRows([]datum.Row{{datum.NewInt(1), datum.NewString("x")}, {datum.NewInt(2), datum.NewString("y")}})
	swapped := []string{a[1], a[0]}
	if err := sameAnswer(swapped, a, false); err != nil {
		t.Errorf("multiset compare is order-sensitive: %v", err)
	}
	if err := sameAnswer(swapped, a, true); err == nil {
		t.Error("ordered compare ignored order")
	}
	changed := canonRows([]datum.Row{{datum.NewInt(1), datum.NewString("x")}, {datum.NewInt(2), datum.NewString("z")}})
	if err := sameAnswer(changed, a, false); err == nil {
		t.Error("a changed value compared equal")
	}
	// Numbers compare by value whatever their kind or encoding.
	if canonDatum(datum.NewFloat(3)) != canonJSON(json.Number("3")) || canonDatum(datum.NewInt(3)) != canonDatum(datum.NewFloat(3)) {
		t.Error("numeric canonical forms differ")
	}
}

// The part of a parent span its children cover counts overlapping
// children once and the parts outside the parent not at all; self time
// is the rest.
func TestSelfTimeOverlappingSpans(t *testing.T) {
	iv := func(lo, hi int) interval { return interval{time.Duration(lo), time.Duration(hi)} }
	parent := iv(0, 100)
	kids := []interval{iv(20, 50), iv(10, 30), iv(60, 70), iv(65, 68), iv(90, 120), iv(-5, 2), iv(150, 160)}
	// Covered: [0,2) 2 + [10,50) 40 + [60,70) 10 + [90,100) 10 = 62.
	if got := coveredLen(parent, kids); got != 62 {
		t.Errorf("coveredLen = %d, want 62", got)
	}
	if self := parent.hi - parent.lo - coveredLen(parent, kids); self != 38 {
		t.Errorf("self time = %d, want 38", self)
	}
	if got := unionLen([]interval{iv(0, 10), iv(10, 20), iv(5, 15)}); got != 20 {
		t.Errorf("unionLen of touching spans = %d, want 20", got)
	}
	if got := coveredLen(parent, nil); got != 0 {
		t.Errorf("coveredLen without children = %d", got)
	}
}

// The network metrics of the closed loops are counts over a fixed op
// sequence, so they repeat exactly for a seed.
func TestNetworkMetricsRepeatForASeed(t *testing.T) {
	for _, w := range []string{"report", "semijoin"} {
		a, b := tinyRun(t, w, false), tinyRun(t, w, false)
		for _, name := range []string{"ship_kb_per_query", "link_ms_per_query"} {
			if a.Metrics[name] != b.Metrics[name] {
				t.Errorf("%s %s: %v then %v", w, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
		ta, tb := tinyRun(t, w, true), tinyRun(t, w, true)
		if name := "netsim.round_trips_per_query"; ta.Metrics[name] != tb.Metrics[name] {
			t.Errorf("%s %s: %v then %v", w, name, ta.Metrics[name].Value, tb.Metrics[name].Value)
		}
	}
}
