// Command perfbench is goei's end-to-end benchmark. It runs one workload
// (portal, report or semijoin) against the engine built from this
// checkout, checks every answer against rows it computes itself from the
// source tables, and prints the metrics named in BENCHMARK.json: the
// end-to-end metrics with --trace 0, the per-layer metrics of a traced
// run with --trace 1. The last line of standard output is one JSON
// object; the lines before it are the same figures for people.
//
//	bash perfbench/run.sh --workload report --seed 1 --seconds 30 --trace 0
//
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
)

// fixture is one built workload: data, engine (and server), warmed up.
type fixture interface {
	// run drives the workload for d; tr is non-nil in the traced phase.
	run(d time.Duration, tr *tracer) (*phase, error)
	// check compares answers with the source tables outside the timed
	// window and returns how many ops of p got a wrong answer.
	check(p *phase) (failedOps int, problems []string, err error)
	// probe runs a fixed prefix of the workload's reads serially, for
	// comparing a wrapped fixture with an unwrapped one.
	probe() ([]probeOut, error)
	// statements lists the distinct read statements run so far.
	statements() []string
	engine() *core.Engine
	close()
}

// scale sizes the workloads; tests use a tiny one.
type scale struct {
	portalCustomers int
	portalRate      float64 // offered load, arrivals per second
	reportCustomers int
	semiUsers       int
	semiEvents      int
	setupRuns       int // set-ups per run; setup_s is their median
	replayCap       int // distinct statements replayed through Parse/Plan
}

var fullScale = scale{
	portalCustomers: 2000,
	portalRate:      150,
	reportCustomers: 4000,
	semiUsers:       5000,
	semiEvents:      4000,
	setupRuns:       5,
	replayCap:       200,
}

type setupFunc func(seed int64, sc scale, tr *tracer) (fixture, error)

var workloads = map[string]setupFunc{
	"portal":   setupPortal,
	"report":   setupReport,
	"semijoin": setupSemijoin,
}

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	traceDir string // where the traced run writes its spans
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var seconds float64
	var trace int
	flag.StringVar(&o.workload, "workload", "", "portal, report or semijoin")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&seconds, "seconds", 30, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	o.seconds = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1
	o.traceDir = os.Getenv("PERFBENCH_TRACE_DIR")
	if o.traceDir == "" {
		o.traceDir = filepath.Join(".bench_build", "traces")
	}
	if _, ok := workloads[o.workload]; !ok || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload portal|report|semijoin --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	res, err := run(o, fullScale, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(o options, sc scale, out io.Writer) (*result, error) {
	if o.trace {
		return runTraced(o, sc, out)
	}
	setup := workloads[o.workload]
	var setups []float64
	var fx fixture
	for i := 0; i < sc.setupRuns; i++ {
		if fx != nil {
			fx.close()
		}
		t0 := time.Now()
		var err error
		if fx, err = setup(o.seed, sc, nil); err != nil {
			return nil, fmt.Errorf("set up %s: %w", o.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer fx.close()
	heap := heapAfterGC()
	p, err := fx.run(o.seconds, nil)
	if err != nil {
		return nil, err
	}
	wrong, problems, err := fx.check(p)
	if err != nil {
		return nil, err
	}
	e2e := endToEnd(p, median(setups), heap)
	res := newResult(p, wrong, problems, out)
	fmt.Fprintf(out, "%s seed=%d seconds=%g: %d ops (%d reads, %d writes), %d latency samples, setups %s\n",
		o.workload, o.seed, o.seconds.Seconds(), len(p.samples), len(p.reads()), len(p.samples)-len(p.reads()),
		len(latencies(p)), fmtList(setups, "%.3fs"))
	for i, f := range p.slices() {
		fmt.Fprintf(out, "slice %d: %d samples, p50 %.3fms p99 %.3fms %.1f/s cpu %.0fus/op\n",
			i, f.samples, f.p50, f.p99, f.qps, f.cpuPerOp)
	}
	printMetrics(out, "end-to-end", e2e.metrics)
	printMetrics(out, "also", e2e.extra)
	fmt.Fprintf(out, "failed_frac %.6f (%d of %d ops)\n", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	res.Metrics = e2e.metrics
	return res, nil
}

// runTraced builds the workload twice from one seed, once plain and once
// with every source (and the HTTP handler) wrapped, proves the wrappers
// change nothing, then measures half the time on each: the plain half
// gives the untraced p50 the tracing overhead is measured against, the
// wrapped half gives the per-layer figures.
func runTraced(o options, sc scale, out io.Writer) (*result, error) {
	setup := workloads[o.workload]
	plain, err := setup(o.seed, sc, nil)
	if err != nil {
		return nil, fmt.Errorf("set up %s: %w", o.workload, err)
	}
	defer plain.close()
	tr := newTracer()
	wrapped, err := setup(o.seed, sc, tr)
	if err != nil {
		return nil, fmt.Errorf("set up traced %s: %w", o.workload, err)
	}
	defer wrapped.close()

	var problems []string
	pa, err := plain.probe()
	if err != nil {
		return nil, err
	}
	pb, err := wrapped.probe()
	if err != nil {
		return nil, err
	}
	if err := sameProbes(pa, pb); err != nil {
		problems = append(problems, "wrapped run differs from plain run: "+err.Error())
	}
	fmt.Fprintf(out, "wrappers: %d probe statements, rows/netsim/plans identical: %v\n", len(pa), len(problems) == 0)
	tr.take()

	half := o.seconds / 2
	pu, err := plain.run(half, nil)
	if err != nil {
		return nil, err
	}
	pt, err := wrapped.run(half, tr)
	if err != nil {
		return nil, err
	}
	spans := tr.take()
	var failed int
	for _, c := range []struct {
		fx fixture
		p  *phase
	}{{plain, pu}, {wrapped, pt}} {
		n, probs, err := c.fx.check(c.p)
		if err != nil {
			return nil, err
		}
		failed += n
		problems = append(problems, probs...)
	}
	replay, err := replayFrontEnd(wrapped, sc.replayCap)
	if err != nil {
		return nil, err
	}
	lm := layerMetrics(pt, pu, spans, replay, out)

	both := &phase{samples: append(append([]sample(nil), pu.samples...), pt.samples...)}
	res := newResult(both, failed, problems, out)
	res.Metrics = lm
	fmt.Fprintf(out, "%s seed=%d traced: plain half %d ops, traced half %d ops, %d spans\n",
		o.workload, o.seed, len(pu.samples), len(pt.samples), len(spans))
	printMetrics(out, "per-layer", lm)
	if err := writeSpans(o.traceDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed), spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return res, nil
}

// newResult counts attempted and failed ops: errors (including sheds)
// plus ops whose answer the check found wrong.
func newResult(p *phase, wrongOps int, problems []string, out io.Writer) *result {
	res := &result{Attempted: len(p.samples), Failed: wrongOps}
	for _, s := range p.samples {
		if s.err != nil {
			res.Failed++
			problems = append(problems, s.err.Error())
		}
	}
	for i, msg := range problems {
		if i == 10 {
			fmt.Fprintf(out, "... %d more problems\n", len(problems)-i)
			break
		}
		fmt.Fprintf(out, "PROBLEM: %s\n", msg)
	}
	res.Correct = len(problems) == 0 && res.Failed == 0 && res.Attempted > 0
	return res
}

func sameProbes(a, b []probeOut) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d probe statements vs %d", len(a), len(b))
	}
	for i := range a {
		switch {
		case a[i].sql != b[i].sql:
			return fmt.Errorf("probe %d ran %q vs %q", i, a[i].sql, b[i].sql)
		case sameAnswer(a[i].rows, b[i].rows, true) != nil:
			return fmt.Errorf("%s: rows differ: %v", oneLine(a[i].sql), sameAnswer(a[i].rows, b[i].rows, true))
		case a[i].net != b[i].net:
			return fmt.Errorf("%s: netsim %v vs %v", oneLine(a[i].sql), a[i].net, b[i].net)
		case a[i].plan != b[i].plan:
			return fmt.Errorf("%s: plans differ:\n%s\nvs\n%s", oneLine(a[i].sql), a[i].plan, b[i].plan)
		}
	}
	return nil
}

func printMetrics(out io.Writer, title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "%-10s %-40s %14.6g %s\n", title, k, m[k].Value, m[k].Unit)
	}
}

func fmtList(xs []float64, f string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(f, x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func oneLine(s string) string { return strings.Join(strings.Fields(s), " ") }
