package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/sqlparse"
)

// latencies are the read latencies (ms) of the ops that got an answer,
// timed from each op's due time.
func latencies(p *phase) []float64 {
	var out []float64
	for _, s := range p.samples {
		if !s.write && s.err == nil {
			out = append(out, ms(s.latency()))
		}
	}
	return out
}

type e2eOut struct {
	metrics map[string]metric // the BENCHMARK.json end-to-end set
	extra   map[string]metric // printed only
}

// endToEnd computes the end-to-end figures of an untraced phase.
// Latency percentiles, throughput and CPU per op come from the best of
// the phase's slices; the whole-window figures are printed beside them.
// Allocation, bytes and link time are counts over the whole window. The
// p99 is printed but not gated: on a shared two-CPU machine its
// run-to-run spread is wider than any bound BENCHMARK.json may set.
func endToEnd(p *phase, setupS float64, heap uint64) e2eOut {
	lat := latencies(p)
	sl := p.slices()
	reads := float64(p.netReads)
	out := e2eOut{
		metrics: map[string]metric{
			"setup_s":           {setupS, "s"},
			"p50_ms":            {best(sl, false, func(f sliceFigures) float64 { return f.p50 }), "ms"},
			"throughput_qps":    {best(sl, true, func(f sliceFigures) float64 { return f.qps }), "1/s"},
			"cpu_us_per_op":     {best(sl, false, func(f sliceFigures) float64 { return f.cpuPerOp }), "us"},
			"alloc_kb_per_op":   {ratio(float64(p.res.alloc)/1000, float64(len(p.samples))), "kB"},
			"heap_mb":           {float64(heap) / 1e6, "MB"},
			"ship_kb_per_query": {ratio(float64(p.net.BytesShipped)/1000, reads), "kB"},
			"link_ms_per_query": {ratio(ms(p.net.SimTime), reads), "ms"},
		},
		extra: map[string]metric{
			"p99_ms":                 {best(sl, false, func(f sliceFigures) float64 { return f.p99 }), "ms"},
			"latency_samples":        {float64(len(lat)), "count"},
			"whole_window.p50_ms":    {quantile(lat, 0.50), "ms"},
			"whole_window.p99_ms":    {quantile(lat, 0.99), "ms"},
			"whole_window.p999_ms":   {quantile(lat, 0.999), "ms"},
			"whole_window.qps":       {float64(len(lat)) / p.wall.Seconds(), "1/s"},
			"whole_window.cpu_us_op": {ratio(us(p.res.cpu), float64(len(p.samples))), "us"},
		},
	}
	var writes []float64
	for _, s := range p.samples {
		if s.write && s.err == nil {
			writes = append(writes, us(s.latency()))
		}
	}
	if len(writes) > 0 {
		out.extra["write_p50_us"] = metric{quantile(writes, 0.5), "us"}
		out.extra["write_samples"] = metric{float64(len(writes)), "count"}
	}
	return out
}

// frontEnd is the replayed parse and compile cost of the workload's
// distinct statements.
type frontEnd struct {
	statements int
	parseUS    float64
	compileUS  float64
}

// replayFrontEnd times sqlparse.Parse and core.Engine.Plan (a fresh
// compile, no plan cache) on up to limit distinct statements spread over
// the run, outside any timed window; each figure is the median of three
// calls, averaged over statements.
func replayFrontEnd(fx fixture, limit int) (frontEnd, error) {
	all := fx.statements()
	step := 1
	if len(all) > limit {
		step = (len(all) + limit - 1) / limit
	}
	qo := core.QueryOptions{Parallel: true, Adaptive: true}
	var fe frontEnd
	var parse, compile []float64
	for i := 0; i < len(all); i += step {
		sql := all[i]
		var pt, ct []float64
		for r := 0; r < 3; r++ {
			t0 := time.Now()
			if _, err := sqlparse.Parse(sql); err != nil {
				return fe, fmt.Errorf("replay parse %q: %w", sql, err)
			}
			t1 := time.Now()
			if _, err := fx.engine().Plan(sql, qo); err != nil {
				return fe, fmt.Errorf("replay plan %q: %w", sql, err)
			}
			t2 := time.Now()
			pt = append(pt, us(t1.Sub(t0)))
			ct = append(ct, us(t2.Sub(t1)))
		}
		parse = append(parse, median(pt))
		compile = append(compile, median(ct))
	}
	fe.statements = len(parse)
	fe.parseUS, fe.compileUS = mean(parse), mean(compile)
	return fe, nil
}

// layerMetrics derives the per-layer figures of the traced phase pt;
// pu is the untraced phase the tracing overhead is measured against.
// Figures that exist only on some workloads (HTTP, admission, the load
// generator, writes) are printed but not returned.
func layerMetrics(pt, pu *phase, spans []span, fe frontEnd, out io.Writer) map[string]metric {
	groups := groupByOp(spans)
	var (
		n                                float64 // reads answered
		comps                            []pathShare
		planHit, planMiss                []float64
		busy                             time.Duration
		fetches, fetchRows               int
		bySource                         = map[string]time.Duration{}
		handler, overhead, respKB, queue []float64
		client, late                     []float64
		batches, rowsOut, par            float64
		replans, estErrors               float64
		selfSum                          time.Duration
		httpSeen                         bool
	)
	for _, s := range pt.samples {
		if s.write || s.err != nil {
			continue
		}
		n++
		ot := groups[s.op]
		if ot == nil {
			ot = &opTrace{}
		}
		if s.cacheHit {
			planHit = append(planHit, us(s.plan))
		} else {
			planMiss = append(planMiss, us(s.plan))
		}
		iv := make([]interval, 0, len(ot.fetches))
		for _, f := range ot.fetches {
			busy += f.dur()
			bySource[f.Source] += f.dur()
			fetches++
			fetchRows += f.Rows
			iv = append(iv, interval{f.Start, f.End})
		}
		var fed time.Duration
		if ot.op != nil {
			fed = coveredLen(interval{ot.op.Start, ot.op.End}, iv)
		}
		execOnly := s.exec - s.queue // Elapsed includes the admission wait
		c := pathShare{late: s.start - s.due, queue: s.queue, plan: s.plan, fed: fed, self: execOnly - fed}
		if ot.handler != nil {
			httpSeen = true
			h := ot.handler.dur()
			c.overhead = h - s.plan - s.exec
			c.client = (s.end - s.start) - h
			handler = append(handler, us(h))
			overhead = append(overhead, us(c.overhead))
			client = append(client, us(c.client))
			respKB = append(respKB, float64(s.respBytes)/1000)
		} else {
			c.other = (s.end - s.start) - s.plan - s.exec
		}
		queue = append(queue, us(s.queue))
		late = append(late, ms(c.late))
		comps = append(comps, c)
		selfSum += c.self
		batches += float64(s.batches)
		rowsOut += float64(s.rows)
		par += float64(s.parallelism)
		replans += float64(s.replans)
		estErrors += float64(s.estErrors)
	}
	ops := float64(len(pt.samples))
	lookups := float64(pt.cache.Hits + pt.cache.Misses)
	tracedP50 := quantile(latencies(pt), 0.5)
	plainP50 := quantile(latencies(pu), 0.5)

	// The blocking path at the median: average each layer's share over
	// the ops whose latency ranks between the 45th and 55th percentile.
	sort.Slice(comps, func(i, j int) bool { return comps[i].total() < comps[j].total() })
	lo, hi := len(comps)*45/100, len(comps)*55/100+1
	if hi > len(comps) {
		hi = len(comps)
	}
	var band pathShare
	for _, c := range comps[lo:hi] {
		band.add(c)
	}
	k := float64(hi - lo)
	avg := func(d time.Duration) float64 { return ratio(ms(d), k) }
	accounted := avg(band.total())
	residual := tracedP50 - accounted
	fmt.Fprintf(out, "blocking path at p50 (ops ranked p45-p55, n=%d), ms: loadgen.late %.4f + loadgen.client %.4f + httpapi.overhead %.4f + core.admission_wait %.4f + core.plan %.4f + federation.busy(union) %.4f + exec.self %.4f + engine.unattributed %.4f = %.4f; traced p50 %.4f, residual %.4f (%.2f%%); untraced p50 %.4f\n",
		hi-lo, avg(band.late), avg(band.client), avg(band.overhead), avg(band.queue), avg(band.plan),
		avg(band.fed), avg(band.self), avg(band.other), accounted, tracedP50, residual,
		100*ratio(residual, tracedP50), plainP50)

	m := map[string]metric{
		"core.plan_us.hit":                   {mean(planHit), "us"},
		"plancache.hit_ratio":                {ratio(float64(pt.cache.Hits), lookups), "frac"},
		"plancache.drift_invalidations":      {float64(pt.cache.DriftInvalidations), "count"},
		"sqlparse.parse_us":                  {fe.parseUS, "us"},
		"opt.compile_us":                     {fe.compileUS, "us"},
		"feedback.replans_per_kquery":        {ratio(1000*replans, n), "count"},
		"feedback.estimate_errors_per_query": {ratio(estErrors, n), "count"},
		"federation.busy_us_per_query":       {ratio(us(busy), n), "us"},
		"federation.fetches_per_query":       {ratio(float64(fetches), n), "count"},
		"federation.rows_per_fetch":          {ratio(float64(fetchRows), float64(fetches)), "count"},
		"netsim.round_trips_per_query":       {ratio(float64(pt.net.RoundTrips), float64(pt.netReads)), "count"},
		"netsim.wire_kb_per_query":           {ratio(float64(pt.net.WireBytes)/1000, float64(pt.netReads)), "kB"},
		"exec.self_us_per_query":             {ratio(us(selfSum), n), "us"},
		"exec.batches_per_query":             {ratio(batches, n), "count"},
		"exec.rows_out_per_query":            {ratio(rowsOut, n), "count"},
		"exec.parallelism":                   {ratio(par, n), "count"},
		"runtime.gc_cycles_per_kop":          {ratio(1000*float64(pt.res.numGC), ops), "count"},
		"runtime.gc_cpu_frac":                {ratio(pt.res.gcCPU, pt.res.totalCPU), "frac"},
		"trace.overhead_frac":                {ratio(tracedP50, plainP50) - 1, "frac"},
		"trace.p50_residual_frac":            {ratio(residual, tracedP50), "frac"},
	}
	also := map[string]metric{
		"traced.p50_ms":       {tracedP50, "ms"},
		"untraced.p50_ms":     {plainP50, "ms"},
		"replayed_statements": {float64(fe.statements), "count"},
	}
	if len(planMiss) > 0 {
		also["core.plan_us.miss"] = metric{mean(planMiss), "us"}
	}
	for src, d := range bySource {
		also["federation.busy_us_per_query."+src] = metric{ratio(us(d), n), "us"}
	}
	if httpSeen {
		also["httpapi.handler_us"] = metric{mean(handler), "us"}
		also["httpapi.overhead_us"] = metric{mean(overhead), "us"}
		also["httpapi.response_kb"] = metric{mean(respKB), "kB"}
		also["core.admission_wait_us"] = metric{mean(queue), "us"}
		also["loadgen.client_us"] = metric{mean(client), "us"}
		also["loadgen.max_late_ms"] = metric{maxOf(late), "ms"}
		also["loadgen.p99_late_ms"] = metric{quantile(late, 0.99), "ms"}
	}
	var writes, inserts []float64
	for _, s := range pt.samples {
		if s.write && s.err == nil {
			writes = append(writes, us(s.latency()))
		}
	}
	for _, sp := range spans {
		if sp.Name == "write" {
			inserts = append(inserts, us(sp.dur()))
		}
	}
	if len(writes) > 0 {
		also["write_p50_us"] = metric{quantile(writes, 0.5), "us"}
		also["source.insert_us"] = metric{mean(inserts), "us"}
	}
	printMetrics(out, "also", also)
	return m
}

// pathShare splits one read's latency along its blocking path: generator
// lateness, client and HTTP overhead, admission wait, planning, source
// fetches (their union), mediator self time, and engine time not covered
// by the engine's own timers. The parts sum to the latency.
type pathShare struct{ late, client, overhead, queue, plan, fed, self, other time.Duration }

func (c *pathShare) add(o pathShare) {
	c.late += o.late
	c.client += o.client
	c.overhead += o.overhead
	c.queue += o.queue
	c.plan += o.plan
	c.fed += o.fed
	c.self += o.self
	c.other += o.other
}

func (c pathShare) total() time.Duration {
	return c.late + c.client + c.overhead + c.queue + c.plan + c.fed + c.self + c.other
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
