package main

// The closed loop shared by report and semijoin: one client calls
// core.Engine.QueryCtx, sending the next statement when the previous one
// answers. Statements cycle in a fixed order, so a run's op sequence
// depends only on the seed.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/netsim"
	"repro/internal/plan"
)

// stmt is one distinct statement of a workload and the answer the
// benchmark expects, computed from the source tables.
type stmt struct {
	sql     string
	ordered bool // the statement orders its output; compare as a sequence
	want    func() []datum.Row
}

type closedFixture struct {
	eng   *core.Engine
	stmts []stmt
	next  int // position in the statement cycle
}

// newClosedFixture warms the engine with one full cycle of the
// statements: every plan is cached and, under adaptive planning, the
// first re-plans are absorbed before anything is timed.
func newClosedFixture(eng *core.Engine, stmts []stmt) (*closedFixture, error) {
	f := &closedFixture{eng: eng, stmts: stmts}
	for i := range stmts {
		if _, err := eng.QueryCtx(context.Background(), stmts[i].sql); err != nil {
			return nil, fmt.Errorf("warm-up %q: %w", stmts[i].sql, err)
		}
	}
	return f, nil
}

func (f *closedFixture) engine() *core.Engine { return f.eng }

func (f *closedFixture) close() {}

func (f *closedFixture) statements() []string {
	out := make([]string, len(f.stmts))
	for i, s := range f.stmts {
		out[i] = s.sql
	}
	return out
}

// run drives the closed loop for d. Per-query network metrics cover the
// first full statement cycle of the phase (or every op of a phase shorter
// than one cycle): a serial client makes each op's Result.Network exact,
// and a fixed set of ops makes the figure repeat exactly for a seed.
func (f *closedFixture) run(d time.Duration, tr *tracer) (*phase, error) {
	p := &phase{samples: make([]sample, 0, 4096), window: d}
	cache0 := f.eng.PlanCacheStats()
	res0 := snapResources()
	epoch := time.Now()
	marks := markSlices(epoch, d)
	deadline := epoch.Add(d)
	for now := epoch; now.Before(deadline); {
		k := f.next % len(f.stmts)
		f.next++
		ctx := context.Background()
		var id uint64
		if tr != nil {
			id = tr.newID()
			ctx = withOp(ctx, id)
		}
		t0 := time.Now()
		r, err := f.eng.QueryCtx(ctx, f.stmts[k].sql)
		t1 := time.Now()
		s := sample{op: id, stmt: k, due: t0.Sub(epoch), start: t0.Sub(epoch), end: t1.Sub(epoch), err: err}
		if r != nil {
			s.rows = len(r.Rows)
			s.plan, s.exec, s.queue = r.PlanTime, r.Elapsed, r.QueueTime
			s.cacheHit = r.CacheHit
			s.parallelism = r.ExecParallelism
			s.batches = r.BatchesProcessed
			s.replans, s.estErrors = r.ReplanCount, r.EstimateErrors
			s.net = r.Network
		}
		if tr != nil {
			tr.add(span{ID: id, Name: "op", Start: tr.since(t0), End: tr.since(t1)})
		}
		p.samples = append(p.samples, s)
		now = t1
	}
	p.res = snapResources().since(res0)
	p.wall = time.Since(epoch)
	p.marks = marks()
	p.cache = cacheDelta(f.eng.PlanCacheStats(), cache0)
	n := len(f.stmts)
	if len(p.samples) < n {
		n = len(p.samples)
	}
	for _, s := range p.samples[:n] {
		p.net.Add(s.net)
	}
	p.netReads = n
	return p, nil
}

// check runs every distinct statement once more, outside the timed
// window, and compares its rows with the expected answer. An op of the
// phase fails when its statement's answer is wrong or when it returned a
// different number of rows than the checked answer (the tables do not
// change during these workloads).
func (f *closedFixture) check(p *phase) (failedOps int, problems []string, err error) {
	counts := make([]int, len(f.stmts))
	wrong := make([]bool, len(f.stmts))
	for i, st := range f.stmts {
		r, err := f.eng.QueryCtx(context.Background(), st.sql)
		if err != nil {
			return 0, nil, fmt.Errorf("check %q: %w", st.sql, err)
		}
		counts[i] = len(r.Rows)
		if d := sameAnswer(canonRows(r.Rows), canonRows(st.want()), st.ordered); d != nil {
			wrong[i] = true
			problems = append(problems, fmt.Sprintf("%s: %v", oneLine(st.sql), d))
		}
	}
	for _, s := range p.samples {
		if s.err == nil && (wrong[s.stmt] || s.rows != counts[s.stmt]) {
			failedOps++
		}
	}
	return failedOps, problems, nil
}

// probeOut is what a wrapped and an unwrapped fixture must agree on.
type probeOut struct {
	sql  string
	rows []string
	net  netsim.Metrics
	plan string
}

// probe runs each distinct statement once.
func (f *closedFixture) probe() ([]probeOut, error) {
	out := make([]probeOut, 0, len(f.stmts))
	for _, st := range f.stmts {
		r, err := f.eng.QueryCtx(context.Background(), st.sql)
		if err != nil {
			return nil, fmt.Errorf("probe %q: %w", st.sql, err)
		}
		out = append(out, probeOut{sql: st.sql, rows: canonRows(r.Rows), net: r.Network, plan: plan.Explain(r.Plan)})
	}
	return out, nil
}

// wrapSources re-registers every source of e behind a tracedSource.
func wrapSources(e *core.Engine, tr *tracer) error {
	for _, name := range e.Sources() {
		src, _ := e.Source(name)
		e.Deregister(name)
		if err := e.Register(&tracedSource{Source: src, tr: tr}); err != nil {
			return err
		}
	}
	return nil
}
