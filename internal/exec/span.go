package exec

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/plan"
)

// Span is one node of a query's trace tree. Offsets and durations are
// measured on the engine's clock: wall time under netsim.Wall, virtual
// time under a VirtualClock (where most spans collapse to zero and the
// interesting latency shows up in SimTime instead). Fetch spans carry the
// per-attempt link accounting — virtual link time, wire bytes, rows — so
// a traced query accounts for every round trip it caused.
type Span struct {
	// Name identifies the span: "query", "plan", "exec", "fetch", or an
	// operator's Describe() line.
	Name string `json:"name"`
	// Source is the source a fetch span talked to.
	Source string `json:"source,omitempty"`
	// Attempt numbers a source's fetch attempts from 1; attempts > 1 are
	// retries.
	Attempt int `json:"attempt,omitempty"`
	// Start is the span's offset from the start of the query.
	Start time.Duration `json:"start"`
	// Duration is the span's extent on the engine clock.
	Duration time.Duration `json:"duration"`
	// SimTime is the virtual link time a fetch charged (latency +
	// serialization + backoff); non-zero even when the clock is virtual.
	SimTime time.Duration `json:"simTime,omitempty"`
	// Rows / Bytes / Batches count what flowed through the span: operator
	// output rows and batches, or fetch result rows and wire bytes.
	Rows    int64 `json:"rows,omitempty"`
	Bytes   int64 `json:"bytes,omitempty"`
	Batches int64 `json:"batches,omitempty"`
	// Error records a failed fetch attempt's error text.
	Error string `json:"error,omitempty"`
	// Children are the nested spans.
	Children []*Span `json:"children,omitempty"`
}

// Render formats the span tree indented, one span per line.
func (s *Span) Render() string {
	var b strings.Builder
	var walk func(*Span, int)
	walk = func(sp *Span, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(sp.Name)
		if sp.Source != "" {
			fmt.Fprintf(&b, " %s", sp.Source)
		}
		if sp.Attempt > 1 {
			fmt.Fprintf(&b, " (attempt %d)", sp.Attempt)
		}
		fmt.Fprintf(&b, " [start=%s dur=%s", sp.Start, sp.Duration)
		if sp.SimTime > 0 {
			fmt.Fprintf(&b, " sim=%s", sp.SimTime)
		}
		if sp.Rows > 0 {
			fmt.Fprintf(&b, " rows=%d", sp.Rows)
		}
		if sp.Batches > 0 {
			fmt.Fprintf(&b, " batches=%d", sp.Batches)
		}
		if sp.Bytes > 0 {
			fmt.Fprintf(&b, " bytes=%d", sp.Bytes)
		}
		b.WriteByte(']')
		if sp.Error != "" {
			fmt.Fprintf(&b, " error=%q", sp.Error)
		}
		b.WriteByte('\n')
		for _, c := range sp.Children {
			walk(c, depth+1)
		}
	}
	walk(s, 0)
	return b.String()
}

// Fetches returns every fetch span in the tree, in record order.
func (s *Span) Fetches() []*Span {
	var out []*Span
	var walk func(*Span)
	walk = func(sp *Span) {
		if sp.Name == "fetch" {
			out = append(out, sp)
		}
		for _, c := range sp.Children {
			walk(c)
		}
	}
	walk(s)
	return out
}

// Spans renders the query's span tree from the ledger: a root "query"
// span covering planning plus execution, a "plan" child, an "exec" child
// holding the operator tree (shaped like the executed plan, labeled by
// Describe), and one "fetch" child per source-fetch attempt of every
// execution attempt. planTime shifts execution offsets so they are
// relative to query start. Offsets come from the ledger's clock, so a
// ledger without one renders zero offsets and durations. Same contract as
// Ops: call only after the query's goroutines have joined.
func (l *CardLedger) Spans(root plan.Node, planTime time.Duration) *Span {
	execDur := l.Elapsed()
	cards := l.ByNode()
	var opTree func(plan.Node) *Span
	opTree = func(n plan.Node) *Span {
		sp := &Span{Name: n.Describe(), Start: planTime}
		if c, ok := cards[n]; ok {
			sp.Start += c.First
			sp.Duration = c.Last - c.First
			sp.Rows, sp.Batches = c.Rows, c.Batches
		}
		for _, k := range n.Children() {
			sp.Children = append(sp.Children, opTree(k))
		}
		return sp
	}

	query := &Span{Name: "query", Duration: planTime + execDur}
	query.Children = append(query.Children, &Span{Name: "plan", Duration: planTime})
	execSpan := &Span{Name: "exec", Start: planTime, Duration: execDur}
	if root != nil {
		execSpan.Children = append(execSpan.Children, opTree(root))
	}
	query.Children = append(query.Children, execSpan)
	for _, f := range l.Fetches() {
		sp := &Span{
			Name: "fetch", Source: f.Source, Attempt: f.Attempt,
			Start: planTime + f.Start, Duration: f.Duration,
			SimTime: f.SimTime, Rows: f.Rows, Bytes: f.Bytes,
		}
		if f.Err != nil {
			sp.Error = f.Err.Error()
		}
		query.Children = append(query.Children, sp)
	}
	return query
}
