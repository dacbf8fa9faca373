package exec

// The cardinality ledger is the one per-query execution-statistics record:
// per operator, how many rows and batches actually flowed against what the
// optimizer predicted, and per source-fetch attempt, the rows, wire bytes
// and link time it accounted for. Every consumer reads it: runtime
// feedback and the mid-query re-plan tripwire, EXPLAIN with actuals, and
// the ?trace=1 span tree (Spans). It stays cheap enough to run on every
// query — a few ints per operator — and reads a clock per batch only when
// the engine gives it one (SetClock), which it does for traced queries.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/netsim"
	"repro/internal/plan"
)

// OpCard is one operator's execution record.
type OpCard struct {
	// Node is the plan node this boundary wrapped.
	Node plan.Node
	// Est is the optimizer's row estimate for the node; -1 when the
	// caller provided no estimator.
	Est int64
	// Rows and Batches count what actually flowed through the boundary.
	// They are written by the single goroutine pulling this operator and
	// must only be read after the query's goroutines have joined.
	Rows    int64
	Batches int64
	// First and Last are the offsets from the ledger's start at which the
	// operator's first and latest NextBatch pull returned, on the ledger's
	// clock. Both stay zero when the ledger has no clock.
	First  time.Duration
	Last   time.Duration
	pulled bool
}

func (c *OpCard) notePull(at time.Duration) {
	if !c.pulled {
		c.pulled = true
		c.First = at
	}
	c.Last = at
}

// FetchCard is one remote fetch attempt's record. Failed attempts are
// recorded too (Err set), so a retried fetch accounts for every round trip
// it caused; only successful attempts feed cardinality feedback.
type FetchCard struct {
	Source  string
	Subtree plan.Node
	// Attempt numbers the source's fetch attempts within the query from 1;
	// retries and re-plan attempts keep counting.
	Attempt int
	// Rows and Bytes are the result rows and the wire bytes the attempt
	// moved; SimTime is the virtual link time it charged (latency,
	// serialization and backoff).
	Rows    int64
	Bytes   int64
	SimTime time.Duration
	// Start and Duration place the attempt on the ledger's clock (zero
	// without one).
	Start    time.Duration
	Duration time.Duration
	Err      error
}

// CardLedger accumulates OpCards and FetchCards for one query. Operators
// are appended at build time (which may happen inside prefetch goroutines)
// and fetches at fetch time, so both paths lock. Operator records cover
// the current execution attempt; fetch records cover the whole query.
type CardLedger struct {
	mu      sync.Mutex
	ops     []*OpCard
	fetches []FetchCard
	// attempt0 indexes the first fetch of the current execution attempt.
	attempt0 int
	// clock and start are set once, before execution, and only read
	// afterwards.
	clock netsim.Clock
	start time.Time
}

var cardLedgerPool = sync.Pool{New: func() any { return &CardLedger{} }}

// GetCardLedger returns a pooled, empty ledger.
func GetCardLedger() *CardLedger { return cardLedgerPool.Get().(*CardLedger) }

// PutCardLedger clears and recycles a ledger. Callers must not retain any
// OpCard pointers past this call.
func PutCardLedger(l *CardLedger) {
	if l == nil {
		return
	}
	l.Reset()
	clear(l.fetches)
	l.fetches = l.fetches[:0]
	l.attempt0 = 0
	l.clock = nil
	cardLedgerPool.Put(l)
}

// SetClock starts the ledger's clock: from here on every operator pull and
// fetch attempt is placed on it, relative to now. Call before execution
// starts; a ledger without a clock reads no time at all.
func (l *CardLedger) SetClock(c netsim.Clock) {
	l.clock = c
	l.start = c.Now()
}

// Elapsed returns the time since SetClock on the ledger's clock; zero for
// a nil ledger or one without a clock.
func (l *CardLedger) Elapsed() time.Duration {
	if l == nil || l.clock == nil {
		return 0
	}
	return l.clock.Since(l.start)
}

// Reset starts a new execution attempt (the engine resets between re-plan
// attempts): operator records are cleared so each attempt's counts stand
// alone, while fetch records are kept — the aborted attempt's round trips
// still happened.
func (l *CardLedger) Reset() {
	l.mu.Lock()
	for i := range l.ops {
		l.ops[i] = nil
	}
	l.ops = l.ops[:0]
	l.attempt0 = len(l.fetches)
	l.mu.Unlock()
}

func (l *CardLedger) addOp(n plan.Node, est int64) *OpCard {
	c := &OpCard{Node: n, Est: est}
	l.mu.Lock()
	l.ops = append(l.ops, c)
	l.mu.Unlock()
	return c
}

// RecordFetch appends one fetch attempt, numbering it after the source's
// earlier attempts (nil-safe).
func (l *CardLedger) RecordFetch(f FetchCard) {
	if l == nil {
		return
	}
	l.mu.Lock()
	f.Attempt = 1
	for i := range l.fetches {
		if l.fetches[i].Source == f.Source {
			f.Attempt++
		}
	}
	l.fetches = append(l.fetches, f)
	l.mu.Unlock()
}

// Ops returns the current attempt's operator records. Only call after
// execution has fully drained (all query goroutines joined): the records
// are written lock-free by their operators.
func (l *CardLedger) Ops() []*OpCard {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ops
}

// ByNode folds the current attempt's operator records into one per plan
// node: a node built more than once sums its counts and spans all of its
// pulls. Same contract as Ops.
func (l *CardLedger) ByNode() map[plan.Node]OpCard {
	out := make(map[plan.Node]OpCard)
	for _, c := range l.Ops() {
		m, seen := out[c.Node]
		if !seen {
			out[c.Node] = *c
			continue
		}
		m.Rows += c.Rows
		m.Batches += c.Batches
		if c.pulled {
			if !m.pulled || c.First < m.First {
				m.First = c.First
			}
			if c.Last > m.Last {
				m.Last = c.Last
			}
			m.pulled = true
		}
		out[c.Node] = m
	}
	return out
}

// Fetches returns every fetch attempt of the query, in record order,
// under the same contract as Ops.
func (l *CardLedger) Fetches() []FetchCard {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fetches
}

// AttemptFetches returns the fetch attempts recorded since the last
// Reset, under the same contract as Ops.
func (l *CardLedger) AttemptFetches() []FetchCard {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fetches[l.attempt0:]
}

// ReplanPolicy arms the mid-query re-plan tripwire: when an operator's
// actual row count exceeds Factor times its estimate (and at least
// MinRows, so toy inputs cannot trip), the operator's NextBatch returns a
// *ReplanError instead of the batch. The zero value disarms the tripwire.
type ReplanPolicy struct {
	// Factor is the underestimate multiple that trips (≥10 per the
	// adaptive protocol). 0 disables.
	Factor int64
	// MinRows is the floor below which no trip fires regardless of the
	// ratio: fabricated default estimates over small tables misestimate
	// wildly in relative terms while being off by only a few hundred rows
	// that cost nothing to process.
	MinRows int64
}

func (p ReplanPolicy) enabled() bool { return p.Factor > 0 }

// ReplanError aborts execution at an exchange batch boundary because an
// operator's observed cardinality blew through its estimate. The engine
// catches it, feeds the ledger back into the feedback store, re-optimizes,
// and re-executes; it is not a query failure.
type ReplanError struct {
	// Node is the operator whose cardinality tripped.
	Node plan.Node
	// Est and Actual are the estimated and observed row counts at the
	// moment of the trip (Actual keeps growing if execution continues, but
	// the trip fires on the first crossing batch).
	Est    int64
	Actual int64
}

func (e *ReplanError) Error() string {
	return fmt.Sprintf("exec: cardinality misestimate at %s: estimated %d rows, saw %d — replan requested",
		e.Node.Describe(), e.Est, e.Actual)
}
