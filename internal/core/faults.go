package core

// This file holds the fault-tolerant execution plumbing: the per-query
// runtime that gates every remote fetch through the source's circuit
// breaker and the query's deadline, the per-query fault ledger, and the
// degradation path that substitutes replica reads or empty results for
// failed sources.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/federation"
	"repro/internal/netsim"
	"repro/internal/plan"
)

// queryFaults is one query's fault ledger. Remote fetches may run
// concurrently (prefetch goroutines), so it locks. The maps initialize
// lazily: the overwhelmingly common fault-free query never allocates them.
type queryFaults struct {
	mu       sync.Mutex
	errors   map[string]int
	retries  map[string]int
	skipped  map[string]bool
	replicas map[string]bool
}

func (f *queryFaults) recordError(source string) {
	f.mu.Lock()
	if f.errors == nil {
		f.errors = make(map[string]int)
	}
	f.errors[source]++
	f.mu.Unlock()
}

func (f *queryFaults) recordRetry(source string) {
	f.mu.Lock()
	if f.retries == nil {
		f.retries = make(map[string]int)
	}
	f.retries[source]++
	f.mu.Unlock()
}

func (f *queryFaults) recordSkip(source string) {
	f.mu.Lock()
	if f.skipped == nil {
		f.skipped = make(map[string]bool)
	}
	f.skipped[source] = true
	f.mu.Unlock()
}

func (f *queryFaults) recordReplica(source string) {
	f.mu.Lock()
	if f.replicas == nil {
		f.replicas = make(map[string]bool)
	}
	f.replicas[source] = true
	f.mu.Unlock()
}

// fill copies the ledger into a finished Result.
func (f *queryFaults) fill(res *Result) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.errors) > 0 {
		res.SourceErrors = make(map[string]int, len(f.errors))
		for s, n := range f.errors {
			res.SourceErrors[s] = n
		}
	}
	if len(f.retries) > 0 {
		res.Retries = make(map[string]int, len(f.retries))
		for s, n := range f.retries {
			res.Retries[s] = n
		}
	}
	for s := range f.skipped {
		res.SkippedSources = append(res.SkippedSources, s)
	}
	sort.Strings(res.SkippedSources)
	for s := range f.replicas {
		res.ReplicaSources = append(res.ReplicaSources, s)
	}
	sort.Strings(res.ReplicaSources)
	res.Partial = len(res.SkippedSources) > 0
}

// queryRuntime is the exec.Runtime of one query execution. RunRemote is
// the single-attempt primitive; retries, backoff and degradation wrap it
// via exec.FetchRemote (see execOptions).
type queryRuntime struct {
	e      *Engine
	ctx    context.Context // the query's derived context (deadline + cancel)
	faults queryFaults
	opts   exec.Options // set after construction; used by ScanTable
	// sources is the immutable source map captured when the execution
	// started; all remote fetches of this query resolve against it.
	sources map[string]federation.Source
	// router, when non-nil, is the cluster fetch router captured at the
	// same time: fetches against peer-owned shards execute at the owner.
	router FetchRouter
	// slot is the query's admission hold (nil when admission control is
	// disabled); remote fetches charge scanned bytes against it.
	slot *AdmissionSlot
	// stats is the query's execution counters, embedded here so the
	// per-query allocation is shared with the runtime's.
	stats exec.ExecStats
	// userOnSourceError is the caller's QueryOptions.OnSourceError hook,
	// invoked from this runtime's own OnSourceError (see exec.FetchHooks).
	userOnSourceError func(source string, attempt int, err error)
}

// queryRuntime implements exec.FetchHooks so the engine hands exec all
// three retry/fault callbacks as one interface value instead of three
// per-query closures.

func (rt *queryRuntime) ChargeBackoff(source string, d time.Duration) {
	if src, ok := rt.sources[source]; ok {
		src.Link().ChargeDelay(d)
	}
}

func (rt *queryRuntime) OnRetry(source string) { rt.faults.recordRetry(source) }

func (rt *queryRuntime) OnSourceError(source string, attempt int, err error) {
	if IsOverload(err) {
		// Admission rejections are not source faults: keep them out of
		// the E12 ledger and the caller's error hook.
		return
	}
	rt.faults.recordError(source)
	if rt.userOnSourceError != nil {
		rt.userOnSourceError(source, attempt, err)
	}
}

func (rt *queryRuntime) ScanTable(ctx context.Context, source, table string) (exec.Iterator, error) {
	// A bare scan outside a Remote ships the whole table; route it
	// through the same retry/degradation pipeline as placed Remotes.
	return exec.FetchRemote(ctx, rt, rt.opts, source, &plan.Scan{Source: source, Table: table})
}

func (rt *queryRuntime) RunRemote(ctx context.Context, source string, subtree plan.Node) (exec.Iterator, error) {
	// Every attempt, on either branch, lands in the query's ledger (when it
	// has one): traces show each round trip, feedback takes the successful
	// ones.
	cards := rt.opts.Cards
	if rt.router != nil {
		start := cards.Elapsed()
		rows, handled, err := rt.router.RouteRemote(ctx, source, subtree)
		if handled {
			// A peer mediator owned and answered (or failed) the fetch.
			// Its own breakers and retries already ran at the owner; the
			// coordinator only charges the scan budget and surfaces errors
			// into the normal retry/degradation pipeline. The wire
			// accounting happened at the owner, so bytes and link time
			// stay 0 here.
			cards.RecordFetch(exec.FetchCard{Source: source, Subtree: subtree,
				Rows: int64(len(rows)), Start: start, Duration: cards.Elapsed() - start, Err: err})
			if err != nil {
				return nil, fmt.Errorf("core: source %s (via peer): %w", source, err)
			}
			if len(rows) > 0 {
				bytes := int64(datum.RowWireSize(rows[0])) * int64(len(rows))
				if qerr := rt.slot.ChargeScan(bytes); qerr != nil {
					return nil, qerr
				}
			}
			return exec.NewSliceIterator(rows), nil
		}
	}
	src, ok := rt.sources[strings.ToLower(source)]
	if !ok {
		return nil, fmt.Errorf("core: unknown source %q", source)
	}
	br := rt.e.breakerFor(source)
	if br != nil && !br.Allow() {
		return nil, &BreakerOpenError{Source: source}
	}
	var linkBefore netsim.Metrics
	if cards != nil {
		linkBefore = src.Link().Metrics()
	}
	start := cards.Elapsed()
	rows, err := federation.ExecuteWithContext(ctx, src, subtree)
	if cards != nil {
		delta := src.Link().Metrics()
		delta.Sub(linkBefore)
		cards.RecordFetch(exec.FetchCard{Source: source, Subtree: subtree,
			Rows: int64(len(rows)), Bytes: delta.WireBytes, SimTime: delta.SimTime,
			Start: start, Duration: cards.Elapsed() - start, Err: err})
	}
	if br != nil && !isContextErr(err) {
		br.Record(err == nil)
	}
	if err != nil {
		return nil, fmt.Errorf("core: source %s: %w", source, err)
	}
	// Scan-byte accounting happens after the breaker has been fed: the
	// fetch itself succeeded, so a tripped scan budget is a tenant quota
	// rejection, not a source fault.
	if len(rows) > 0 {
		bytes := int64(datum.RowWireSize(rows[0])) * int64(len(rows))
		if qerr := rt.slot.ChargeScan(bytes); qerr != nil {
			return nil, qerr
		}
	}
	return exec.NewSliceIterator(rows), nil
}

func isContextErr(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// execOptions assembles the exec.Options of one query: retry policy with
// backoff charged to the failing source's virtual clock, fault ledger
// hooks, and — when the query tolerates it — the degradation callback.
func (e *Engine) execOptions(qo QueryOptions, rt *queryRuntime) exec.Options {
	faults := &rt.faults
	rt.userOnSourceError = qo.OnSourceError
	opts := exec.Options{
		Parallel:        qo.Parallel || qo.Parallelism > 1,
		Parallelism:     qo.Parallelism,
		BatchSize:       qo.BatchSize,
		SemiJoin:        !qo.NoSemiJoin && !qo.Optimizer.NoRemotePushdown,
		MaxSemiJoinKeys: qo.MaxSemiJoinKeys,
		Retry:           qo.Retry,
		Hooks:           rt,
	}
	if rt.slot != nil {
		opts.Memory = rt.slot
	}
	if qo.AllowPartial {
		opts.OnRemoteFail = func(source string, subtree plan.Node, err error) (exec.Iterator, bool) {
			if IsOverload(err) {
				// A quota rejection must fail the query, not silently
				// degrade it to a partial answer.
				return nil, false
			}
			if isContextErr(err) && rt.ctx.Err() != nil {
				// The whole query's deadline passed; degrading one
				// fetch will not save it.
				return nil, false
			}
			if rows, ok := e.replicaRows(rt.ctx, source, subtree, qo.ReplicaMaxAge); ok {
				faults.recordReplica(source)
				return exec.NewSliceIterator(rows), true
			}
			faults.recordSkip(source)
			return exec.NewSliceIterator(nil), true
		}
	}
	return opts
}

// replicaRuntime binds a pushed-down subtree's scans to the replica
// provider's copies of the failed source's tables.
type replicaRuntime struct {
	rp     ReplicaProvider
	source string
	maxAge time.Duration
}

func (rt *replicaRuntime) ScanTable(_ context.Context, source, table string) (exec.Iterator, error) {
	if source != rt.source {
		return nil, fmt.Errorf("core: replica fallback for %s scans foreign table %s.%s", rt.source, source, table)
	}
	rows, age, ok := rt.rp.ReplicaTable(source, table)
	if !ok {
		return nil, fmt.Errorf("core: no replica of %s.%s", source, table)
	}
	if rt.maxAge > 0 && age > rt.maxAge {
		return nil, fmt.Errorf("core: replica of %s.%s is %s old (cap %s)", source, table, age, rt.maxAge)
	}
	return exec.NewSliceIterator(rows), nil
}

func (rt *replicaRuntime) RunRemote(context.Context, string, plan.Node) (exec.Iterator, error) {
	return nil, fmt.Errorf("core: nested Remote in replica fallback")
}

// replicaRows executes the failed source's pushed-down subtree against
// the replica provider's table copies, when all of them are present and
// fresh enough. It runs under the query's context: a cancelled query
// does not fall back to replicas.
func (e *Engine) replicaRows(ctx context.Context, source string, subtree plan.Node, maxAge time.Duration) ([]datum.Row, bool) {
	rp := e.replicaProvider()
	if rp == nil {
		return nil, false
	}
	rt := &replicaRuntime{rp: rp, source: source, maxAge: maxAge}
	it, err := exec.BuildBatch(ctx, subtree, rt, exec.Options{})
	if err != nil {
		return nil, false
	}
	rows, err := exec.DrainBatches(it)
	if err != nil {
		return nil, false
	}
	return rows, true
}
