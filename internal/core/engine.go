// Package core implements the EII mediator — the public API of the
// library. An Engine holds the registered sources and the mediated schema
// (virtual views); Query plans a SQL statement over the mediated schema,
// reformulates it into source queries (view unfolding), optimizes it with
// capability-aware pushdown, and executes it federated, returning rows plus
// the network accounting that the paper's performance arguments turn on.
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"errors"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/federation"
	"repro/internal/feedback"
	"repro/internal/netsim"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// Engine is the mediator. It is safe for concurrent use.
type Engine struct {
	mu         sync.RWMutex
	catalog    *catalog.Global
	sources    map[string]federation.Source
	breakers   map[string]*breaker
	breakerCfg BreakerConfig
	replica    ReplicaProvider
	router     FetchRouter
	plans      *plancache.Cache
	feedback   *feedback.Store
	clock      netsim.Clock
	inflight   inflightRegistry
	admission  *admissionController
	governor   *exec.Governor

	// Topology caches, rebuilt lazily and dropped (set nil) on any
	// source or breaker mutation; guarded by mu. srcSnap is the
	// immutable source map handed to query executions; maskBreakers is
	// the name-sorted breaker list the availability mask reads. Both are
	// consulted on every query, so they must not be rebuilt per query.
	srcSnap      map[string]federation.Source
	maskBreakers []*breaker
}

// invalidateTopo drops the cached topology snapshots. Callers must hold
// e.mu for writing.
func (e *Engine) invalidateTopo() {
	e.srcSnap = nil
	e.maskBreakers = nil
}

// DefaultPlanCacheSize is the number of compiled plans the engine retains.
const DefaultPlanCacheSize = 1024

// New creates an empty mediator.
func New() *Engine {
	return &Engine{
		catalog:  catalog.NewGlobal(),
		sources:  make(map[string]federation.Source),
		breakers: make(map[string]*breaker),
		plans:    plancache.New(DefaultPlanCacheSize),
		feedback: feedback.NewStore(netsim.Wall),
		clock:    netsim.Wall,
	}
}

// SetClock replaces the clock the engine's timers and circuit breakers
// run on (default: the wall clock). Installing a netsim.VirtualClock
// makes breaker open-timeouts and reported plan/exec timings
// deterministic. Existing breaker state is reset so every breaker shares
// the new clock.
func (e *Engine) SetClock(c netsim.Clock) {
	if c == nil {
		c = netsim.Wall
	}
	e.mu.Lock()
	e.clock = c
	e.breakers = make(map[string]*breaker)
	// Feedback confidence decays in this clock's time, so estimates
	// recorded against the old clock would age nonsensically: start fresh,
	// mirroring the breaker reset above.
	e.feedback = feedback.NewStore(c)
	e.invalidateTopo()
	e.mu.Unlock()
}

// Clock returns the clock the engine currently runs on.
func (e *Engine) Clock() netsim.Clock {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.clock
}

func normalizeName(s string) string { return strings.ToLower(s) }

// ReplicaProvider serves locally-replicated copies of source tables (the
// warehouse implements this). During degraded execution the engine
// prefers answering from a fresh-enough replica over dropping the failed
// source from the result.
type ReplicaProvider interface {
	// ReplicaTable returns the replicated rows of source.table, the age
	// of the replica (time since its last refresh), and whether the
	// provider has that table at all.
	ReplicaTable(source, table string) (rows []datum.Row, age time.Duration, ok bool)
}

// SetReplicaProvider installs (or, with nil, removes) the replica used
// for degraded reads.
func (e *Engine) SetReplicaProvider(rp ReplicaProvider) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.replica = rp
}

func (e *Engine) replicaProvider() ReplicaProvider {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.replica
}

// Register adds a data source to the federation.
func (e *Engine) Register(src federation.Source) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	key := strings.ToLower(src.Name())
	if _, dup := e.sources[key]; dup {
		return fmt.Errorf("core: source %s already registered", src.Name())
	}
	if err := e.catalog.AddSource(src.Catalog()); err != nil {
		return err
	}
	e.sources[key] = src
	e.invalidateTopo()
	e.invalidateStalePlans()
	return nil
}

// Deregister removes a source; existing views referencing it will fail to
// plan until re-pointed.
func (e *Engine) Deregister(name string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.sources, strings.ToLower(name))
	delete(e.breakers, strings.ToLower(name))
	e.invalidateTopo()
	e.catalog.RemoveSource(name)
	e.invalidateStalePlans()
}

// Source returns a registered source.
func (e *Engine) Source(name string) (federation.Source, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	s, ok := e.sources[strings.ToLower(name)]
	return s, ok
}

// sourcesSnapshot returns an immutable copy of the source map so an
// execution resolves sources without further locking and without seeing
// mid-query registration churn. The copy is cached across queries —
// registration is rare, queries are not — and rebuilt only after a
// source mutation invalidates it. Callers must never mutate the result.
func (e *Engine) sourcesSnapshot() map[string]federation.Source {
	e.mu.RLock()
	snap := e.srcSnap
	e.mu.RUnlock()
	if snap != nil {
		return snap
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.srcSnap == nil {
		m := make(map[string]federation.Source, len(e.sources))
		for k, v := range e.sources {
			m[k] = v
		}
		e.srcSnap = m
	}
	return e.srcSnap
}

// Sources lists registered source names, sorted.
func (e *Engine) Sources() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	names := make([]string, 0, len(e.sources))
	for _, s := range e.sources {
		names = append(names, s.Name())
	}
	sort.Strings(names)
	return names
}

// Catalog exposes the global catalog (views + source schemas).
func (e *Engine) Catalog() *catalog.Global { return e.catalog }

// DefineView registers a mediated view. Views are the GAV mappings of the
// mediated schema: queries written against them are unfolded onto sources.
func (e *Engine) DefineView(name, sql string) error {
	if err := e.catalog.DefineView(name, sql); err != nil {
		return err
	}
	e.invalidateStalePlans()
	return nil
}

// DropView removes a view.
func (e *Engine) DropView(name string) {
	e.catalog.DropView(name)
	e.invalidateStalePlans()
}

// QueryOptions tunes planning and execution of one query.
type QueryOptions struct {
	// Optimizer toggles individual optimizations (ablation/baselines).
	Optimizer opt.Options
	// Parallel fetches remote inputs concurrently.
	Parallel bool
	// Parallelism caps the intra-query (morsel-driven) worker pool per
	// operator: 0 uses GOMAXPROCS, 1 forces sequential execution. Values
	// above 1 also imply Parallel (remote prefetch), since a query asking
	// for intra-operator parallelism wants inter-source overlap too.
	Parallelism int
	// BatchSize overrides the executor's rows-per-batch (0 = default
	// 1024; 1 degenerates to row-at-a-time execution). Mainly for the
	// vectorization experiments.
	BatchSize int
	// NoSemiJoin disables the executor's semi-join reduction (shipping
	// probe-side join keys into filter-capable sources).
	NoSemiJoin bool
	// MaxSemiJoinKeys caps how many distinct probe keys ship as an exact
	// IN-list before the executor switches to a bloom filter (0 = the
	// default, plan.DefaultSemiJoinKeyCap). Experiments raise it to
	// force key-list shipping at scales where bloom would normally win.
	MaxSemiJoinKeys int
	// Deadline bounds query execution (wall clock): remote fetches are
	// abandoned once it passes. Zero means no deadline.
	Deadline time.Duration
	// Retry re-runs transiently failed remote fetches with capped
	// exponential backoff charged in virtual time. Zero: one attempt.
	Retry exec.RetryPolicy
	// AllowPartial degrades instead of failing when a source stays down
	// after retries: the failed source's rows are served from a replica
	// when one is fresh enough, otherwise dropped, and the Result is
	// marked Partial with the skipped sources listed.
	AllowPartial bool
	// ReplicaMaxAge caps how stale a replica may be to substitute for a
	// failed source. Zero accepts any age.
	ReplicaMaxAge time.Duration
	// OnSourceError, when non-nil, observes every failed fetch attempt
	// (including ones that are subsequently retried).
	OnSourceError func(source string, attempt int, err error)
	// NoPlanCache bypasses the plan cache: the statement is compiled
	// fresh and the compiled plan is not stored. Baselines and
	// plan-debugging use this.
	NoPlanCache bool
	// Trace records the query-scoped span tree — plan, per-operator exec
	// and per-source-fetch spans — into Result.Trace.
	Trace bool
	// Tenant names the admission-control bucket this query is charged
	// against. Empty (or an unknown name) runs under the "default" tenant.
	// Ignored while admission control is disabled.
	Tenant string
	// Adaptive enables adaptive query processing: planning blends the
	// feedback store's observed cardinalities into its estimates, executed
	// fetches feed the store back, and a mid-query cardinality tripwire may
	// re-optimize the plan at a batch boundary (Result.ReplanCount). The
	// engine entry points (Query, QueryCtx, Prepare) set it; a zero-value
	// QueryOptions leaves it off, which reproduces fully static planning
	// and execution bit for bit.
	Adaptive bool
	// Explain records estimated-vs-observed rows per operator during
	// execution and renders them into Result.ExplainOutput afterwards —
	// post-execution estimate-quality inspection without full tracing.
	Explain bool
	// fragment marks a peer-shipped plan fragment (set by RunFragment,
	// not settable by clients): admission was already charged at the
	// coordinating node, so the peer executes it without re-entering its
	// own admission queue — otherwise every cross-shard query would hold
	// a coordinator slot while waiting for a second slot at the owner,
	// capping cluster capacity at one node's quota.
	fragment bool
}

// Result is a completed query.
type Result struct {
	Columns []string
	Kinds   []datum.Kind
	Rows    []datum.Row
	// Plan is the optimized plan that ran.
	Plan plan.Node
	// Network is the transfer accounting accumulated across all source
	// links during this query (meaningful when queries run serially).
	Network netsim.Metrics
	// Estimate is the optimizer's cost prediction for the plan.
	Estimate opt.PlanCost
	// Elapsed is wall-clock execution time (excludes planning).
	Elapsed time.Duration
	// PlanTime is how long planning took: parse, normalize, cache
	// lookup, compile on a miss, and parameter binding.
	PlanTime time.Duration
	// CacheHit is true when the plan came from the plan cache rather
	// than a fresh compile.
	CacheHit bool
	// CatalogVersion is the catalog snapshot version the query planned
	// against.
	CatalogVersion uint64
	// Partial is true when AllowPartial dropped one or more failed
	// sources from the answer.
	Partial bool
	// SkippedSources names the sources whose rows are missing from a
	// partial answer.
	SkippedSources []string
	// ReplicaSources names the failed sources whose rows were served
	// from the replica instead of live.
	ReplicaSources []string
	// SourceErrors counts failed fetch attempts per source.
	SourceErrors map[string]int
	// Retries counts retry attempts per source.
	Retries map[string]int
	// ExecParallelism is the widest worker pool any operator actually ran
	// with (1 when execution was fully sequential).
	ExecParallelism int
	// BatchesProcessed counts the batches produced across all operators.
	BatchesProcessed int64
	// QueryID is the engine-unique ID the execution registered under (the
	// /queries endpoint lists running queries by this ID).
	QueryID uint64
	// Trace is the query's span tree, rendered from its cardinality ledger
	// when the query asked for a trace: plan, per-operator exec and
	// per-source-fetch spans.
	Trace *exec.Span
	// Tenant is the admission bucket the query ran under (empty while
	// admission control is disabled).
	Tenant string
	// QueueTime is how long the query waited in the admission queue before
	// it started executing (zero when admitted immediately or admission is
	// disabled).
	QueueTime time.Duration
	// ArenaBytes is the payload footprint of the query's front-end arena —
	// tokens, AST nodes, normalized parameter subtrees and bound predicates
	// — recycled when the query finished. Zero for plans executed directly
	// via ExecuteCtx, which never touch the arena.
	ArenaBytes int64
	// ReplanCount is how many times the query re-optimized mid-execution
	// after a cardinality tripwire (0 on the static path and for queries
	// whose estimates held).
	ReplanCount int
	// EstimateErrors counts operators of the final execution whose actual
	// cardinality missed the estimate by 10x or more in either direction.
	// Only populated for Adaptive or Explain queries, whose ledger carries
	// estimates.
	EstimateErrors int
	// ExplainOutput is the executed plan annotated with estimated-vs-
	// observed rows per operator, when QueryOptions.Explain was set.
	ExplainOutput string
}

// Query plans and executes a SQL statement with default options: parallel
// remote fetch and semi-join reduction enabled.
func (e *Engine) Query(sql string) (*Result, error) {
	//lint:ignore ctxpropagate engine entry point: context-free compatibility API
	return e.QueryCtx(context.Background(), sql)
}

// QueryCtx is Query with a caller-supplied context: cancellation and the
// context's deadline propagate to every batch pull, exchange worker,
// remote fetch, retry backoff and simulated transfer of the query.
func (e *Engine) QueryCtx(ctx context.Context, sql string) (*Result, error) {
	return e.QueryOptsCtx(ctx, sql, QueryOptions{Parallel: true, Adaptive: true})
}

// QueryOpts plans and executes a SQL statement (see QueryOptsCtx).
func (e *Engine) QueryOpts(sql string, qo QueryOptions) (*Result, error) {
	//lint:ignore ctxpropagate engine entry point: context-free compatibility API
	return e.QueryOptsCtx(context.Background(), sql, qo)
}

// QueryOptsCtx plans and executes a SQL statement under a caller context.
//
// Planning goes through the plan cache: the statement is normalized by
// extracting predicate constants into parameters, the cache is consulted
// under the current catalog version, and on a hit the constants are bound
// back into the cached template — repeated queries differing only in
// constants compile once. Statements the cache cannot serve safely
// (explicit placeholders, EXISTS / IN-subqueries) and queries with
// NoPlanCache set compile fresh.
//
// On execution failure the returned *Result may be non-nil alongside the
// error: it carries no rows but preserves the fault ledger (SourceErrors,
// Partial, SkippedSources) and the trace, so callers can report what the
// query had done when it failed or was cancelled.
func (e *Engine) QueryOptsCtx(ctx context.Context, sql string, qo QueryOptions) (*Result, error) {
	clock := e.Clock()
	planStart := clock.Now()

	// Per-query arena: tokens, AST nodes, normalized parameter subtrees and
	// bound predicates all come from it, so a warm cached-hit execution is
	// near-zero-alloc in the front end. The single deferred PutArena covers
	// every exit path — parse/compile error, admission shed, cancellation,
	// success — and is safe because executeCtx joins all query goroutines
	// before returning, so nothing touches arena memory after release.
	ar := sqlparse.GetArena()
	defer sqlparse.PutArena(ar)

	sel, err := sqlparse.ParseArena(ar, sql)
	if err != nil {
		return nil, err
	}
	snap := e.catalog.Snapshot()

	var p plan.Node
	var tmpl plan.Node
	var est opt.PlanCost
	var hit bool
	cached := false
	if !qo.NoPlanCache {
		// Normalization mutates the statement (literals become $n), so
		// it only runs when the cache path will bind them back.
		if params, cacheable := sqlparse.ExtractParamsIn(ar, sel); cacheable {
			cp, h, err := e.cachedTemplate(ctx, ar.RenderSQL(sel), qo, snap)
			if err != nil {
				return nil, err
			}
			hit = h
			tmpl = cp.tmpl
			est = cp.cost
			p, err = plan.BindParamsIn(ar, cp.tmpl, params)
			if err != nil {
				return nil, err
			}
			cached = true
		}
	}
	if !cached {
		// Fresh compiles retain the AST beyond this query — the optimized
		// plan escapes into Result.Plan and the plan cache — so re-parse
		// onto the heap instead of handing compile arena-backed nodes.
		heapSel, err := sqlparse.Parse(sql)
		if err != nil {
			return nil, err
		}
		p, err = e.compile(ctx, heapSel, qo, snap)
		if err != nil {
			return nil, err
		}
		tmpl = p
		est = opt.Cost(p, e.planEnv(qo))
	}
	planTime := clock.Since(planStart)

	res, err := e.executeCtx(ctx, p, qo, sql, planTime, est)
	if res != nil {
		res.PlanTime = planTime
		res.CacheHit = hit
		res.CatalogVersion = snap.Version()
		// On the cached path the bound plan references arena memory about
		// to be recycled; report the retained heap template instead so
		// Result.Plan stays valid for the caller.
		res.Plan = tmpl
		res.ArenaBytes += ar.Bytes()
	}
	return res, err
}

// Plan parses, reformulates and optimizes a statement without running it.
// It always compiles fresh (no cache) against one catalog snapshot.
func (e *Engine) Plan(sql string, qo QueryOptions) (plan.Node, error) {
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	//lint:ignore ctxpropagate engine entry point: planning-only API (EXISTS pre-evaluation may run subqueries)
	return e.compile(context.Background(), sel, qo, e.catalog.Snapshot())
}

// Execute runs an optimized plan.
func (e *Engine) Execute(p plan.Node, qo QueryOptions) (*Result, error) {
	//lint:ignore ctxpropagate engine entry point: context-free compatibility API
	return e.ExecuteCtx(context.Background(), p, qo)
}

// ExecuteCtx runs an optimized plan under a caller context. Like
// QueryOptsCtx, a non-nil *Result may accompany an execution error.
func (e *Engine) ExecuteCtx(ctx context.Context, p plan.Node, qo QueryOptions) (*Result, error) {
	return e.executeCtx(ctx, p, qo, "", 0, opt.Cost(p, e.planEnv(qo)))
}

// executeCtx is the single execution path: it derives the query's context
// (deadline, cancel handle), registers the query in the in-flight
// registry, and runs the plan with every leaf observing that context.
// planTime positions trace spans relative to query start (planning
// happened immediately before this call). est is the optimizer's cost
// prediction, computed by the caller (once per cached template, not per
// execution).
func (e *Engine) executeCtx(ctx context.Context, p plan.Node, qo QueryOptions, sql string, planTime time.Duration, est opt.PlanCost) (*Result, error) {
	before := e.linkTotals()
	clock := e.Clock()
	start := clock.Now()
	if qo.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, qo.Deadline)
		defer cancel()
	}
	// Query-scoped exec scratch: batch containers and projected datums,
	// including those of remote subtrees executed inside source wrappers
	// (which pick it up from the context), come from this pooled
	// allocator and are recycled on return. Release is safe on every exit
	// path because all query goroutines join before executeCtx returns;
	// Result.Rows is block-copied above, so nothing scratch-backed
	// escapes.
	scratch := exec.GetScratch()
	defer exec.PutScratch(scratch)
	ctx = exec.WithScratch(ctx, scratch)

	ctx, q := e.beginQuery(ctx, sql)
	defer e.endQuery(q)

	// Admission: acquire the tenant's slot (possibly waiting in its FIFO
	// queue) before any execution work. CancelQuery on a queued query
	// cancels the derived ctx, which removes the waiter from the queue —
	// no quota is leaked. Release is nil-safe, so the deferred call covers
	// the admission-disabled path too. Peer-shipped fragments skip the
	// queue entirely: they were admitted at their coordinating node, and
	// load control for a cluster happens at the entry nodes.
	var slot *AdmissionSlot
	if !qo.fragment {
		var admitErr error
		slot, admitErr = e.admissionController().Acquire(ctx, qo.Tenant, clock)
		if admitErr != nil {
			slot.Release()
			return nil, admitErr
		}
	}
	defer slot.Release()

	// One immutable view of the federation for the whole execution: a
	// source registered or dropped mid-query cannot change which sources
	// this query talks to.
	rt := &queryRuntime{e: e, ctx: ctx, sources: e.sourcesSnapshot(), router: e.fetchRouter(), slot: slot}
	rt.opts = e.execOptions(qo, rt)
	rt.opts.Scratch = scratch
	if gov := e.workerGovernor(); gov != nil && slot != nil {
		// Under contention every running query's exchange worker share
		// shrinks in proportion to its tenant's priority weight —
		// backpressure degrades parallelism before it degrades admission.
		ticket := gov.Register(slot.Priority())
		defer ticket.Close()
		rt.opts.Governor = ticket
	}
	stats := &rt.stats // rides the runtime's allocation
	rt.opts.Stats = stats
	// The ledger is the query's one execution-statistics record: adaptive
	// feedback, EXPLAIN and the trace are all read from it. Adaptive and
	// explain queries carry the optimizer's estimates into it and feed
	// feedback from it; traced queries give it the engine clock so each
	// operator pull and fetch attempt is placed in time. Reset between
	// re-plan attempts keeps each attempt's operator counts apart.
	var led *exec.CardLedger
	var se *swapEstimator
	if qo.Adaptive || qo.Explain || qo.Trace {
		led = exec.GetCardLedger()
		defer exec.PutCardLedger(led)
		rt.opts.Cards = led
	}
	if qo.Trace {
		led.SetClock(clock)
	}
	if qo.Adaptive || qo.Explain {
		se = newSwapEstimator(e.planEnv(qo))
		rt.opts.Estimate = se.rows
	}
	if qo.Adaptive {
		rt.opts.Replan = exec.ReplanPolicy{Factor: ReplanFactor, MinRows: ReplanMinRows}
	}

	var rows []datum.Row
	var err error
	replans, estErrors := 0, 0
	for {
		var it exec.BatchIterator
		it, err = exec.BuildBatch(ctx, p, rt, rt.opts)
		if err == nil {
			rows, err = exec.DrainBatchesScratch(it, scratch)
		}
		if err == nil {
			// Result rows may alias shared storage snapshots (sources hand
			// the executor header-only views); block-copy so callers own —
			// and may freely mutate — everything reachable from Result.Rows.
			rows = datum.CloneRowsBlock(rows)
			break
		}
		var re *exec.ReplanError
		if !qo.Adaptive || !errors.As(err, &re) {
			break
		}
		// Mid-query re-plan: the drain aborted at a batch boundary before
		// any row reached the caller, so re-executing from scratch cannot
		// change the answer — only the plan that produces it. Join the
		// aborted attempt's stragglers (abandoned prefetches run their
		// fetch to completion and would otherwise record into the next
		// attempt's ledger), feed its observed cardinalities into the
		// feedback store, re-optimize against the now-corrected estimates,
		// and start over. The extra network spend stays visible: link
		// accounting spans all attempts.
		scratch.WaitBorrowers()
		rt.absorbLedger(se.rows)
		led.Reset()
		if replans >= MaxReplans {
			// Budget exhausted: a workload the estimator cannot model even
			// after feedback (a tripwire that re-fires on the re-optimized
			// plan). Disarm it and run the current plan to completion — a
			// plan costed from fiction still computes the right answer.
			rt.opts.Replan = exec.ReplanPolicy{}
			continue
		}
		replans++
		env := e.planEnv(qo)
		p = opt.Reoptimize(p, env, optimizerOptions(qo))
		se.swap(env)
	}
	if led != nil {
		// Feedback and the renderers read operator records written
		// lock-free by prefetch goroutines: join them first, on every exit
		// path.
		scratch.WaitBorrowers()
		if se != nil && err == nil {
			estErrors = rt.absorbLedger(se.rows)
		}
	}
	after := e.linkTotals()
	after.Sub(before)

	cols := p.Columns()
	res := &Result{
		Columns:  make([]string, len(cols)),
		Kinds:    make([]datum.Kind, len(cols)),
		Rows:     rows,
		Plan:     p,
		Network:  after,
		Estimate: est,
		Elapsed:  clock.Since(start),

		ExecParallelism:  stats.MaxParallelism(),
		BatchesProcessed: stats.Batches(),
		QueryID:          q.ID(),
		Tenant:           slot.Tenant(),
		QueueTime:        slot.QueueTime(),
		ArenaBytes:       scratch.Bytes(),
		ReplanCount:      replans,
		EstimateErrors:   estErrors,
	}
	if qo.Explain && err == nil {
		res.ExplainOutput = renderExplain(p, led, replans)
	}
	for i, c := range cols {
		res.Columns[i] = c.Name
		res.Kinds[i] = c.Kind
	}
	rt.faults.fill(res)
	if qo.Trace {
		res.Trace = led.Spans(p, planTime)
	}
	if err != nil {
		res.Rows = nil
		return res, err
	}
	return res, nil
}

// Explain returns the optimized plan rendering plus, for every Remote
// subtree, the SQL the wrapper would receive.
func (e *Engine) Explain(sql string, qo QueryOptions) (string, error) {
	p, err := e.Plan(sql, qo)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(plan.Explain(p))
	plan.Walk(p, func(n plan.Node) {
		r, ok := n.(*plan.Remote)
		if !ok {
			return
		}
		if pushSQL, err := federation.Deparse(r.Child); err == nil {
			fmt.Fprintf(&b, "-- pushdown @%s: %s\n", r.Source, pushSQL)
		}
	})
	cost := opt.Cost(p, e.env())
	fmt.Fprintf(&b, "-- estimate: rows=%d shipped=%dB network=%s cpuRows=%d\n",
		cost.Rows, cost.Shipped, cost.Network, cost.CPURows)
	return b.String(), nil
}

// ExplainAnalyze runs the statement on the engine's one execution path
// with Explain set and returns the executed plan annotated with estimated
// vs observed rows per operator, plus the query's network accounting
// against the optimizer's prediction — the tool §8 asks for when it calls
// for "query execution-time prediction" work: predicted vs actual, side
// by side.
func (e *Engine) ExplainAnalyze(ctx context.Context, sql string, qo QueryOptions) (string, error) {
	qo.Explain = true
	res, err := e.QueryOptsCtx(ctx, sql, qo)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(res.ExplainOutput)
	fmt.Fprintf(&b, "-- actual: rows=%d shipped=%dB trips=%d simTime=%s\n",
		len(res.Rows), res.Network.BytesShipped, res.Network.RoundTrips, res.Network.SimTime)
	fmt.Fprintf(&b, "-- estimated: rows=%d shipped=%dB network=%s\n",
		res.Estimate.Rows, res.Estimate.Shipped, res.Estimate.Network)
	return b.String(), nil
}

// rewriteExists pre-evaluates uncorrelated EXISTS subqueries into boolean
// literals; the planner proper does not support subquery expressions. The
// subqueries run under the outer query's context, so cancelling the outer
// query aborts its subquery evaluation too.
func (e *Engine) rewriteExists(ctx context.Context, sel *sqlparse.Select, qo QueryOptions, depth int) error {
	if depth > 8 {
		return fmt.Errorf("core: EXISTS nesting too deep")
	}
	// maxInSubqueryValues caps how many literals an IN-subquery expands
	// into; beyond it the query is rejected rather than silently slow.
	const maxInSubqueryValues = 100000
	var rewrite func(sqlparse.Expr) (sqlparse.Expr, error)
	rewrite = func(x sqlparse.Expr) (sqlparse.Expr, error) {
		//lint:ignore exhaustive rewrite callback: only subquery forms are transformed, the identity default is total by design
		switch ex := x.(type) {
		case *sqlparse.ExistsExpr:
			probe := *ex.Query
			probe.Limit = &sqlparse.Literal{Value: datum.NewInt(1)}
			sub, err := e.QueryOptsCtx(ctx, probe.SQL(), qo)
			if err != nil {
				return nil, fmt.Errorf("core: evaluating EXISTS subquery: %w", err)
			}
			val := len(sub.Rows) > 0
			if ex.Not {
				val = !val
			}
			return &sqlparse.Literal{Value: datum.NewBool(val)}, nil
		case *sqlparse.InSubquery:
			sub, err := e.QueryOptsCtx(ctx, ex.Query.SQL(), qo)
			if err != nil {
				return nil, fmt.Errorf("core: evaluating IN subquery: %w", err)
			}
			if len(sub.Columns) != 1 {
				return nil, fmt.Errorf("core: IN subquery must return one column, got %d", len(sub.Columns))
			}
			if len(sub.Rows) > maxInSubqueryValues {
				return nil, fmt.Errorf("core: IN subquery returned %d rows (cap %d)", len(sub.Rows), maxInSubqueryValues)
			}
			list := make([]sqlparse.Expr, len(sub.Rows))
			for i, r := range sub.Rows {
				list[i] = &sqlparse.Literal{Value: r[0]}
			}
			if len(list) == 0 {
				// Empty subquery: IN () is FALSE, NOT IN () is TRUE.
				return &sqlparse.Literal{Value: datum.NewBool(ex.Not)}, nil
			}
			return &sqlparse.InExpr{Child: ex.Child, List: list, Not: ex.Not}, nil
		default:
			return x, nil
		}
	}
	var err error
	sel.Where, err = sqlparse.Rewrite(sel.Where, rewrite)
	if err != nil {
		return err
	}
	sel.Having, err = sqlparse.Rewrite(sel.Having, rewrite)
	if err != nil {
		return err
	}
	for _, tr := range sel.From {
		if sq, ok := tr.(*sqlparse.SubqueryTable); ok {
			if err := e.rewriteExists(ctx, sq.Query, qo, depth+1); err != nil {
				return err
			}
		}
	}
	if sel.UnionAll != nil {
		return e.rewriteExists(ctx, sel.UnionAll, qo, depth+1)
	}
	return nil
}

// --- exec.Runtime and opt.Env plumbing ---

type engineEnv struct{ e *Engine }

func (env engineEnv) Caps(source string) federation.Caps {
	if src, ok := env.e.Source(source); ok {
		return src.Capabilities()
	}
	return federation.ScanOnly()
}

func (env engineEnv) Link(source string) *netsim.Link {
	if src, ok := env.e.Source(source); ok {
		return src.Link()
	}
	return nil
}

// Available implements opt.AvailabilityEnv: a source whose circuit
// breaker is open is treated as unavailable by the optimizer.
func (env engineEnv) Available(source string) bool {
	return env.e.SourceAvailable(source)
}

func (env engineEnv) Stats(source, table string) *schema.TableStats {
	if src, ok := env.e.Source(source); ok {
		if st, ok := src.Catalog().Stats(table); ok {
			return st
		}
	}
	return nil
}

func (e *Engine) env() opt.Env { return engineEnv{e} }

// linkTotals sums metrics across all source links.
func (e *Engine) linkTotals() netsim.Metrics {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var total netsim.Metrics
	for _, s := range e.sources {
		total.Add(s.Link().Metrics())
	}
	return total
}

// Subscribe registers a change callback on a source table — the mediator
// face of §7's generated Notify methods. It errors when the source does not
// support notifications.
func (e *Engine) Subscribe(source, table string, fn func(storage.Change)) (cancel func(), err error) {
	src, ok := e.Source(source)
	if !ok {
		return nil, fmt.Errorf("core: unknown source %q", source)
	}
	n, ok := src.(federation.Notifying)
	if !ok {
		return nil, fmt.Errorf("core: source %s does not support change notification", source)
	}
	return n.SubscribeTable(table, fn)
}

// DependencySubscribe plans the given SQL and subscribes fn to every base
// table the plan reads; fn fires whenever any of them changes. The returned
// cancel detaches all subscriptions. This turns a view definition into its
// own change feed — §7: "It should be possible to generate Notify methods
// automatically."
func (e *Engine) DependencySubscribe(sql string, fn func(storage.Change)) (cancel func(), err error) {
	p, err := e.Plan(sql, QueryOptions{})
	if err != nil {
		return nil, err
	}
	type dep struct{ source, table string }
	seen := map[dep]bool{}
	var cancels []func()
	var subErr error
	plan.Walk(p, func(n plan.Node) {
		if subErr != nil {
			return
		}
		s, ok := n.(*plan.Scan)
		if !ok || s.Source == "" {
			return
		}
		d := dep{s.Source, s.Table}
		if seen[d] {
			return
		}
		seen[d] = true
		c, err := e.Subscribe(s.Source, s.Table, fn)
		if err != nil {
			// Sources without notification support are skipped;
			// the caller still gets feeds from the ones that have
			// it.
			if strings.Contains(err.Error(), "does not support") {
				return
			}
			subErr = err
			return
		}
		cancels = append(cancels, c)
	})
	if subErr != nil {
		for _, c := range cancels {
			c()
		}
		return nil, subErr
	}
	return func() {
		for _, c := range cancels {
			c()
		}
	}, nil
}

// ResetMetrics zeroes the accounting on every source link.
func (e *Engine) ResetMetrics() {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, s := range e.sources {
		s.Link().Reset()
	}
}

// NetworkTotals returns the summed link metrics.
func (e *Engine) NetworkTotals() netsim.Metrics { return e.linkTotals() }
