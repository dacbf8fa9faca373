package core

// Adaptive query processing: the engine-side wiring of the runtime-
// cardinality feedback loop. Execution keeps an always-on cardinality
// ledger (exec.CardLedger); completed and aborted attempts feed the
// feedback store; planning consults the store through adaptiveEnv; and
// when an operator blows through its estimate by ReplanFactor mid-query,
// execution pauses at the batch boundary, the unexecuted remainder is
// re-optimized against the updated estimates, and the query re-runs —
// results stay byte-identical because no rows have been delivered to the
// caller before the drain completes.

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/exec"
	"repro/internal/feedback"
	"repro/internal/opt"
	"repro/internal/plan"
)

const (
	// ReplanFactor is the underestimate multiple that triggers mid-query
	// re-optimization: an operator that has produced 10x its estimated
	// rows is running on a plan costed from fiction.
	ReplanFactor = 10
	// ReplanMinRows is the absolute floor under which no re-plan fires:
	// being 10x off about a few hundred rows costs less than re-planning.
	ReplanMinRows = 512
	// MaxReplans bounds how many times one query may re-plan, so a
	// workload the estimator simply cannot model terminates.
	MaxReplans = 2
	// estimateErrorFactor is the misestimate ratio past which an operator
	// counts into Result.EstimateErrors.
	estimateErrorFactor = 10
)

// adaptiveEnv is the planning environment with runtime feedback layered
// over the static engineEnv: observed cardinalities blend into estimates
// (opt.FeedbackEnv) and observed per-source latency plus breaker
// half-open state bias transfer costs (opt.LatencyEnv). The catalog
// snapshot stays untouched — feedback lives beside it, read-only.
type adaptiveEnv struct {
	engineEnv
	fb *feedback.Store
}

func (env adaptiveEnv) Observed(k feedback.Key) (feedback.Estimate, bool) {
	return env.fb.Lookup(k)
}

func (env adaptiveEnv) NetworkFactor(source string) float64 {
	f := env.fb.NetworkFactor(source)
	// A half-open breaker means the source just spent an open-timeout
	// failing: it is reachable again but unproven. Double its modelled
	// transfer cost so the optimizer prefers alternatives without
	// refusing the source outright (E12's mask stays binary; this is the
	// graded middle).
	if br := env.e.breakerFor(source); br != nil && br.State() == BreakerHalfOpen {
		f *= 2
		if f > 4 {
			f = 4
		}
	}
	return f
}

// planEnv returns the optimizer environment for a query: feedback-blended
// when the query runs adaptive, the untouched static env otherwise —
// Adaptive=false must reproduce today's plans exactly.
func (e *Engine) planEnv(qo QueryOptions) opt.Env {
	if !qo.Adaptive {
		return engineEnv{e}
	}
	return adaptiveEnv{engineEnv{e}, e.feedbackStore()}
}

// feedbackStore returns the engine's feedback store.
func (e *Engine) feedbackStore() *feedback.Store {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.feedback
}

// Feedback exposes the feedback store (experiments and tests inspect it).
func (e *Engine) Feedback() *feedback.Store { return e.feedbackStore() }

// optimizerOptions derives the opt.Options a query plans under (compile
// and Reoptimize must agree).
func optimizerOptions(qo QueryOptions) opt.Options {
	optOpts := qo.Optimizer
	if qo.NoSemiJoin {
		optOpts.NoSemiJoin = true
	}
	return optOpts
}

// swapEstimator is the per-node row estimator handed to the executor's
// cardinality ledger, with two jobs the mutex covers at once: the
// underlying estimator memoizes per node and is not goroutine-safe while
// BuildBatch runs inside prefetch goroutines, and the replan loop swaps
// in a fresh estimator (over updated feedback) between attempts without
// ever rewriting the exec.Options the attempts share.
type swapEstimator struct {
	mu  sync.Mutex
	est *opt.Estimator
}

func newSwapEstimator(env opt.Env) *swapEstimator {
	return &swapEstimator{est: opt.NewEstimator(env)}
}

func (s *swapEstimator) rows(n plan.Node) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.est.Rows(n)
}

// swap replaces the estimator after the feedback store absorbed an
// aborted attempt, so the next attempt's ledger records post-feedback
// estimates (the ones the re-optimized plan was actually built from).
func (s *swapEstimator) swap(env opt.Env) {
	s.mu.Lock()
	s.est = opt.NewEstimator(env)
	s.mu.Unlock()
}

// absorbLedger feeds one execution attempt's ledger into the feedback
// store: each successful fetch attempt's observed rows, keyed by (source,
// table, predicate signature), and its link time against what the link
// model predicts for the same bytes; failed attempts feed nothing. It
// returns how many operators misestimated by estimateErrorFactor or more.
// Must only be called after the attempt's goroutines have joined (the
// ledger contract).
func (rt *queryRuntime) absorbLedger(estimate func(plan.Node) int64) (estErrors int) {
	led := rt.opts.Cards
	fb := rt.e.feedbackStore()
	for _, f := range led.AttemptFetches() {
		if f.Err != nil {
			continue
		}
		if src, ok := rt.sources[strings.ToLower(f.Source)]; ok {
			fb.ObserveLatency(f.Source, src.Link().TransferCost(f.Bytes), f.SimTime)
		}
		key, ok := feedback.Signature(f.Subtree)
		if !ok {
			continue
		}
		fb.Observe(key, f.Rows, float64(estimate(f.Subtree)))
	}
	for _, op := range led.Ops() {
		if op.Est < 0 {
			continue
		}
		a, p := float64(op.Rows)+1, float64(op.Est)+1
		if a >= estimateErrorFactor*p || p >= estimateErrorFactor*a {
			estErrors++
		}
	}
	return estErrors
}

// renderExplain formats the executed plan with estimated-vs-observed rows
// per operator — the `--explain` / `?explain=1` surface: estimate error
// inspectable without full tracing.
func renderExplain(p plan.Node, led *exec.CardLedger, replans int) string {
	cards := led.ByNode()
	var b strings.Builder
	if replans > 0 {
		fmt.Fprintf(&b, "-- re-planned %dx mid-query (cardinality tripwire)\n", replans)
	}
	var walk func(plan.Node, int)
	walk = func(n plan.Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Describe())
		if c, ok := cards[n]; ok {
			if c.Est >= 0 {
				fmt.Fprintf(&b, "  (est=%d actual=%d)", c.Est, c.Rows)
			} else {
				fmt.Fprintf(&b, "  (actual=%d)", c.Rows)
			}
		}
		b.WriteByte('\n')
		for _, k := range n.Children() {
			walk(k, depth+1)
		}
	}
	walk(p, 0)
	return b.String()
}
