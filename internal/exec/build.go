package exec

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/bloom"
	"repro/internal/datum"
	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// Runtime supplies the environment a plan executes in: how to read base
// tables and how to dispatch Remote subtrees. The mediator's runtime sends
// Remote subtrees to source wrappers over simulated links; a wrapper's own
// runtime binds Scans to its local tables and never sees Remote nodes.
// Both calls receive the query's context so scans and remote dispatches
// observe cancellation and deadlines.
type Runtime interface {
	// ScanTable opens a cursor over a base table.
	ScanTable(ctx context.Context, source, table string) (Iterator, error)
	// RunRemote executes a pushed-down subtree at the named source and
	// returns its result rows.
	RunRemote(ctx context.Context, source string, subtree plan.Node) (Iterator, error)
}

// Options tunes plan execution.
type Options struct {
	// Parallel fetches Remote inputs of joins and unions concurrently
	// (inter-source prefetch). Zero/false executes them lazily in
	// sequence.
	Parallel bool
	// Parallelism caps the intra-query worker pool of each parallel
	// operator (morsel-driven parallelism): 0 means GOMAXPROCS, 1 forces
	// sequential execution. An operator only runs parallel when its plan
	// node carries a parallelism hint (the optimizer annotates hints from
	// estimated cardinality), so a zero-value Options — the wrappers'
	// local execution path — always stays sequential.
	Parallelism int
	// BatchSize is the row count per execution batch; 0 means
	// DefaultBatchSize. 1 degenerates to row-at-a-time execution.
	BatchSize int
	// Stats, when non-nil, accumulates batch and parallelism counters
	// across all operators of the query.
	Stats *ExecStats
	// SemiJoin enables semi-join reduction: for an equi-join whose
	// build side is a Remote subtree at a filter-capable source, the
	// probe side's distinct join keys are shipped to the source as an
	// IN-list so only matching rows come back — §3's "the more work the
	// component queries can do, the less work will remain to be done at
	// the assembly site". Past MaxSemiJoinKeys distinct keys the shipped
	// list becomes a bloom filter of the keys (constant bits/key, no
	// false negatives); past plan.DefaultBloomKeyCap it falls back to a
	// full fetch.
	SemiJoin bool
	// MaxSemiJoinKeys caps the exact shipped key list; 0 means 512.
	MaxSemiJoinKeys int
	// Retry controls re-fetching of Remote subtrees after transient
	// failures (see FetchRemote). Zero value: single attempt.
	Retry RetryPolicy
	// Hooks, when non-nil, receives the retry/fault callbacks as one
	// interface value. The per-field closures below take precedence when
	// set; engines that implement FetchHooks on an existing per-query
	// object avoid allocating three closures per query.
	Hooks FetchHooks
	// ChargeBackoff, when non-nil, is called with each retry's backoff
	// wait so the engine can charge it to the source's virtual clock.
	ChargeBackoff func(source string, d time.Duration)
	// OnRetry, when non-nil, observes each retry attempt per source.
	OnRetry func(source string)
	// OnSourceError, when non-nil, observes every failed fetch attempt
	// (including ones that will be retried).
	OnSourceError func(source string, attempt int, err error)
	// OnRemoteFail, when non-nil, is consulted after retries are
	// exhausted; returning ok=true substitutes the iterator (replica
	// fallback or an empty result for partial-tolerant queries) instead
	// of failing the query.
	OnRemoteFail func(source string, subtree plan.Node, err error) (Iterator, bool)
	// Governor, when non-nil, is the query's claim on the shared morsel
	// worker pool: each operator's exchange degree is additionally capped
	// by the ticket's current share, so concurrent queries split workers
	// by tenant priority instead of each taking the full machine.
	Governor *GovernorTicket
	// Memory, when non-nil, receives in-flight batch memory charges at
	// every operator boundary (admission control's per-tenant memory
	// quota). A Grow error aborts the query with the reservation's
	// structured overload error.
	Memory MemoryReservation
	// Scratch, when non-nil, is the query-scoped allocator batch
	// operators draw row headers and projected datums from; everything it
	// backs is recycled when the query finishes. Nil allocates from the
	// heap.
	Scratch *Scratch
	// Cards, when non-nil, is the query's execution-statistics record:
	// every operator boundary counts its output rows and batches into it
	// (and times its pulls when the ledger has a clock), and the engine's
	// runtime records every fetch attempt. EXPLAIN, traces and runtime
	// feedback are all rendered from it.
	Cards *CardLedger
	// Estimate, when non-nil alongside Cards, supplies the optimizer's
	// row estimate per plan node so ledger records carry
	// estimated-vs-actual pairs. Return -1 for "unknown".
	Estimate func(plan.Node) int64
	// Replan arms the mid-query re-optimization tripwire (requires Cards
	// and Estimate). See ReplanPolicy.
	Replan ReplanPolicy
}

func (o Options) maxKeys() int {
	if o.MaxSemiJoinKeys <= 0 {
		return 512
	}
	return o.MaxSemiJoinKeys
}

func (o Options) batchSize() int {
	if o.BatchSize <= 0 {
		return DefaultBatchSize
	}
	return o.BatchSize
}

// workers resolves the effective degree for an operator whose plan node
// carries hint: the smaller of the hint and the pool cap. Unannotated
// nodes (hint <= 1) always run sequential.
func (o Options) workers(hint int) int {
	if hint <= 1 {
		return 1
	}
	max := o.Parallelism
	if max == 0 {
		max = runtime.GOMAXPROCS(0)
	}
	if max < 1 {
		max = 1
	}
	if share := o.Governor.Share(); share < max {
		max = share
	}
	if hint < max {
		return hint
	}
	return max
}

// BuildBatch compiles a logical plan into an executable batch iterator.
func BuildBatch(ctx context.Context, n plan.Node, rt Runtime, opts Options) (BatchIterator, error) {
	it, err := buildNode(ctx, n, rt, opts)
	if err != nil {
		return nil, err
	}
	// Memory charging, cancellation checks and batch counting share one
	// fused wrapper: every operator boundary pays for it, so three
	// separate decorator allocations per operator would show up directly
	// in the per-query allocation budget.
	cancellable := ctx.Done() != nil // context-free leaves skip the per-batch check
	if opts.Memory != nil || cancellable || opts.Stats != nil || opts.Cards != nil {
		g := &guardBatchIter{in: it, mem: opts.Memory, stats: opts.Stats}
		if cancellable {
			g.ctx = ctx
		}
		if opts.Cards != nil {
			est := int64(-1)
			if opts.Estimate != nil {
				est = opts.Estimate(n)
			}
			g.card = opts.Cards.addOp(n, est)
			if opts.Cards.clock != nil {
				g.timed = opts.Cards
			}
			if opts.Replan.enabled() && est >= 0 && replanNode(n) {
				g.replan = opts.Replan
			}
		}
		it = g
	}
	return it, nil
}

// replanNode reports whether the re-plan tripwire may arm on n: fetch
// boundaries only, because those are the estimates runtime feedback can
// correct. An interior operator (say, a join) that misestimates over
// correctly-estimated inputs would re-optimize to the same plan and trip
// again on every attempt — aborting there buys nothing but re-execution.
func replanNode(n plan.Node) bool {
	switch n.(type) {
	case *plan.Remote, *plan.Scan:
		return true
	}
	return false
}

// guardBatchIter is the fused per-operator boundary wrapper: an optional
// cancellation check (every NextBatch pull observes ctx.Done() before
// asking the input for more work, so a cancelled query stops within one
// batch at every level of the operator tree), optional in-flight memory
// accounting (each pull releases the previous batch's charge and charges
// the new one; Close releases the residual), optional batch counting, and
// the operator's ledger record.
type guardBatchIter struct {
	in      BatchIterator
	ctx     context.Context   // nil: no cancellation check
	mem     MemoryReservation // nil: no memory accounting
	stats   *ExecStats        // nil: no batch counting
	card    *OpCard           // nil: no cardinality ledger
	timed   *CardLedger       // nil: pulls are not timed
	replan  ReplanPolicy      // zero: tripwire disarmed
	charged int64
}

func (g *guardBatchIter) NextBatch() (Batch, error) {
	if g.ctx != nil {
		if err := g.ctx.Err(); err != nil {
			return nil, err
		}
	}
	if g.charged > 0 {
		g.mem.Shrink(g.charged)
		g.charged = 0
	}
	b, err := g.in.NextBatch()
	if g.timed != nil {
		g.card.notePull(g.timed.Elapsed())
	}
	if err != nil {
		return b, err
	}
	if g.mem != nil {
		if n := batchBytes(b); n > 0 {
			g.charged = n
			if gerr := g.mem.Grow(n); gerr != nil {
				return nil, gerr
			}
		}
	}
	if b != nil {
		if g.stats != nil {
			g.stats.addBatch()
		}
		if g.card != nil {
			g.card.Rows += int64(len(b))
			g.card.Batches++
			// Mid-query re-plan tripwire: an operator that has already
			// produced Factor times its estimated rows (and a material
			// absolute amount) proves the plan was costed on a bad
			// estimate. Abort at this batch boundary; the engine
			// re-optimizes against the ledger and re-executes. Only
			// underestimates trip — overestimates waste nothing that is
			// recoverable mid-flight.
			if g.replan.enabled() && g.card.Rows >= g.replan.MinRows &&
				g.card.Rows > g.replan.Factor*g.card.Est {
				return nil, &ReplanError{Node: g.card.Node, Est: g.card.Est, Actual: g.card.Rows}
			}
		}
	}
	return b, nil
}

func (g *guardBatchIter) Close() {
	if g.charged > 0 {
		g.mem.Shrink(g.charged)
		g.charged = 0
	}
	g.in.Close()
}

func buildNode(ctx context.Context, n plan.Node, rt Runtime, opts Options) (BatchIterator, error) {
	switch x := n.(type) {
	case *plan.Scan:
		if x.Source == "" && x.Table == "" {
			// FROM-less select: one empty row.
			return newSliceBatchIter([]datum.Row{{}}, opts.batchSize()), nil
		}
		it, err := rt.ScanTable(ctx, x.Source, x.Table)
		if err != nil {
			return nil, err
		}
		return asBatchIterator(it, opts.batchSize()), nil

	case *plan.Remote:
		if opts.Parallel {
			return prefetchBatches(ctx, opts.batchSize(), func() (BatchIterator, error) {
				it, err := FetchRemote(ctx, rt, opts, x.Source, x.Child)
				if err != nil {
					return nil, err
				}
				return asBatchIterator(it, opts.batchSize()), nil
			}), nil
		}
		it, err := FetchRemote(ctx, rt, opts, x.Source, x.Child)
		if err != nil {
			return nil, err
		}
		return asBatchIterator(it, opts.batchSize()), nil

	case *plan.Filter:
		in, err := BuildBatch(ctx, x.Input, rt, opts)
		if err != nil {
			return nil, err
		}
		pred, err := Compile(x.Cond, x.Input.Columns())
		if err != nil {
			in.Close()
			return nil, err
		}
		if deg := opts.workers(x.Parallel); deg > 1 {
			if opts.Stats != nil {
				opts.Stats.noteParallelism(deg)
			}
			return newExchange(ctx, in, deg, func(_ int, b Batch) (Batch, error) {
				var dst Batch
				if s := opts.Scratch; s != nil {
					dst = Batch(s.MakeRows(len(b)))[:0]
				}
				return FilterBatch(pred, b, dst)
			}), nil
		}
		return &filterBatchIter{in: in, pred: pred, scratch: opts.Scratch}, nil

	case *plan.Project:
		in, err := BuildBatch(ctx, x.Input, rt, opts)
		if err != nil {
			return nil, err
		}
		fns := make([]EvalFunc, len(x.Exprs))
		for i, e := range x.Exprs {
			if fns[i], err = Compile(e, x.Input.Columns()); err != nil {
				in.Close()
				return nil, err
			}
		}
		if deg := opts.workers(x.Parallel); deg > 1 {
			if opts.Stats != nil {
				opts.Stats.noteParallelism(deg)
			}
			return newExchange(ctx, in, deg, func(_ int, b Batch) (Batch, error) {
				var dst Batch
				if s := opts.Scratch; s != nil {
					dst = Batch(s.MakeRows(len(b)))[:0]
				}
				return projectBatch(opts.Scratch, fns, b, dst)
			}), nil
		}
		return &projectBatchIter{in: in, exprs: fns, scratch: opts.Scratch}, nil

	case *plan.Join:
		return buildJoin(ctx, x, rt, opts)

	case *plan.Aggregate:
		in, err := BuildBatch(ctx, x.Input, rt, opts)
		if err != nil {
			return nil, err
		}
		inCols := x.Input.Columns()
		groupFns := make([]EvalFunc, len(x.GroupBy))
		for i, g := range x.GroupBy {
			if groupFns[i], err = Compile(g, inCols); err != nil {
				in.Close()
				return nil, err
			}
		}
		argFns := make([]EvalFunc, len(x.Aggs))
		for i, sp := range x.Aggs {
			if sp.Star {
				continue
			}
			if argFns[i], err = Compile(sp.Arg, inCols); err != nil {
				in.Close()
				return nil, err
			}
		}
		return &aggregateBatchIter{
			in: in, groupFns: groupFns, specs: x.Aggs, argFns: argFns,
			partitionBy: x.PartitionBy,
			degree:      opts.workers(x.Parallel),
			size:        opts.batchSize(),
			stats:       opts.Stats,
		}, nil

	case *plan.Sort:
		in, err := BuildBatch(ctx, x.Input, rt, opts)
		if err != nil {
			return nil, err
		}
		keys := make([]EvalFunc, len(x.Keys))
		desc := make([]bool, len(x.Keys))
		for i, k := range x.Keys {
			if keys[i], err = Compile(k.Expr, x.Input.Columns()); err != nil {
				in.Close()
				return nil, err
			}
			desc[i] = k.Desc
		}
		return &sortBatchIter{in: in, keys: keys, desc: desc, size: opts.batchSize()}, nil

	case *plan.Limit:
		in, err := BuildBatch(ctx, x.Input, rt, opts)
		if err != nil {
			return nil, err
		}
		return &limitBatchIter{in: in, count: x.Count, offset: x.Offset}, nil

	case *plan.Distinct:
		in, err := BuildBatch(ctx, x.Input, rt, opts)
		if err != nil {
			return nil, err
		}
		return &distinctBatchIter{in: in}, nil

	case *plan.Union:
		inputs := make([]BatchIterator, len(x.Inputs))
		for i, child := range x.Inputs {
			child := child
			if opts.Parallel {
				inputs[i] = prefetchBatches(ctx, opts.batchSize(), func() (BatchIterator, error) {
					return BuildBatch(ctx, child, rt, opts)
				})
				continue
			}
			in, err := BuildBatch(ctx, child, rt, opts)
			if err != nil {
				for _, prev := range inputs[:i] {
					prev.Close()
				}
				return nil, err
			}
			inputs[i] = in
		}
		return &unionBatchIter{inputs: inputs}, nil

	default:
		return nil, fmt.Errorf("exec: unsupported plan node %T", n)
	}
}

func buildJoin(ctx context.Context, x *plan.Join, rt Runtime, opts Options) (BatchIterator, error) {
	// Semi-join reduction: materialize the left side, ship its distinct
	// join keys into the right Remote as an IN-list filter.
	if opts.SemiJoin && x.Cond != nil {
		if it, ok, err := trySemiJoin(ctx, x, rt, opts); err != nil {
			return nil, err
		} else if ok {
			return it, nil
		}
	}

	buildSide := func(n plan.Node) (BatchIterator, error) {
		if opts.Parallel {
			if _, isRemote := n.(*plan.Remote); isRemote {
				return prefetchBatches(ctx, opts.batchSize(), func() (BatchIterator, error) {
					return BuildBatch(ctx, n, rt, opts)
				}), nil
			}
		}
		return BuildBatch(ctx, n, rt, opts)
	}
	left, err := buildSide(x.Left)
	if err != nil {
		return nil, err
	}
	right, err := buildSide(x.Right)
	if err != nil {
		left.Close()
		return nil, err
	}
	return assembleJoin(ctx, x, left, right, opts)
}

// assembleJoin wires a hash or nested-loop join over already-built inputs.
func assembleJoin(ctx context.Context, x *plan.Join, left, right BatchIterator, opts Options) (BatchIterator, error) {
	var lk, rk []sqlparse.Expr
	var residual sqlparse.Expr
	if x.Cond != nil {
		lk, rk, residual = extractEquiKeys(x.Cond, x.Left.Columns(), x.Right.Columns())
	}
	return assembleJoinKeys(ctx, x, left, right, opts, lk, rk, residual)
}

// assembleJoinKeys is assembleJoin with the equi-key split already done —
// trySemiJoin extracts the keys once for reduction planning and hands the
// same split back here instead of re-deriving it.
func assembleJoinKeys(ctx context.Context, x *plan.Join, left, right BatchIterator, opts Options, lk, rk []sqlparse.Expr, residual sqlparse.Expr) (BatchIterator, error) {
	leftCols := x.Left.Columns()
	rightCols := x.Right.Columns()
	joinedCols := x.Columns()
	leftJoin := x.Type == sqlparse.JoinLeft

	if x.Cond != nil {
		if len(lk) > 0 {
			h := &hashJoinBatchIter{
				ctx:  ctx,
				left: left, right: right,
				leftJoin:   leftJoin,
				rightArity: len(rightCols),
				degree:     opts.workers(x.Parallel),
				stats:      opts.Stats,
				scratch:    opts.Scratch,
			}
			for _, e := range lk {
				f, err := Compile(e, leftCols)
				if err != nil {
					h.Close()
					return nil, err
				}
				h.leftKeys = append(h.leftKeys, f)
			}
			for _, e := range rk {
				f, err := Compile(e, rightCols)
				if err != nil {
					h.Close()
					return nil, err
				}
				h.rightKeys = append(h.rightKeys, f)
			}
			if residual != nil {
				var err error
				if h.residual, err = Compile(residual, joinedCols); err != nil {
					h.Close()
					return nil, err
				}
			}
			return h, nil
		}
	}
	nl := &nestedLoopBatchIter{
		left: left, right: right,
		leftJoin: leftJoin, rightArity: len(rightCols),
		size: opts.batchSize(),
	}
	if x.Cond != nil {
		var err error
		if nl.cond, err = Compile(x.Cond, joinedCols); err != nil {
			nl.Close()
			return nil, err
		}
	}
	return nl, nil
}

// trySemiJoin executes a join the optimizer hinted for semi-join
// reduction: the probe side is materialized, its distinct join keys ship to
// the reducible side's source as an IN-list, and only matching rows come
// back. It returns ok=false (and no error) when the hint does not apply
// after all, in which case the caller runs the regular join.
func trySemiJoin(ctx context.Context, x *plan.Join, rt Runtime, opts Options) (BatchIterator, bool, error) {
	if x.SemiJoin == plan.SemiJoinNone {
		return nil, false, nil
	}
	reduceRight := x.SemiJoin == plan.SemiJoinReduceRight
	probeNode, reduceNode := x.Left, x.Right
	if !reduceRight {
		probeNode, reduceNode = x.Right, x.Left
	}
	remote, isRemote := reduceNode.(*plan.Remote)
	if !isRemote || !remote.AllowKeyFilter {
		return nil, false, nil
	}
	lk, rk, residual := extractEquiKeys(x.Cond, x.Left.Columns(), x.Right.Columns())
	if len(lk) == 0 {
		return nil, false, nil
	}
	probeKeys, reduceKeys := lk, rk
	if !reduceRight {
		probeKeys, reduceKeys = rk, lk
	}
	// Pick the first key pair whose reducible side is a plain column of
	// the remote subtree — that is what the shipped IN-list filters on.
	pairIdx := -1
	var reduceRef *sqlparse.ColumnRef
	for i, e := range reduceKeys {
		ref, isRef := e.(*sqlparse.ColumnRef)
		if !isRef {
			continue
		}
		if _, found := plan.FindColumn(remote.Child.Columns(), ref); found {
			pairIdx = i
			reduceRef = ref
			break
		}
	}
	if pairIdx < 0 {
		return nil, false, nil
	}

	// assemble wires the probe rows and the (reduced or full) fetch back
	// into the join's original left/right orientation.
	assemble := func(probeRows []datum.Row, reducedIt BatchIterator) (BatchIterator, error) {
		probe := newSliceBatchIter(probeRows, opts.batchSize())
		if reduceRight {
			return assembleJoinKeys(ctx, x, probe, reducedIt, opts, lk, rk, residual)
		}
		return assembleJoinKeys(ctx, x, reducedIt, probe, opts, lk, rk, residual)
	}

	// Materialize the probe side and collect its distinct key values.
	probeIt, err := BuildBatch(ctx, probeNode, rt, opts)
	if err != nil {
		return nil, false, err
	}
	probeRows, err := DrainBatchesScratch(probeIt, opts.Scratch)
	if err != nil {
		return nil, false, err
	}
	keyFn, err := Compile(probeKeys[pairIdx], probeNode.Columns())
	if err != nil {
		return nil, false, err
	}
	keys := newDatumSet(len(probeRows)) // distinct keys in probe order
	for _, r := range probeRows {
		v, err := keyFn(r)
		if err != nil {
			return nil, false, err
		}
		if v.IsNull() || !keys.add(v) {
			continue
		}
		if keys.size() > plan.DefaultBloomKeyCap {
			// Too many distinct keys even for a bloom filter; run the
			// regular join over the already-materialized probe side.
			full, err := BuildBatch(ctx, reduceNode, rt, opts)
			if err != nil {
				return nil, false, err
			}
			it, err := assemble(probeRows, full)
			return it, err == nil, err
		}
	}
	var reduced plan.Node
	switch {
	case keys.size() == 0:
		// No joinable keys on the probe side: nothing can match, so
		// fetch nothing. (SQL IN () is invalid; use a FALSE filter.)
		reduced = &plan.Filter{Input: remote.Child,
			Cond: &sqlparse.Literal{Value: datum.NewBool(false)}}
	case keys.size() <= opts.maxKeys():
		lits := make([]sqlparse.Literal, keys.size())
		list := make([]sqlparse.Expr, keys.size())
		for i, e := range keys.entries {
			lits[i].Value = e.v
			list[i] = &lits[i]
		}
		reduced = &plan.Filter{Input: remote.Child,
			Cond: &sqlparse.InExpr{Child: reduceRef, List: list}}
	default:
		// Past the exact-list cap, summarize the keys into a bloom
		// filter instead of abandoning reduction: ~10 bits/key on the
		// wire, no false negatives, and the handful of false-positive
		// rows that come back are dropped by the join's own key
		// equality check in assembleJoinKeys.
		f := bloom.New(keys.size(), bloom.DefaultFPRate, bloom.DefaultSeed)
		for _, e := range keys.entries {
			f.Add(e.h)
		}
		reduced = &plan.Filter{Input: remote.Child,
			Cond: &sqlparse.KeyFilterExpr{Child: reduceRef, Set: f}}
	}
	reducedIt, err := FetchRemote(ctx, rt, opts, remote.Source, reduced)
	if err != nil {
		return nil, false, err
	}
	it, err := assemble(probeRows, asBatchIterator(reducedIt, opts.batchSize()))
	return it, err == nil, err
}
