package exec

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/datum"
	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// Iterator is the Volcano-style row cursor of the Runtime interface
// (table snapshots, remote fetches). Inside the executor everything flows
// as batches (see BatchIterator).
// Next returns (nil, nil) when the stream is exhausted.
type Iterator interface {
	Next() (datum.Row, error)
	Close()
}

// sliceIter iterates a materialized row slice. It doubles as a
// BatchIterator (asBatchIterator sets the window size and returns it
// as-is) so the ubiquitous materialized-rows case — every remote fetch —
// costs one allocation, not an iterator plus an adapter.
type sliceIter struct {
	rows []datum.Row
	pos  int
	size int
}

// NewSliceIterator wraps materialized rows in an Iterator.
func NewSliceIterator(rows []datum.Row) Iterator { return &sliceIter{rows: rows} }

func (s *sliceIter) Next() (datum.Row, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r, nil
}

func (s *sliceIter) NextBatch() (Batch, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	size := s.size
	if size <= 0 {
		size = DefaultBatchSize
	}
	end := s.pos + size
	if end > len(s.rows) {
		end = len(s.rows)
	}
	b := Batch(s.rows[s.pos:end])
	s.pos = end
	return b, nil
}

func (s *sliceIter) Close() {}

// --- Filter ---

type filterBatchIter struct {
	in      BatchIterator
	pred    EvalFunc
	out     Batch
	scratch *Scratch
}

func (f *filterBatchIter) NextBatch() (Batch, error) {
	for {
		b, err := f.in.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		if f.scratch != nil && cap(f.out) < len(b) {
			f.out = Batch(f.scratch.MakeRows(len(b)))
		}
		out, err := FilterBatch(f.pred, b, f.out[:0])
		if err != nil {
			return nil, err
		}
		//lint:ignore batchretain out is this operator's own scratch container (built in f.out[:0])
		f.out = out
		if len(out) > 0 {
			return out, nil
		}
	}
}

func (f *filterBatchIter) Close() { f.in.Close() }

// --- Project ---

type projectBatchIter struct {
	in      BatchIterator
	exprs   []EvalFunc
	out     Batch
	scratch *Scratch
}

func (p *projectBatchIter) NextBatch() (Batch, error) {
	b, err := p.in.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	if p.scratch != nil && cap(p.out) < len(b) {
		p.out = Batch(p.scratch.MakeRows(len(b)))
	}
	out, err := projectBatch(p.scratch, p.exprs, b, p.out[:0])
	if err != nil {
		return nil, err
	}
	//lint:ignore batchretain out is this operator's own scratch container (built in p.out[:0])
	p.out = out
	return out, nil
}

func (p *projectBatchIter) Close() { p.in.Close() }

// --- Joins ---

// joinTable is the build side of an equi-join: materialized rows, their
// precomputed key values (one flat arena, nkeys per row), and hash buckets
// holding row indexes. Buckets are sharded by hash so a parallel build can
// fill them without locking; a sequential build uses one shard. Probing
// walks buckets by index — no per-probe copying (rows with NULL keys are
// never inserted).
type joinTable struct {
	nkeys  int
	rows   []datum.Row
	keys   []datum.Datum
	shards []map[uint64][]int32
	// shard1 backs shards for the sequential single-shard build, sparing
	// the one-element slice allocation on the warm path.
	shard1 [1]map[uint64][]int32
}

func (t *joinTable) keyOf(i int32) datum.Row {
	return datum.Row(t.keys[int(i)*t.nkeys : (int(i)+1)*t.nkeys])
}

func (t *joinTable) lookup(h uint64) []int32 {
	return t.shards[h%uint64(len(t.shards))][h]
}

// insertRange evaluates keys and hashes for rows[lo:hi) into the arenas.
func (t *joinTable) evalRange(keyFns []EvalFunc, hashes []uint64, null []bool, lo, hi int) error {
	for i := lo; i < hi; i++ {
		key := t.keys[i*t.nkeys : (i+1)*t.nkeys]
		isNull := false
		for k, f := range keyFns {
			v, err := f(t.rows[i])
			if err != nil {
				return err
			}
			if v.IsNull() {
				isNull = true
				break
			}
			key[k] = v
		}
		null[i] = isNull
		if !isNull {
			hashes[i] = hashKey(datum.Row(key))
		}
	}
	return nil
}

// probeBatch probes every row of b against the table, appending joined
// rows to dst. keyScratch must have len == nkeys and is reused across
// rows; each caller (exchange worker) owns its own scratch.
func (t *joinTable) probeBatch(s *Scratch, b Batch, leftKeys []EvalFunc, residual EvalFunc, leftJoin bool, rightArity int, keyScratch datum.Row, dst Batch) (Batch, error) {
	for _, l := range b {
		matched := false
		null := false
		for i, f := range leftKeys {
			v, err := f(l)
			if err != nil {
				return nil, err
			}
			if v.IsNull() {
				null = true
				break
			}
			keyScratch[i] = v
		}
		if !null {
			for _, idx := range t.lookup(hashKey(keyScratch)) {
				if !datum.RowsEqual(keyScratch, t.keyOf(idx)) {
					continue // hash collision
				}
				right := t.rows[idx]
				joined := datum.Row(s.MakeDatums(len(l) + len(right)))[:0]
				joined = append(append(joined, l...), right...)
				if residual != nil {
					ok, err := EvalPredicate(residual, joined)
					if err != nil {
						return nil, err
					}
					if !ok {
						continue
					}
				}
				matched = true
				dst = append(dst, joined)
			}
		}
		if leftJoin && !matched {
			padded := datum.Row(s.MakeDatums(len(l) + rightArity))[:0]
			dst = append(dst, append(append(padded, l...), nullRow(rightArity)...))
		}
	}
	return dst, nil
}

// hashJoinBatchIter implements equi-joins: it builds a hash table over the
// right input and probes with left batches. Residual non-equi predicates
// apply after key matching; LEFT joins null-pad unmatched left rows. With
// degree > 1 the build partitions by key hash across workers and the probe
// runs through an ordered exchange, so output order (and float arithmetic)
// is identical to the sequential plan.
type hashJoinBatchIter struct {
	ctx        context.Context
	left       BatchIterator
	right      BatchIterator
	leftKeys   []EvalFunc
	rightKeys  []EvalFunc
	residual   EvalFunc // may be nil
	leftJoin   bool
	rightArity int
	degree     int
	stats      *ExecStats
	scratch    *Scratch

	built  bool
	table  joinTable
	keyBuf datum.Row
	out    Batch
	ex     BatchIterator // parallel probe; nil when sequential
}

func (h *hashJoinBatchIter) build() error {
	h.built = true
	rows, err := drainBatchesScratch(h.right, h.scratch)
	if err != nil {
		return err
	}
	if err := buildJoinTable(&h.table, h.scratch, rows, h.rightKeys, h.degree); err != nil {
		return err
	}
	h.keyBuf = make(datum.Row, len(h.leftKeys))
	if h.degree > 1 {
		if h.stats != nil {
			h.stats.noteParallelism(h.degree)
		}
		scratches := make([]datum.Row, h.degree)
		for i := range scratches {
			scratches[i] = make(datum.Row, len(h.leftKeys))
		}
		h.ex = newExchange(h.ctx, h.left, h.degree, func(w int, b Batch) (Batch, error) {
			return h.table.probeBatch(h.scratch, b, h.leftKeys, h.residual, h.leftJoin, h.rightArity, scratches[w], nil)
		})
	}
	return nil
}

func (h *hashJoinBatchIter) NextBatch() (Batch, error) {
	if !h.built {
		if err := h.build(); err != nil {
			return nil, err
		}
	}
	if h.ex != nil {
		return h.ex.NextBatch()
	}
	for {
		b, err := h.left.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		out, err := h.table.probeBatch(h.scratch, b, h.leftKeys, h.residual, h.leftJoin, h.rightArity, h.keyBuf, h.out[:0])
		if err != nil {
			return nil, err
		}
		//lint:ignore batchretain out is this operator's own scratch container (built in h.out[:0])
		h.out = out
		if len(out) > 0 {
			return out, nil
		}
	}
}

func (h *hashJoinBatchIter) Close() {
	if h.ex != nil {
		h.ex.Close() // closes h.left underneath
	} else {
		h.left.Close()
	}
	h.right.Close()
}

func evalKey(fns []EvalFunc, r datum.Row) (datum.Row, bool, error) {
	key := make(datum.Row, len(fns))
	for i, f := range fns {
		v, err := f(r)
		if err != nil {
			return nil, false, err
		}
		if v.IsNull() {
			return nil, true, nil
		}
		key[i] = v
	}
	return key, false, nil
}

func hashKey(key datum.Row) uint64 {
	h := uint64(1469598103934665603)
	for _, d := range key {
		h ^= d.Hash()
		h *= 1099511628211
	}
	return h
}

func nullRow(n int) datum.Row {
	r := make(datum.Row, n)
	for i := range r {
		r[i] = datum.Null
	}
	return r
}

// nestedLoopBatchIter implements joins without equi-keys: it materializes
// the right input and scans it per left row, emitting output in bounded
// batches so LIMIT above a wide cross join still stops early.
type nestedLoopBatchIter struct {
	left       BatchIterator
	right      BatchIterator
	cond       EvalFunc // may be nil (cross join)
	leftJoin   bool
	rightArity int
	size       int

	rightRows []datum.Row
	built     bool
	cur       Batch
	curPos    int
	rightPos  int
	matched   bool
	out       Batch
}

func (n *nestedLoopBatchIter) NextBatch() (Batch, error) {
	if !n.built {
		rows, err := drainBatches(n.right)
		if err != nil {
			return nil, err
		}
		n.rightRows = rows
		n.built = true
	}
	out := n.out[:0]
	for {
		if n.curPos >= len(n.cur) {
			if len(out) >= n.size {
				break
			}
			b, err := n.left.NextBatch()
			if err != nil {
				return nil, err
			}
			if b == nil {
				if len(out) == 0 {
					return nil, nil
				}
				break
			}
			//lint:ignore batchretain cur is fully consumed before the next NextBatch call refills it
			n.cur, n.curPos, n.rightPos, n.matched = b, 0, 0, false
		}
		l := n.cur[n.curPos]
		for n.rightPos < len(n.rightRows) {
			right := n.rightRows[n.rightPos]
			n.rightPos++
			joined := append(append(make(datum.Row, 0, len(l)+len(right)), l...), right...)
			if n.cond != nil {
				ok, err := EvalPredicate(n.cond, joined)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			n.matched = true
			out = append(out, joined)
		}
		if n.leftJoin && !n.matched {
			out = append(out, append(append(make(datum.Row, 0, len(l)+n.rightArity), l...), nullRow(n.rightArity)...))
		}
		n.curPos++
		n.rightPos, n.matched = 0, false
	}
	//lint:ignore batchretain out is this operator's own scratch container (built in n.out[:0])
	n.out = out
	return out, nil
}

func (n *nestedLoopBatchIter) Close() {
	n.left.Close()
	n.right.Close()
}

// --- Aggregate ---

type aggState struct {
	groupKey  datum.Row
	firstSeen int           // global input row index of the group's first row
	count     []int64       // per agg
	sumF      []float64     // per agg
	sumIsInt  []bool        // SUM stays INT while all inputs are INT
	sumI      []int64       // integer sum image
	minmax    []datum.Datum // per agg
	distinct  []map[uint64]struct{}
}

func newAggState(key datum.Row, specs []plan.AggSpec, firstSeen int) *aggState {
	st := &aggState{
		groupKey:  key,
		firstSeen: firstSeen,
		count:     make([]int64, len(specs)),
		sumF:      make([]float64, len(specs)),
		sumI:      make([]int64, len(specs)),
		sumIsInt:  make([]bool, len(specs)),
		minmax:    make([]datum.Datum, len(specs)),
		distinct:  make([]map[uint64]struct{}, len(specs)),
	}
	for i, sp := range specs {
		st.minmax[i] = datum.Null
		st.sumIsInt[i] = true
		if sp.Distinct {
			st.distinct[i] = make(map[uint64]struct{})
		}
	}
	return st
}

// add folds one evaluated argument into aggregate i. COUNT(*) passes an
// ignored value with sp.Star set.
func (st *aggState) add(i int, sp plan.AggSpec, v datum.Datum) error {
	if sp.Star {
		st.count[i]++
		return nil
	}
	if v.IsNull() {
		return nil
	}
	if sp.Distinct {
		hh := v.Hash()
		if _, dup := st.distinct[i][hh]; dup {
			return nil
		}
		st.distinct[i][hh] = struct{}{}
	}
	st.count[i]++
	switch sp.Func {
	case "SUM", "AVG":
		f, ok := v.AsFloat()
		if !ok {
			return fmt.Errorf("exec: %s requires numeric input, got %s", sp.Func, v.Kind())
		}
		st.sumF[i] += f
		if v.Kind() == datum.KindInt {
			st.sumI[i] += v.Int()
		} else {
			st.sumIsInt[i] = false
		}
	case "MIN":
		if st.minmax[i].IsNull() || datum.Compare(v, st.minmax[i]) < 0 {
			st.minmax[i] = v
		}
	case "MAX":
		if st.minmax[i].IsNull() || datum.Compare(v, st.minmax[i]) > 0 {
			st.minmax[i] = v
		}
	}
	return nil
}

// finalize renders the output row: group key columns then one per agg.
func (st *aggState) finalize(specs []plan.AggSpec) (datum.Row, error) {
	row := make(datum.Row, 0, len(st.groupKey)+len(specs))
	row = append(row, st.groupKey...)
	for i, sp := range specs {
		switch sp.Func {
		case "COUNT":
			row = append(row, datum.NewInt(st.count[i]))
		case "SUM":
			if st.count[i] == 0 {
				row = append(row, datum.Null)
			} else if st.sumIsInt[i] {
				row = append(row, datum.NewInt(st.sumI[i]))
			} else {
				row = append(row, datum.NewFloat(st.sumF[i]))
			}
		case "AVG":
			if st.count[i] == 0 {
				row = append(row, datum.Null)
			} else {
				row = append(row, datum.NewFloat(st.sumF[i]/float64(st.count[i])))
			}
		case "MIN", "MAX":
			row = append(row, st.minmax[i])
		default:
			return nil, fmt.Errorf("exec: unknown aggregate %s", sp.Func)
		}
	}
	return row, nil
}

type aggregateBatchIter struct {
	in          BatchIterator
	groupFns    []EvalFunc
	specs       []plan.AggSpec
	argFns      []EvalFunc // nil entries for COUNT(*)
	partitionBy []int      // group-key positions to partition on; nil = all
	degree      int
	size        int
	stats       *ExecStats

	done bool
	out  *sliceBatchIter
}

func (a *aggregateBatchIter) run() error {
	var rows []datum.Row
	var err error
	if a.degree > 1 {
		rows, err = a.runParallel()
	} else {
		rows, err = a.runSequential()
	}
	if err != nil {
		return err
	}
	a.out = newSliceBatchIter(rows, a.size)
	return nil
}

func (a *aggregateBatchIter) runSequential() ([]datum.Row, error) {
	groups := make(map[uint64][]*aggState)
	var order []*aggState
	idx := 0
	for {
		b, err := a.in.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		for _, r := range b {
			key, err := evalKeyAllowNull(a.groupFns, r)
			if err != nil {
				return nil, err
			}
			h := hashKey(key)
			var st *aggState
			for _, cand := range groups[h] {
				if datum.RowsEqual(cand.groupKey, key) {
					st = cand
					break
				}
			}
			if st == nil {
				st = newAggState(key, a.specs, idx)
				groups[h] = append(groups[h], st)
				order = append(order, st)
			}
			for i, sp := range a.specs {
				var v datum.Datum
				if !sp.Star {
					if v, err = a.argFns[i](r); err != nil {
						return nil, err
					}
				}
				if err := st.add(i, sp, v); err != nil {
					return nil, err
				}
			}
			idx++
		}
	}
	// No groups and no input: one row of default aggregate values.
	if len(order) == 0 && len(a.groupFns) == 0 {
		order = append(order, newAggState(datum.Row{}, a.specs, 0))
	}
	return finalizeAggStates(order, a.specs)
}

func finalizeAggStates(order []*aggState, specs []plan.AggSpec) ([]datum.Row, error) {
	out := make([]datum.Row, 0, len(order))
	for _, st := range order {
		row, err := st.finalize(specs)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// evalKeyAllowNull evaluates grouping keys; NULLs are legal group values.
func evalKeyAllowNull(fns []EvalFunc, r datum.Row) (datum.Row, error) {
	key := make(datum.Row, len(fns))
	for i, f := range fns {
		v, err := f(r)
		if err != nil {
			return nil, err
		}
		key[i] = v
	}
	return key, nil
}

func (a *aggregateBatchIter) NextBatch() (Batch, error) {
	if !a.done {
		if err := a.run(); err != nil {
			return nil, err
		}
		a.done = true
	}
	return a.out.NextBatch()
}

func (a *aggregateBatchIter) Close() { a.in.Close() }

// --- Sort ---

type sortBatchIter struct {
	in   BatchIterator
	keys []EvalFunc
	desc []bool
	size int

	done bool
	out  *sliceBatchIter
}

func (s *sortBatchIter) NextBatch() (Batch, error) {
	if !s.done {
		rows, err := drainBatches(s.in)
		if err != nil {
			return nil, err
		}
		type keyed struct {
			row datum.Row
			key datum.Row
		}
		ks := make([]keyed, len(rows))
		keyArena := make(datum.Row, len(s.keys)*len(rows))
		for i, r := range rows {
			key := keyArena[:len(s.keys):len(s.keys)]
			keyArena = keyArena[len(s.keys):]
			for j, f := range s.keys {
				if key[j], err = f(r); err != nil {
					return nil, err
				}
			}
			ks[i] = keyed{row: r, key: key}
		}
		sort.SliceStable(ks, func(i, j int) bool {
			for k := range s.keys {
				c := datum.Compare(ks[i].key[k], ks[j].key[k])
				if c == 0 {
					continue
				}
				if s.desc[k] {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		sorted := make([]datum.Row, len(ks))
		for i, k := range ks {
			sorted[i] = k.row
		}
		s.out = newSliceBatchIter(sorted, s.size)
		s.done = true
	}
	return s.out.NextBatch()
}

func (s *sortBatchIter) Close() { s.in.Close() }

// --- Limit ---

type limitBatchIter struct {
	in      BatchIterator
	count   int64 // -1 = unlimited
	offset  int64
	skipped int64
	emitted int64
}

func (l *limitBatchIter) NextBatch() (Batch, error) {
	for {
		if l.count >= 0 && l.emitted >= l.count {
			return nil, nil
		}
		b, err := l.in.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		if l.skipped < l.offset {
			drop := l.offset - l.skipped
			if drop > int64(len(b)) {
				drop = int64(len(b))
			}
			l.skipped += drop
			b = b[drop:]
		}
		if l.count >= 0 {
			if rem := l.count - l.emitted; int64(len(b)) > rem {
				b = b[:rem]
			}
		}
		if len(b) == 0 {
			continue
		}
		l.emitted += int64(len(b))
		return b, nil
	}
}

func (l *limitBatchIter) Close() { l.in.Close() }

// --- Distinct ---

type distinctBatchIter struct {
	in   BatchIterator
	seen map[uint64][]datum.Row
	out  Batch
}

func (d *distinctBatchIter) NextBatch() (Batch, error) {
	if d.seen == nil {
		d.seen = make(map[uint64][]datum.Row)
	}
	for {
		b, err := d.in.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		out := d.out[:0]
		for _, r := range b {
			h := hashKey(r)
			dup := false
			for _, prev := range d.seen[h] {
				if datum.RowsEqual(prev, r) {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			d.seen[h] = append(d.seen[h], r)
			out = append(out, r)
		}
		//lint:ignore batchretain out is this operator's own scratch container (built in d.out[:0])
		d.out = out
		if len(out) > 0 {
			return out, nil
		}
	}
}

func (d *distinctBatchIter) Close() { d.in.Close() }

// --- Union ---

type unionBatchIter struct {
	inputs []BatchIterator
	pos    int
}

func (u *unionBatchIter) NextBatch() (Batch, error) {
	for u.pos < len(u.inputs) {
		b, err := u.inputs[u.pos].NextBatch()
		if err != nil {
			return nil, err
		}
		if b != nil {
			return b, nil
		}
		u.pos++
	}
	return nil, nil
}

func (u *unionBatchIter) Close() {
	for _, in := range u.inputs {
		in.Close()
	}
}

// --- Async prefetch (inter-source parallelism) ---

type prefetchResult struct {
	rows []datum.Row
	err  error
}

// prefetchBatchIter runs a fetch in a background goroutine and buffers
// its rows, giving inter-source parallelism for federated fan-out queries:
// the fetch is kicked off immediately, the rows are served batch-windowed
// once ready. The goroutine always runs to completion and parks its result
// in a buffered channel. A cancelled
// query context unblocks the consumer immediately; the background fetch
// observes the same context through FetchRemote/BuildBatch, finishes
// early, and parks its result in the buffered channel — never a leak.
type prefetchBatchIter struct {
	ctx   context.Context
	ch    chan prefetchResult
	size  int
	inner *sliceBatchIter
	err   error
	got   bool
}

func prefetchBatches(ctx context.Context, size int, fetch func() (BatchIterator, error)) BatchIterator {
	p := &prefetchBatchIter{ctx: ctx, ch: make(chan prefetchResult, 1), size: size}
	// The fetch may allocate from the query's scratch (remote subtrees
	// executed inside wrappers draw on it via the context). A consumer
	// that abandons this prefetch lets the goroutine outlive the query's
	// drain, so hold the scratch until the fetch parks its result —
	// PutScratch waits, keeping the next query from recycling rows this
	// goroutine still touches.
	scratch := ScratchFrom(ctx)
	scratch.Hold()
	go func() {
		defer scratch.Release()
		it, err := fetch()
		if err != nil {
			p.ch <- prefetchResult{err: err}
			return
		}
		rows, err := DrainBatches(it)
		p.ch <- prefetchResult{rows: rows, err: err}
	}()
	return p
}

func (p *prefetchBatchIter) NextBatch() (Batch, error) {
	if !p.got {
		select {
		case r := <-p.ch:
			p.inner, p.err = newSliceBatchIter(r.rows, p.size), r.err
			p.got = true
		case <-p.ctx.Done():
			return nil, p.ctx.Err()
		}
	}
	if p.err != nil {
		return nil, p.err
	}
	return p.inner.NextBatch()
}

func (p *prefetchBatchIter) Close() {}

// extractEquiKeys splits a join condition into equi-key pairs (left expr,
// right expr) and a residual predicate. leftCols/rightCols are the child
// output schemas; an equality qualifies when one side resolves entirely
// against the left child and the other against the right child.
func extractEquiKeys(cond sqlparse.Expr, leftCols, rightCols []plan.ColMeta) (leftKeys, rightKeys []sqlparse.Expr, residual sqlparse.Expr) {
	conjuncts := SplitConjuncts(cond)
	var rest []sqlparse.Expr
	for _, c := range conjuncts {
		b, ok := c.(*sqlparse.BinaryExpr)
		if !ok || b.Op != sqlparse.OpEq {
			rest = append(rest, c)
			continue
		}
		switch {
		case resolvesAgainst(b.Left, leftCols) && resolvesAgainst(b.Right, rightCols):
			leftKeys = append(leftKeys, b.Left)
			rightKeys = append(rightKeys, b.Right)
		case resolvesAgainst(b.Left, rightCols) && resolvesAgainst(b.Right, leftCols):
			leftKeys = append(leftKeys, b.Right)
			rightKeys = append(rightKeys, b.Left)
		default:
			rest = append(rest, c)
		}
	}
	return leftKeys, rightKeys, CombineConjuncts(rest)
}

// SplitConjuncts flattens a conjunction into its AND-ed terms.
func SplitConjuncts(e sqlparse.Expr) []sqlparse.Expr {
	if e == nil {
		return nil
	}
	return appendConjuncts(nil, e)
}

// appendConjuncts accumulates AND-ed terms into dst, avoiding the
// per-level slice concatenation a naive recursive split would pay.
func appendConjuncts(dst []sqlparse.Expr, e sqlparse.Expr) []sqlparse.Expr {
	if b, ok := e.(*sqlparse.BinaryExpr); ok && b.Op == sqlparse.OpAnd {
		return appendConjuncts(appendConjuncts(dst, b.Left), b.Right)
	}
	return append(dst, e)
}

// CombineConjuncts rebuilds an AND tree; nil for an empty list.
func CombineConjuncts(es []sqlparse.Expr) sqlparse.Expr {
	var out sqlparse.Expr
	for _, e := range es {
		if out == nil {
			out = e
		} else {
			out = &sqlparse.BinaryExpr{Op: sqlparse.OpAnd, Left: out, Right: e}
		}
	}
	return out
}

// resolvesAgainst reports whether every column reference in e resolves
// against cols (and e contains at least one reference or is a literal).
func resolvesAgainst(e sqlparse.Expr, cols []plan.ColMeta) bool {
	ok := true
	sqlparse.WalkExprs(e, func(x sqlparse.Expr) {
		if ref, is := x.(*sqlparse.ColumnRef); is {
			if _, found := plan.FindColumn(cols, ref); !found {
				ok = false
			}
		}
	})
	return ok
}
