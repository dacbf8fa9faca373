package exec

import (
	"sync/atomic"

	"repro/internal/datum"
)

// DefaultBatchSize is the row count per execution batch when Options does
// not override it. Large enough to amortize per-call dispatch, small
// enough to stay cache-resident.
const DefaultBatchSize = 1024

// Batch is a chunk of rows flowing between operators. A batch returned by
// NextBatch is valid only until the next NextBatch or Close call on the
// same iterator — operators reuse the container. The rows inside a batch,
// however, are immutable once emitted and may be retained indefinitely
// (materializing operators keep references instead of copying).
type Batch []datum.Row

// BatchIterator is the vectorized operator cursor. NextBatch returns
// (nil, nil) at end of stream and never returns an empty non-nil batch.
type BatchIterator interface {
	NextBatch() (Batch, error)
	Close()
}

// sliceBatchIter serves a materialized row slice in batch-sized windows
// without copying.
type sliceBatchIter struct {
	rows []datum.Row
	pos  int
	size int
}

func newSliceBatchIter(rows []datum.Row, size int) *sliceBatchIter {
	if size <= 0 {
		size = DefaultBatchSize
	}
	return &sliceBatchIter{rows: rows, size: size}
}

func (s *sliceBatchIter) NextBatch() (Batch, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	end := s.pos + s.size
	if end > len(s.rows) {
		end = len(s.rows)
	}
	b := Batch(s.rows[s.pos:end])
	s.pos = end
	return b, nil
}

func (s *sliceBatchIter) Close() {}

// batchIterAdapter pulls rows from a row iterator into a reused buffer —
// used where the Runtime hands back a row cursor (table snapshots, remote
// fetches).
type batchIterAdapter struct {
	in   Iterator
	size int
	buf  Batch
}

func (a *batchIterAdapter) NextBatch() (Batch, error) {
	if cap(a.buf) == 0 {
		a.buf = make(Batch, 0, a.size)
	}
	buf := a.buf[:0]
	for len(buf) < a.size {
		r, err := a.in.Next()
		if err != nil {
			return nil, err
		}
		if r == nil {
			break
		}
		buf = append(buf, r)
	}
	//lint:ignore batchretain buf is this adapter's own reused container, not a producer's
	a.buf = buf
	if len(buf) == 0 {
		return nil, nil
	}
	return buf, nil
}

func (a *batchIterAdapter) Close() { a.in.Close() }

// asBatchIterator adapts a row iterator to batches. Fresh slice iterators
// (the common Runtime return) are served zero-copy.
func asBatchIterator(it Iterator, size int) BatchIterator {
	if size <= 0 {
		size = DefaultBatchSize
	}
	switch x := it.(type) {
	case *sliceIter:
		if x.pos == 0 {
			x.size = size
			return x
		}
	}
	return &batchIterAdapter{in: it, size: size}
}

// DrainBatches materializes the remaining rows of a batch iterator and
// closes it.
func DrainBatches(it BatchIterator) ([]datum.Row, error) {
	defer it.Close()
	return drainBatches(it)
}

// DrainBatchesScratch is DrainBatches with the accumulation buffer grown
// from the query's scratch allocator instead of the heap. The returned
// slice dies with the scratch: callers must copy anything that outlives
// the query (the engine block-copies result rows at its boundary). A nil
// scratch falls back to heap accumulation.
func DrainBatchesScratch(it BatchIterator, s *Scratch) ([]datum.Row, error) {
	defer it.Close()
	return drainBatchesScratch(it, s)
}

// drainBatchesScratch materializes without closing, growing the
// accumulation buffer from s (heap when s is nil).
func drainBatchesScratch(it BatchIterator, s *Scratch) ([]datum.Row, error) {
	if s == nil {
		return drainBatches(it)
	}
	var out []datum.Row
	for {
		b, err := it.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		if need := len(out) + len(b); need > cap(out) {
			newCap := 2 * cap(out)
			if newCap < need {
				newCap = need
			}
			if newCap < 64 {
				newCap = 64
			}
			grown := s.MakeRows(newCap)[:len(out)]
			copy(grown, out)
			out = grown
		}
		out = append(out, b...)
	}
}

// drainBatches materializes without closing (for operators that close
// their inputs themselves).
func drainBatches(it BatchIterator) ([]datum.Row, error) {
	var out []datum.Row
	for {
		b, err := it.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		out = append(out, b...)
	}
}

// ExecStats accumulates execution-wide counters across all operators of
// one query. Safe for concurrent use by exchange workers.
type ExecStats struct {
	batches     atomic.Int64
	parallelism atomic.Int64
}

// Batches returns the total number of batches produced by all operators.
func (s *ExecStats) Batches() int64 { return s.batches.Load() }

// MaxParallelism returns the widest worker pool any operator ran with
// (1 when everything executed sequentially).
func (s *ExecStats) MaxParallelism() int {
	if p := s.parallelism.Load(); p > 1 {
		return int(p)
	}
	return 1
}

func (s *ExecStats) addBatch() { s.batches.Add(1) }

func (s *ExecStats) noteParallelism(d int) {
	for {
		cur := s.parallelism.Load()
		if int64(d) <= cur || s.parallelism.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}
