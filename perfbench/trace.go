package main

// Tracing from outside the program. Spans are recorded only by the
// benchmark's own wrappers: the op span by the load generator, the httpapi
// span by a wrapper around the http.Handler, fetch spans by a wrapper
// around each federation.Source, and write spans around Updatable.Insert.
// An op's ID rides the context.Context (and, over HTTP, a request header)
// so a fetch span can name the op that caused it.

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datum"
	"repro/internal/federation"
	"repro/internal/plan"
)

// opHeader carries the op ID from the load generator to the handler
// wrapper, which copies it into the request context.
const opHeader = "X-Perfbench-Op"

type opKey struct{}

func withOp(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, opKey{}, id)
}

func opFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(opKey{}).(uint64)
	return id
}

// span is one timed interval at a layer boundary. Start and End are
// offsets from the tracer's epoch.
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Source string        `json:"source,omitempty"`
	Start  time.Duration `json:"start"`
	End    time.Duration `json:"end"`
	Rows   int           `json:"rows,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() uint64 { return t.next.Add(1) }

func (t *tracer) since(at time.Time) time.Duration { return at.Sub(t.epoch) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the recorded spans and starts a fresh list.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// writeSpans writes spans as JSON lines under dir.
func writeSpans(dir, name string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// tracedSource wraps a federation.Source: Name, Catalog, Capabilities and
// Link pass through unchanged; every fetch is timed as a span whose parent
// is the op ID found in the fetch's context.
type tracedSource struct {
	federation.Source
	tr *tracer
}

func (s *tracedSource) Execute(subtree plan.Node) ([]datum.Row, error) {
	return s.ExecuteCtx(context.Background(), subtree)
}

func (s *tracedSource) ExecuteCtx(ctx context.Context, subtree plan.Node) ([]datum.Row, error) {
	start := time.Now()
	rows, err := federation.ExecuteWithContext(ctx, s.Source, subtree)
	end := time.Now()
	s.tr.add(span{ID: s.tr.newID(), Parent: opFrom(ctx), Name: "fetch", Source: s.Name(),
		Start: s.tr.since(start), End: s.tr.since(end), Rows: len(rows)})
	return rows, err
}

var _ federation.ContextSource = (*tracedSource)(nil)

// tracedHandler wraps the httpapi handler: it times ServeHTTP as the
// "httpapi" span and copies the op ID header into the request context.
type tracedHandler struct {
	inner http.Handler
	tr    *tracer
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	op, _ := strconv.ParseUint(r.Header.Get(opHeader), 10, 64)
	h.inner.ServeHTTP(w, r.WithContext(withOp(r.Context(), op)))
	end := time.Now()
	h.tr.add(span{ID: h.tr.newID(), Parent: op, Name: "httpapi",
		Start: h.tr.since(start), End: h.tr.since(end)})
}

// interval is a half-open [lo, hi) time range.
type interval struct{ lo, hi time.Duration }

// unionLen is the total length covered by the intervals: overlapping
// fetches (parallel prefetch) count once.
func unionLen(iv []interval) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	s := append([]interval(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var total time.Duration
	cur := s[0]
	for _, x := range s[1:] {
		if x.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = x
			continue
		}
		if x.hi > cur.hi {
			cur.hi = x.hi
		}
	}
	return total + cur.hi - cur.lo
}

// coveredLen is the part of the parent interval its children cover:
// children are clipped to the parent and overlapping children count
// once. A layer's self time is its duration minus this.
func coveredLen(parent interval, kids []interval) time.Duration {
	clipped := make([]interval, 0, len(kids))
	for _, k := range kids {
		if k.lo < parent.lo {
			k.lo = parent.lo
		}
		if k.hi > parent.hi {
			k.hi = parent.hi
		}
		if k.hi > k.lo {
			clipped = append(clipped, k)
		}
	}
	return unionLen(clipped)
}

// opTrace gathers the spans one op caused.
type opTrace struct {
	op      *span
	handler *span
	fetches []span
}

// groupByOp indexes op, httpapi and fetch spans by their op.
func groupByOp(spans []span) map[uint64]*opTrace {
	out := make(map[uint64]*opTrace)
	get := func(id uint64) *opTrace {
		ot := out[id]
		if ot == nil {
			ot = &opTrace{}
			out[id] = ot
		}
		return ot
	}
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "op":
			get(s.ID).op = s
		case "httpapi":
			get(s.Parent).handler = s
		case "fetch":
			ot := get(s.Parent)
			ot.fetches = append(ot.fetches, *s)
		}
	}
	return out
}
