package main

// The traced run's instrumentation: an in-memory span log, a
// graph.Graph wrapper that records a span around every store call and
// forwards every optional capability (so the engine takes the same
// paths as without it), and an HTTP handler wrapper that opens the
// request's handler span and times sparql.Parse on its text. Spans are
// recorded from this package only, around calls into each layer's
// public functions.

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hexastore/internal/dictionary"
	"hexastore/internal/graph"
	"hexastore/internal/idlist"
	"hexastore/internal/sparql"
)

type spanKind uint8

const (
	spanClient  spanKind = iota // the client's HTTP round trip
	spanHandler                 // the server handler of /sparql
	spanParse                   // sparql.Parse of the request text
	spanStore                   // a call into the served graph
	spanShard                   // a call into one shard's overlay
	spanSetup                   // one set-up step
)

var spanKindNames = []string{"client", "handler", "sparql.Parse", "store", "shard", "setup"}

// Store operations and set-up steps, recorded in span.op.
var opNames = []string{
	"Len", "Add", "Remove", "Has", "Match", "Count", "AppendSortedList",
	"SortedPairs", "SortedListView", "ApplyTriples", "Flush",
	"query", "update",
	"rdf.parse", "dictionary.encode", "core.build", "disk.bulkload", "delta.open", "shard.New",
}

const (
	opLen uint8 = iota
	opAdd
	opRemove
	opHas
	opMatch
	opCount
	opAppendSortedList
	opSortedPairs
	opSortedListView
	opApplyTriples
	opFlush
	opQuery
	opUpdate
	opRDFParse
	opEncode
	opCoreBuild
	opDiskBulkLoad
	opDeltaOpen
	opShardNew
)

// span is one recorded interval; times are ns since the tracer began.
type span struct {
	id, parent, req uint32
	kind            spanKind
	op              uint8
	start, end      int64
}

// maxSpans bounds the span log; later spans are counted, not kept.
const maxSpans = 4 << 20

type tracer struct {
	origin  time.Time
	on      atomic.Bool
	ids     atomic.Uint32
	mu      sync.Mutex
	spans   []span
	dropped int64
	// pinning is the cell of the cluster snapshot being pinned; shard
	// snapshots taken inside that pin join its request.
	pinning atomic.Pointer[pinCell]
	pinMu   sync.Mutex
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.origin).Nanoseconds() }

func (t *tracer) add(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// record adds a span with a fresh id.
func (t *tracer) record(kind spanKind, req, parent uint32, start, end time.Time) {
	t.add(span{id: t.ids.Add(1), parent: parent, req: req, kind: kind, start: t.ns(start), end: t.ns(end)})
}

// setup records a set-up step that began at start and just ended.
func (t *tracer) setup(op uint8, start time.Time) {
	t.add(span{id: t.ids.Add(1), kind: spanSetup, op: op, start: t.ns(start), end: t.ns(time.Now())})
}

// take returns the recorded spans and clears the log.
func (t *tracer) take() ([]span, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, d := t.spans, t.dropped
	t.spans, t.dropped = nil, 0
	return s, d
}

// writeSpans writes up to limit spans as tab-separated lines.
func writeSpans(path string, spans []span, limit int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id\tparent\treq\tname\top\tstart_ns\tend_ns")
	for i, s := range spans {
		if i == limit {
			break
		}
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%s\t%d\t%d\n", s.id, s.parent, s.req,
			spanKindNames[s.kind], opNames[s.op], s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reqInfo rides the request context from the handler wrapper to the
// graph wrapper's WithContext.
type reqInfo struct{ req, handler uint32 }

type reqInfoKey struct{}

// wrapHandler opens a handler span around every /sparql request and
// times sparql.Parse of a query's text inside it. The parse is the
// benchmark's own, an extra parse beside the server's; its span is
// subtracted from the handler's self time.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/sparql" || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		req64, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 32)
		info := reqInfo{req: uint32(req64), handler: t.ids.Add(1)}
		start := time.Now()
		op := opUpdate
		if q := r.URL.Query().Get("query"); q != "" {
			op = opQuery
			ps := time.Now()
			_, _ = sparql.Parse(q) // timing only; the server reports errors
			t.record(spanParse, info.req, info.handler, ps, time.Now())
		}
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, info)))
		t.add(span{id: info.handler, req: info.req, kind: spanHandler, op: op, start: t.ns(start), end: t.ns(time.Now())})
	})
}

// pinCell ties the shard snapshots of one pinned cluster view to the
// request using the view and to the view's call in progress.
type pinCell struct{ req, cur atomic.Uint32 }

// tg is the store-boundary wrapper. The top-level wrapper (kind
// spanStore) learns its request from WithContext; a shard wrapper
// (kind spanShard) learns it from the pin cell of the cluster view its
// snapshot belongs to.
type tg struct {
	inner  graph.Graph
	sorted graph.SortedSource
	view   graph.ViewSource
	tr     *tracer
	kind   spanKind
	req    uint32
	parent uint32
	cell   *pinCell
}

// wrap returns a traced graph with exactly inner's Snapshotter and
// ViewSource capabilities. Every other optional capability is always
// present on the wrapper and forwards to graph's helper of the same
// name, which behaves as if the wrapper were absent.
func (t *tracer) wrap(inner graph.Graph, kind spanKind, cell *pinCell) (graph.Graph, error) {
	ss, ok := graph.AsSortedSource(inner)
	if !ok {
		return nil, fmt.Errorf("hexperf: %T has no sorted access", inner)
	}
	g := &tg{inner: inner, sorted: ss, tr: t, kind: kind, cell: cell}
	return g.rewrap(), nil
}

func (g *tg) rewrap() graph.Graph {
	vs, view := graph.AsViewSource(g.inner)
	g.view = vs
	_, snap := g.inner.(graph.Snapshotter)
	switch {
	case snap && view:
		return tgSnapView{g}
	case snap:
		return tgSnap{g}
	case view:
		return tgView{g}
	}
	return g
}

type (
	tgView     struct{ *tg }
	tgSnap     struct{ *tg }
	tgSnapView struct{ *tg }
)

func (g tgView) SortedListView(s, p, o ID) (idlist.View, bool, error) {
	return g.sortedListView(s, p, o)
}
func (g tgSnap) Snapshot() graph.Graph     { return g.snapshot() }
func (g tgSnapView) Snapshot() graph.Graph { return g.snapshot() }
func (g tgSnapView) SortedListView(s, p, o ID) (idlist.View, bool, error) {
	return g.sortedListView(s, p, o)
}

// begin opens a span of the current call; it returns a zero time when
// tracing is off.
func (g *tg) begin() (time.Time, uint32) {
	if !g.tr.on.Load() {
		return time.Time{}, 0
	}
	id := g.tr.ids.Add(1)
	if g.kind == spanStore && g.cell != nil {
		g.cell.cur.Store(id)
	}
	return time.Now(), id
}

func (g *tg) end(start time.Time, id uint32, op uint8) {
	if id == 0 {
		return
	}
	req, parent := g.req, g.parent
	if g.kind == spanShard && g.cell != nil {
		req, parent = g.cell.req.Load(), g.cell.cur.Load()
	}
	g.tr.add(span{id: id, parent: parent, req: req, kind: g.kind, op: op, start: g.tr.ns(start), end: g.tr.ns(time.Now())})
}

func (g *tg) Dictionary() *dictionary.Dictionary { return g.inner.Dictionary() }

func (g *tg) Len() int {
	t, id := g.begin()
	n := g.inner.Len()
	g.end(t, id, opLen)
	return n
}

func (g *tg) Add(s, p, o ID) (bool, error) {
	t, id := g.begin()
	ok, err := g.inner.Add(s, p, o)
	g.end(t, id, opAdd)
	return ok, err
}

func (g *tg) Remove(s, p, o ID) (bool, error) {
	t, id := g.begin()
	ok, err := g.inner.Remove(s, p, o)
	g.end(t, id, opRemove)
	return ok, err
}

func (g *tg) Has(s, p, o ID) (bool, error) {
	t, id := g.begin()
	ok, err := g.inner.Has(s, p, o)
	g.end(t, id, opHas)
	return ok, err
}

func (g *tg) Match(s, p, o ID, fn func(s, p, o ID) bool) error {
	t, id := g.begin()
	err := g.inner.Match(s, p, o, fn)
	g.end(t, id, opMatch)
	return err
}

func (g *tg) Count(s, p, o ID) (int, error) {
	t, id := g.begin()
	n, err := g.inner.Count(s, p, o)
	g.end(t, id, opCount)
	return n, err
}

func (g *tg) AppendSortedList(dst []ID, s, p, o ID) ([]ID, error) {
	t, id := g.begin()
	out, err := g.sorted.AppendSortedList(dst, s, p, o)
	g.end(t, id, opAppendSortedList)
	return out, err
}

func (g *tg) SortedPairs(s, p, o ID, fn func(a, b ID) bool) error {
	t, id := g.begin()
	err := g.sorted.SortedPairs(s, p, o, fn)
	g.end(t, id, opSortedPairs)
	return err
}

func (g *tg) sortedListView(s, p, o ID) (idlist.View, bool, error) {
	t, id := g.begin()
	v, ok, err := g.view.SortedListView(s, p, o)
	g.end(t, id, opSortedListView)
	return v, ok, err
}

// ApplyTriples implements graph.BatchUpdater through graph.ApplyTriples,
// which falls back to per-triple writes exactly as it would on inner.
func (g *tg) ApplyTriples(ops []graph.TripleOp) (int, int, error) {
	t, id := g.begin()
	ins, del, err := graph.ApplyTriples(g.inner, ops)
	g.end(t, id, opApplyTriples)
	return ins, del, err
}

// Flush implements graph.Flusher through graph.Flush (a no-op for
// graphs without buffered state).
func (g *tg) Flush() error {
	t, id := g.begin()
	err := graph.Flush(g.inner)
	g.end(t, id, opFlush)
	return err
}

// Epoch implements graph.Epocher through graph.EpochOf ("" when inner
// has no epochs, which disables result caching as it would on inner).
func (g *tg) Epoch() string { return graph.EpochOf(g.inner) }

// Unwrap exposes the concrete store behind inner, so backend-specific
// fast paths (graph.Unwrap(g).(*core.Store)) are taken as without the
// wrapper.
func (g *tg) Unwrap() any { return graph.Unwrap(g.inner) }

// WithContext implements graph.ContextAware: it binds the wrapper to
// the request in ctx and passes ctx on through graph.WithContext, which
// returns inner unchanged when inner is not context-aware.
func (g *tg) WithContext(ctx context.Context) graph.Graph {
	c := *g
	c.inner = graph.WithContext(ctx, g.inner)
	if ss, ok := graph.AsSortedSource(c.inner); ok {
		c.sorted = ss
	}
	if info, ok := ctx.Value(reqInfoKey{}).(reqInfo); ok && g.kind == spanStore {
		c.req, c.parent = info.req, info.handler
		if g.cell != nil {
			g.cell.req.Store(info.req)
		}
	}
	return c.rewrap()
}

// snapshot pins inner. A top-level pin of a cluster opens a pin cell
// that the shard snapshots taken inside it join; pins are serialized so
// each shard snapshot finds its own cell.
func (g *tg) snapshot() graph.Graph {
	var snap graph.Graph
	cell := g.cell
	if g.kind == spanShard {
		snap, cell = graph.Snapshot(g.inner), g.tr.pinning.Load()
	} else {
		cell = &pinCell{}
		g.tr.pinMu.Lock()
		g.tr.pinning.Store(cell)
		snap = graph.Snapshot(g.inner)
		g.tr.pinning.Store(nil)
		g.tr.pinMu.Unlock()
	}
	w, err := g.tr.wrap(snap, g.kind, cell)
	if err != nil {
		// wrap only fails without sorted access, which g already had.
		panic(err)
	}
	return w
}
