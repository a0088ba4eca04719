package main

// The load generator: closed-loop and open-loop HTTP clients over at
// most a workload's connection count, recording one sample per request
// and keeping one copy of every distinct answer body for the checks.

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// reqHeader carries the request id from client to handler in the
// traced run, so the spans of one request share it.
const reqHeader = "X-Hexperf-Req"

// classes enumerates every request class; samples store the index.
var classes = append(append(append([]string{}, lubmTemplates...), bartonClasses...), "insert", "delete", "probe")

func classIndex(name string) uint8 {
	for i, c := range classes {
		if c == name {
			return uint8(i)
		}
	}
	panic("hexperf: unknown class " + name)
}

// sample is the record of one request.
type sample struct {
	start int64 // ns since the phase began (the due time in an open loop)
	lat   int64 // ns from start to the last byte of the answer
	late  int64 // ns the open-loop generator sent after the due time
	bytes int64
	hash  uint64
	pool  int32
	class uint8
	ok    bool // 200 and, where checked inline, a correct answer
}

type bodyKey struct {
	pool int32
	hash uint64
}

// probeRecord keeps a probe's answer for the checks.
type probeRecord struct {
	r    request
	body []byte
	idx  int // index into phase.samples
}

// phase is the outcome of one load phase.
type phase struct {
	samples []sample
	wall    time.Duration
	bodies  map[bodyKey][]byte
	probes  []probeRecord
	errs    []string
	rows    map[bodyKey]int
	// canon and probeCanon hash the canonical answers (set by verify),
	// for comparing two runs request by request.
	canon      map[bodyKey]uint64
	probeCanon map[int]uint64
}

// target is a hexserver reachable over loopback.
type target struct {
	base   string
	client *http.Client
	tr     *tracer // nil when untraced
	nextID atomic.Uint32
}

func newTarget(addr string, conns int) *target {
	return &target{
		base: "http://" + addr,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		}},
	}
}

func (t *target) close() { t.client.CloseIdleConnections() }

var hashSeed = maphash.MakeSeed()

// worker is one connection's client loop state.
type worker struct {
	t      *target
	buf    bytes.Buffer
	out    []sample
	bodies map[bodyKey][]byte
	probes []probeRecord
	errs   []string
}

// do sends one request and records its sample; start is the time the
// request counts from (its due time in an open loop).
func (w *worker) do(ctx context.Context, r request, origin, start time.Time) {
	var (
		req *http.Request
		err error
	)
	if r.update() {
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, w.t.base+"/sparql", strings.NewReader(r.text))
		if err == nil {
			req.Header.Set("Content-Type", "application/sparql-update")
		}
	} else {
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, w.t.base+r.path, nil)
	}
	if err != nil {
		w.errs = append(w.errs, err.Error())
		return
	}
	var id uint32
	if w.t.tr != nil {
		id = w.t.nextID.Add(1)
		req.Header.Set(reqHeader, strconv.FormatUint(uint64(id), 10))
	}
	sent := time.Now()
	s := sample{start: start.Sub(origin).Nanoseconds(), late: sent.Sub(start).Nanoseconds(),
		pool: int32(r.pool), class: classIndex(r.class)}
	resp, err := w.t.client.Do(req)
	w.buf.Reset()
	status := 0
	if err == nil {
		status = resp.StatusCode
		_, err = w.buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	s.lat = end.Sub(start).Nanoseconds()
	if w.t.tr != nil {
		w.t.tr.record(spanClient, id, 0, sent, end)
	}
	body := w.buf.Bytes()
	s.bytes = int64(len(body))
	s.hash = maphash.Bytes(hashSeed, body)
	s.ok = err == nil && status == http.StatusOK
	switch {
	case err != nil:
		if ctx.Err() != nil {
			return // the phase ended mid-request; not a sample
		}
		w.errs = append(w.errs, fmt.Sprintf("%s: %v", r.class, err))
	case status != http.StatusOK:
		w.errs = append(w.errs, fmt.Sprintf("%s: HTTP %d: %.200s", r.class, status, body))
	case r.update():
		if cerr := checkUpdate(r, body); cerr != nil {
			s.ok = false
			w.errs = append(w.errs, cerr.Error())
		}
	case r.pool < 0:
		w.probes = append(w.probes, probeRecord{r: r, body: append([]byte(nil), body...), idx: len(w.out)})
	default:
		k := bodyKey{s.pool, s.hash}
		if _, seen := w.bodies[k]; !seen {
			w.bodies[k] = append([]byte(nil), body...)
		}
	}
	w.out = append(w.out, s)
}

// runSequential sends n requests from g over one connection.
func runSequential(t *target, g generator, n int) *phase {
	w := &worker{t: t, bodies: map[bodyKey][]byte{}}
	origin := time.Now()
	for i := 0; i < n; i++ {
		w.do(context.Background(), g.next(), origin, time.Now())
	}
	return mergeWorkers([]*worker{w}, time.Since(origin))
}

// runLoad drives the generators (one per connection) for dur: a closed
// loop when rate is 0, else an open loop in which connection c sends
// its k-th request at (k*len(gens)+c)/rate seconds. A request is timed
// from its due time, so a stall also charges the requests queued
// behind it.
func runLoad(t *target, gens []generator, rate float64, dur time.Duration) *phase {
	ctx, cancel := context.WithTimeout(context.Background(), dur+30*time.Second)
	defer cancel()
	ws := make([]*worker, len(gens))
	var wg sync.WaitGroup
	origin := time.Now()
	deadline := origin.Add(dur)
	for c := range gens {
		ws[c] = &worker{t: t, bodies: map[bodyKey][]byte{}}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w, g := ws[c], gens[c]
			for k := 0; ; k++ {
				start := time.Now()
				if rate > 0 {
					due := origin.Add(time.Duration(float64(k*len(gens)+c) / rate * float64(time.Second)))
					if !due.Before(deadline) {
						return
					}
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
					start = due
				} else if !start.Before(deadline) {
					return
				}
				w.do(ctx, g.next(), origin, start)
			}
		}(c)
	}
	wg.Wait()
	return mergeWorkers(ws, time.Since(origin))
}

func mergeWorkers(ws []*worker, wall time.Duration) *phase {
	p := &phase{wall: wall, bodies: map[bodyKey][]byte{}, rows: map[bodyKey]int{},
		canon: map[bodyKey]uint64{}, probeCanon: map[int]uint64{}}
	for _, w := range ws {
		base := len(p.samples)
		p.samples = append(p.samples, w.out...)
		for k, b := range w.bodies {
			if _, ok := p.bodies[k]; !ok {
				p.bodies[k] = b
			}
		}
		for _, pr := range w.probes {
			pr.idx += base
			p.probes = append(p.probes, pr)
		}
		p.errs = append(p.errs, w.errs...)
	}
	return p
}

// verify checks every answer of the phase against the oracle and the
// probe expectations, marking failed samples. It fills p.rows with the
// row count of every distinct answer.
func (p *phase) verify(o *oracle, sc scale) {
	bad := map[bodyKey]bool{}
	for k, body := range p.bodies {
		rows, c, err := checkPooled(o, int(k.pool), body)
		p.rows[k], p.canon[k] = rows, maphash.String(hashSeed, c)
		if err != nil {
			bad[k] = true
			p.errs = append(p.errs, err.Error())
		}
	}
	for _, pr := range p.probes {
		c, err := checkProbe(sc, pr.r, pr.body)
		p.probeCanon[pr.idx] = maphash.String(hashSeed, c)
		if err != nil {
			p.errs = append(p.errs, err.Error())
			p.samples[pr.idx].ok = false
		}
	}
	for i := range p.samples {
		s := &p.samples[i]
		if s.ok && s.pool >= 0 && bad[bodyKey{s.pool, s.hash}] {
			s.ok = false
		}
	}
}

// answerKeys returns, per sample, a hash of its canonical answer (0
// for failed samples, 1 for acknowledged writes).
func (p *phase) answerKeys() []uint64 {
	out := make([]uint64, len(p.samples))
	for i, s := range p.samples {
		switch {
		case !s.ok:
		case isUpdateClass(s.class):
			out[i] = 1
		case s.pool < 0:
			out[i] = p.probeCanon[i]
		default:
			out[i] = p.canon[bodyKey{s.pool, s.hash}]
		}
	}
	return out
}

// failed counts failed samples.
func (p *phase) failed() int {
	n := 0
	for _, s := range p.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// latencies returns the latencies in ms of the samples of the given
// classes (all when none), failures as +Inf, sorted.
func (p *phase) latencies(cls ...string) []float64 {
	want := map[uint8]bool{}
	for _, c := range cls {
		want[classIndex(c)] = true
	}
	var out []float64
	for _, s := range p.samples {
		if len(want) > 0 && !want[s.class] {
			continue
		}
		v := float64(s.lat) / 1e6
		if !s.ok {
			v = math.Inf(1)
		}
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile of sorted values (nearest rank), 0
// when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// split cuts the phase into n windows of dur/n by request start time.
func (p *phase) split(n int, dur time.Duration) []*phase {
	out := make([]*phase, n)
	width := dur / time.Duration(n)
	for i := range out {
		out[i] = &phase{wall: width}
	}
	for _, s := range p.samples {
		i := int(time.Duration(s.start) / width)
		if i >= n {
			i = n - 1
		}
		out[i].samples = append(out[i].samples, s)
	}
	return out
}

// succeeded counts successful samples.
func (p *phase) succeeded() int { return len(p.samples) - p.failed() }

// qps is successful requests per second of the phase, over the time
// from its start to its last answer: in an open loop the rate answers
// arrived, which falls below the offered rate only when a backlog
// grows.
func (p *phase) qps() float64 {
	var end int64
	for _, s := range p.samples {
		end = max(end, s.start+s.lat)
	}
	return ratio(float64(p.succeeded()), time.Duration(max(end, int64(p.wall))).Seconds())
}

// windowQPS is the successful requests of a window (see split) per
// second, from the first one's start to the last answer. In an open
// loop the window holds the requests due in it, so a backlog shows in
// their latency more than here.
func (p *phase) windowQPS() float64 {
	if len(p.samples) == 0 {
		return 0
	}
	first, end := p.samples[0].start, int64(0)
	for _, s := range p.samples {
		first = min(first, s.start)
		end = max(end, s.start+s.lat)
	}
	return ratio(float64(p.succeeded()), time.Duration(end-first).Seconds())
}

// meanSentLatencyMs is the mean latency of successful samples counted
// from the moment the request was sent (not from its due time).
func (p *phase) meanSentLatencyMs() float64 {
	var sum float64
	n := 0
	for _, s := range p.samples {
		if s.ok {
			sum += float64(s.lat-s.late) / 1e6
			n++
		}
	}
	return ratio(sum, float64(n))
}

// queries counts the query (non-update) samples.
func (p *phase) queries() int {
	n := 0
	for _, s := range p.samples {
		if !isUpdateClass(s.class) {
			n++
		}
	}
	return n
}

// meanQueryBytes is the mean answer size of successful queries.
func (p *phase) meanQueryBytes() float64 {
	var sum float64
	n := 0
	for _, s := range p.samples {
		if s.ok && !isUpdateClass(s.class) {
			sum += float64(s.bytes)
			n++
		}
	}
	return ratio(sum, float64(n))
}

// meanRows is the mean row count of successful pooled queries (an ASK
// answer has none).
func (p *phase) meanRows() float64 {
	var sum float64
	n := 0
	for _, s := range p.samples {
		if s.ok && s.pool >= 0 {
			sum += float64(p.rows[bodyKey{s.pool, s.hash}])
			n++
		}
	}
	return ratio(sum, float64(n))
}

// lateP99Ms is the 99th percentile of how late the open-loop generator
// sent requests.
func (p *phase) lateP99Ms() float64 {
	late := make([]float64, len(p.samples))
	for i, s := range p.samples {
		late[i] = float64(s.late) / 1e6
	}
	sort.Float64s(late)
	return quantile(late, 0.99)
}

// repeatShare is the share of the load's pooled queries whose text was
// already sent earlier in the run, warm-up included.
func repeatShare(warm, load *phase) float64 {
	seen := map[int32]bool{}
	for _, s := range warm.samples {
		seen[s.pool] = true
	}
	order := make([]sample, 0, len(load.samples))
	for _, s := range load.samples {
		if s.pool >= 0 {
			order = append(order, s)
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].start < order[j].start })
	repeats := 0
	for _, s := range order {
		if seen[s.pool] {
			repeats++
		}
		seen[s.pool] = true
	}
	return ratio(float64(repeats), float64(len(order)))
}

func isUpdateClass(c uint8) bool { return classes[c] == "insert" || classes[c] == "delete" }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
