// Command hexperf is the repository's end-to-end benchmark: it
// generates seeded LUBM or Barton data, starts hexserver on loopback,
// drives it over HTTP, checks every answer, and prints end-to-end
// metrics (untraced run) or per-layer metrics (traced run).
//
// Usage (normally through run.sh, which builds both binaries):
//
//	hexperf -server path/to/hexserver -out dir --workload lubm_hot --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": n, "failed": 0, "metrics": {"qps": {"value": v, "unit": "1/s"}, ...}}
//
// See NOTES.md for the workloads, the metrics and known open failures.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"hexastore/internal/rdf"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
	server   string
	sc       scale
}

// setupStarts is how many times an untraced run starts the server; the
// median start time is setup_s and the last start serves the load.
const setupStarts = 3

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", `workload name, or "all" for every workload untraced then traced`)
	flag.Int64Var(&o.seed, "seed", 1, "seed of the data and the request streams")
	flag.IntVar(&o.seconds, "seconds", 15, "length of each timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for data, logs, spans and results")
	flag.StringVar(&o.server, "server", "", "hexserver binary")
	flag.Parse()
	o.trace = trace == 1
	o.sc = fullScale
	runs := []options{o}
	if o.workload == "all" {
		runs = nil
		for _, w := range workloads {
			for _, tr := range []bool{false, true} {
				r := o
				r.workload, r.trace = w.name, tr
				runs = append(runs, r)
			}
		}
	}
	for _, r := range runs {
		rep, err := run(r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hexperf: %s: %v\n", r.workload, err)
			os.Exit(1)
		}
		fmt.Printf("workload %s trace %v\n", r.workload, r.trace)
		rep.print(os.Stdout)
	}
}

// report is one run's outcome.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metricValue
	prov      map[string]any
	errs      []string
}

type metricValue struct {
	def   metricDef
	value float64
}

func (r *report) print(f *os.File) {
	w := bufio.NewWriter(f)
	defer w.Flush()
	prov, _ := json.Marshal(r.prov)
	fmt.Fprintf(w, "provenance %s\n", prov)
	for i, e := range r.errs {
		if i == 20 {
			fmt.Fprintf(w, "error ... %d more\n", len(r.errs)-20)
			break
		}
		fmt.Fprintf(w, "error %s\n", e)
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]mv{}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "metric %-34s %14.6g %s\n", m.def.name, m.value, m.def.unit)
		ms[m.def.name] = mv{m.value, m.def.unit}
	}
	last, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	fmt.Fprintf(w, "%s\n", last)
}

// run executes one benchmark run.
func run(o options) (*report, error) {
	w := workloadByName(o.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if _, err := os.Stat(o.server); err != nil {
		return nil, fmt.Errorf("hexserver binary: %w", err)
	}
	if o.seconds < 1 {
		return nil, errors.New("-seconds must be at least 1")
	}
	dur := time.Duration(o.seconds) * time.Second
	dir := filepath.Join(o.out, "runs", fmt.Sprintf("%s-%d-%d", w.name, o.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Inputs: the data file the server loads and the query pool. Data
	// generation is hexperf's own cost, outside every metric. The
	// answer oracle is built only after the timed phases, so hexperf's
	// heap (and its collector's work) stays small while the server is
	// measured.
	triples := w.generate(o.sc, o.seed)
	ntPath := filepath.Join(dir, "data.nt")
	if err := writeNTriples(ntPath, triples); err != nil {
		return nil, err
	}
	pool := w.pool(o.sc, o.seed)
	nTriples := len(triples)
	logf("%s: generated %d triples", w.name, nTriples)
	triples = nil
	releaseMemory()

	rep := &report{prov: map[string]any{
		"workload": w.name, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "go": runtime.Version(),
		"generated_triples": nTriples, "clients": w.clients, "warmup_requests": w.warmup,
		"offered_rate": w.rate, "pool_queries": len(pool),
	}}
	u, err := runUntraced(o, w, dir, ntPath, nTriples, pool, dur, rep)
	if err != nil {
		return nil, err
	}
	var t *tracedRun
	if o.trace {
		t, err = runTraced(o, w, dir, ntPath, pool, dur, rep)
		if err != nil {
			return nil, err
		}
	}

	orc := newOracle(w.generate(o.sc, o.seed), pool)
	phases := []*phase{u.warm, u.load}
	if t != nil {
		phases = append(phases, t.warm, t.off, t.load)
	}
	for _, p := range phases {
		p.verify(orc, o.sc)
	}
	logf("answers checked")
	if t != nil {
		rep.errs = append(rep.errs, fidelity(u.warm, t.warm, cacheDelta(u.statsWarm0, u.statsLoad0), t.warmCache)...)
	}
	if o.trace {
		rep.metrics = perLayerMetrics(w, u, t)
	} else {
		rep.metrics = endToEndMetrics(w, u, dur)
	}
	for _, p := range phases {
		rep.attempted += len(p.samples)
		rep.failed += p.failed()
		rep.errs = append(rep.errs, p.errs...)
	}
	rep.correct = rep.failed == 0 && len(rep.errs) == 0 && rep.attempted > 0
	if err := saveResult(o, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// untracedRun holds what the untraced run measured.
type untracedRun struct {
	setups       []float64
	warm, load   *phase
	statsWarm0   *statsDoc
	statsLoad0   *statsDoc
	statsEnd     *statsDoc
	metricsLoad0 promSample
	metricsEnd   promSample
	// peakRSS is each start's VmHWM at the end of its life: after the
	// warm-up for the extra starts, after the timed load for the last.
	peakRSS []float64
	// windowSteal is the stolen share of CPU time in each window of
	// the timed load.
	windowSteal []float64
}

// warmOnly sends an extra start the workload's warm-up, unchecked.
func warmOnly(p *serverProc, w *workload, o options, pool []pooledQuery) error {
	t := newTarget(p.addr, 1)
	defer t.close()
	ph := runSequential(t, w.newGenerator(o.sc, o.seed, pool, -1), w.warmup)
	if n := ph.failed(); n > 0 {
		return fmt.Errorf("warm-up of an extra server start: %d of %d requests failed: %v", n, len(ph.samples), ph.errs)
	}
	return nil
}

// runUntraced starts hexserver setupStarts times (once in a traced run),
// then drives the last instance: a sequential warm-up and the timed
// load, with /stats and /metrics read around the load.
func runUntraced(o options, w *workload, dir, ntPath string, nTriples int, pool []pooledQuery, dur time.Duration, rep *report) (*untracedRun, error) {
	n := setupStarts
	if o.trace {
		n = 1
	}
	u := &untracedRun{}
	var srv *serverProc
	for i := 0; i < n; i++ {
		sdir := filepath.Join(dir, fmt.Sprintf("server%d", i))
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			return nil, err
		}
		args := append([]string{"-load", ntPath}, w.serverFlags(sdir, estimatePages(nTriples))...)
		p, err := startServer(o.server, filepath.Join(dir, fmt.Sprintf("server%d.log", i)), args)
		if err != nil {
			return nil, err
		}
		u.setups = append(u.setups, p.setup.Seconds())
		logf("hexserver ready in %.3fs", p.setup.Seconds())
		if i < n-1 {
			// An extra start serves the warm-up too, so its peak RSS
			// covers loading and serving like the last start's.
			err := warmOnly(p, w, o, pool)
			if err == nil {
				var rss float64
				rss, err = p.peakRSSMB()
				u.peakRSS = append(u.peakRSS, rss)
			}
			p.kill()
			os.RemoveAll(sdir)
			if err != nil {
				return nil, err
			}
			continue
		}
		srv = p
		rep.prov["server_flags"] = strings.Join(p.args, " ")
		if w.name == "lubm_disk" {
			if fi, err := os.Stat(filepath.Join(sdir, "store", "store.db")); err == nil {
				rep.prov["store_pages"] = fi.Size() / 4096
			}
			rep.prov["pool_pages"] = diskPool(estimatePages(nTriples))
		}
	}
	defer srv.kill()

	t := newTarget(srv.addr, w.clients)
	defer t.close()
	var err error
	if u.statsWarm0, err = getStats(t.client, t.base); err != nil {
		return nil, err
	}
	u.warm = runSequential(t, w.newGenerator(o.sc, o.seed, pool, -1), w.warmup)
	if u.statsLoad0, err = getStats(t.client, t.base); err != nil {
		return nil, err
	}
	if u.metricsLoad0, err = getMetrics(t.client, t.base); err != nil {
		return nil, err
	}
	gens := make([]generator, w.clients)
	for c := range gens {
		gens[c] = w.newGenerator(o.sc, o.seed, pool, c)
	}
	logf("warm-up done: %d requests", len(u.warm.samples))
	tot0, steal0 := cpuTicks()
	windowSteal := make(chan []float64, 1)
	go func() { windowSteal <- stealByWindow(w.windows, dur) }()
	u.load = runLoad(t, gens, w.rate, dur)
	u.windowSteal = <-windowSteal
	tot1, steal1 := cpuTicks()
	rep.prov["steal_share"] = ratio(steal1-steal0, tot1-tot0)
	logf("load done: %d requests, steal %.3f", len(u.load.samples), ratio(steal1-steal0, tot1-tot0))
	if u.statsEnd, err = getStats(t.client, t.base); err != nil {
		return nil, err
	}
	if u.metricsEnd, err = getMetrics(t.client, t.base); err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	u.peakRSS = append(u.peakRSS, rss)
	rep.prov["setup_starts_s"] = u.setups
	rep.prov["peak_rss_starts_mb"] = u.peakRSS

	rep.prov["server_triples"] = u.statsWarm0.Triples
	rep.prov["timed_requests"] = len(u.load.samples)
	if w.name == "lubm_hot" {
		rep.prov["result_cache_cap_bytes"] = u.statsEnd.Cache.ResultCacheCapBytes
		rep.prov["result_cache_resident_bytes"] = u.statsEnd.Cache.ResultCacheBytes
		rep.prov["hot_set_answer_bytes"] = hotSetBytes(u.warm, u.load)
	}
	return u, nil
}

// hotSetBytes sums the answer sizes of the distinct pooled queries
// answered in the run: the bytes the result cache must hold for every
// repeat to hit (as JSON; the cache holds decoded rows).
func hotSetBytes(ps ...*phase) int64 {
	size := map[int32]int64{}
	for _, p := range ps {
		for k, b := range p.bodies {
			size[k.pool] = int64(len(b))
		}
	}
	var n int64
	for _, b := range size {
		n += b
	}
	return n
}

func writeNTriples(path string, triples []rdf.Triple) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	nw := rdf.NewWriter(bw)
	for _, t := range triples {
		if err := nw.Write(t); err != nil {
			f.Close()
			return err
		}
	}
	if err := nw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// releaseMemory returns the generator's garbage to the OS before the
// server starts, so hexperf's collector stays idle during timing.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// saveResult writes the report with its provenance under out/results.
func saveResult(o options, rep *report) error {
	dir := filepath.Join(o.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	metrics := map[string]float64{}
	for _, m := range rep.metrics {
		metrics[m.def.name] = m.value
	}
	doc, err := json.MarshalIndent(map[string]any{
		"provenance": rep.prov, "correct": rep.correct, "attempted": rep.attempted,
		"failed": rep.failed, "metrics": metrics, "errors": rep.errs,
	}, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if o.trace {
		trace = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, trace)), doc, 0o644)
}

var started = time.Now()

// logf reports progress on standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hexperf [%6.1fs] %s\n", time.Since(started).Seconds(), fmt.Sprintf(format, args...))
}

// median of values (0 when empty).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
