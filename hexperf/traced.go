package main

// The traced run: the same stack hosted inside hexperf, with spans
// around the calls into each layer, driven by the same warm-up and load
// as the untraced run. Its warm-up must give the same answers and the
// same plan- and result-cache hit and miss counts as the untraced
// warm-up of the same seed; any difference is reported as an error.

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hexastore/internal/pagefile"
)

type tracedRun struct {
	warm, load *phase
	off        *phase // the load phase with tracing off
	setup      []span
	spans      []span
	dropped    int64
	indexBPT   float64
	expansion  float64
	pages      pagefile.Stats // delta over the load, disk store only
	warmCache  cacheCounts    // the warm-up's cache counts
}

func runTraced(o options, w *workload, dir, ntPath string, pool []pooledQuery, dur time.Duration, rep *report) (*tracedRun, error) {
	releaseMemory()
	tdir := filepath.Join(dir, "traced")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return nil, err
	}
	tr := newTracer()
	st, err := buildStack(w, tr, ntPath, tdir)
	if err != nil {
		return nil, fmt.Errorf("traced stack: %w", err)
	}
	defer st.stop()
	logf("traced stack ready")
	res := &tracedRun{}
	res.setup, _ = tr.take()
	res.indexBPT, res.expansion = st.indexStats()

	t := newTarget(st.addr, w.clients)
	t.tr = tr
	defer t.close()
	tr.on.Store(true)
	s0, err := getStats(t.client, t.base)
	if err != nil {
		return nil, err
	}
	res.warm = runSequential(t, w.newGenerator(o.sc, o.seed, pool, -1), w.warmup)
	s1, err := getStats(t.client, t.base)
	if err != nil {
		return nil, err
	}
	tr.take() // warm-up spans are not part of the figures

	// The same stack with tracing off, then on, for half the run each,
	// continuing one request stream: their qps ratio is the tracing
	// overhead, free of the difference between a subprocess and an
	// in-process server.
	half := dur / 2
	gens := make([]generator, w.clients)
	for c := range gens {
		gens[c] = w.newGenerator(o.sc, o.seed, pool, c)
	}
	tr.on.Store(false)
	res.off = runLoad(t, gens, w.rate, half)
	var fs0 pagefile.Stats
	if st.disk != nil {
		fs0 = st.disk.FileStats()
	}
	tr.on.Store(true)
	res.load = runLoad(t, gens, w.rate, half)
	tr.on.Store(false)
	if st.disk != nil {
		fs1 := st.disk.FileStats()
		res.pages = pagefile.Stats{Hits: fs1.Hits - fs0.Hits, Misses: fs1.Misses - fs0.Misses, Evictions: fs1.Evictions - fs0.Evictions}
	}
	res.spans, res.dropped = tr.take()
	rep.prov["traced_spans"] = len(res.spans)
	rep.prov["traced_spans_dropped"] = res.dropped
	if err := os.MkdirAll(filepath.Join(o.out, "spans"), 0o755); err != nil {
		return nil, err
	}
	spanPath := filepath.Join(o.out, "spans", fmt.Sprintf("%s-seed%d.tsv", w.name, o.seed))
	if err := writeSpans(spanPath, append(append([]span(nil), res.setup...), res.spans...), 200000); err != nil {
		return nil, err
	}
	rep.prov["spans_file"] = spanPath

	res.warmCache = cacheDelta(s0, s1)
	return res, nil
}

// cacheCounts are the plan- and result-cache hits and misses of a
// phase.
type cacheCounts struct{ planHits, planMisses, resultHits, resultMisses int64 }

func cacheDelta(a, b *statsDoc) cacheCounts {
	return cacheCounts{
		planHits:     b.Cache.PlanCacheHits - a.Cache.PlanCacheHits,
		planMisses:   b.Cache.PlanCacheMisses - a.Cache.PlanCacheMisses,
		resultHits:   b.Cache.ResultCacheHits - a.Cache.ResultCacheHits,
		resultMisses: b.Cache.ResultCacheMisses - a.Cache.ResultCacheMisses,
	}
}

// fidelity compares the untraced and traced warm-ups request by
// request, and their cache counts.
func fidelity(u, t *phase, uc, tc cacheCounts) []string {
	var errs []string
	uk, tk := u.answerKeys(), t.answerKeys()
	if len(uk) != len(tk) {
		return []string{fmt.Sprintf("fidelity: %d untraced vs %d traced warm-up requests", len(uk), len(tk))}
	}
	for i := range uk {
		if uk[i] != tk[i] || u.samples[i].class != t.samples[i].class {
			errs = append(errs, fmt.Sprintf("fidelity: warm-up request %d (%s) answered differently when traced",
				i, classes[u.samples[i].class]))
		}
	}
	if uc != tc {
		errs = append(errs, fmt.Sprintf("fidelity: warm-up cache counts differ: untraced %+v, traced %+v", uc, tc))
	}
	return errs
}
