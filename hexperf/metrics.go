package main

// The metric tables and how each metric is computed. endToEnd and
// perLayer must list exactly the metrics of BENCHMARK.json (the
// self-test checks it); a run prints every end-to-end metric when
// untraced and every per-layer metric when traced. Per-layer metrics
// of a layer a workload does not exercise read 0.

import (
	"math"
	"sort"
	"time"
)

type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only
}

var endToEnd = []metricDef{
	{"qps", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"class_p50_geomean_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metricDef{
	{name: "latency.p90_ms", unit: "ms", better: "lower"},
	{name: "latency.p99_ms", unit: "ms", better: "lower"},
	{name: "bq1_p50_ms", unit: "ms", better: "lower"},
	{name: "bq2_p50_ms", unit: "ms", better: "lower"},
	{name: "bq3_p50_ms", unit: "ms", better: "lower"},
	{name: "bq4_p50_ms", unit: "ms", better: "lower"},
	{name: "bq5_p50_ms", unit: "ms", better: "lower"},
	{name: "bq6_p50_ms", unit: "ms", better: "lower"},
	{name: "bq7_p50_ms", unit: "ms", better: "lower"},
	{name: "write_p50_ms", unit: "ms", better: "lower"},
	{name: "write_p99_ms", unit: "ms", better: "lower"},
	{name: "server.handler_ms", unit: "ms", better: "lower"},
	{name: "server.wire_ms", unit: "ms", better: "lower"},
	{name: "server.self_ms", unit: "ms", better: "lower"},
	{name: "server.resp_kb", unit: "KiB", better: "lower"},
	{name: "govern.rejected", unit: "count", better: "lower"},
	{name: "govern.slow_queries", unit: "count", better: "lower"},
	{name: "sparql.parse_us", unit: "us", better: "lower"},
	{name: "sparql.plan_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "sparql.result_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "sparql.repeat_share", unit: "ratio", better: "higher"},
	{name: "sparql.epoch_churn", unit: "count", better: "lower"},
	{name: "sparql.rows_per_query", unit: "rows", better: "lower"},
	{name: "sparql.spill_bytes", unit: "bytes", better: "lower"},
	{name: "store.calls_per_query", unit: "count", better: "lower"},
	{name: "store.ms_per_query", unit: "ms", better: "lower"},
	{name: "store.share", unit: "ratio", better: "lower"},
	{name: "rdf.parse_s", unit: "s", better: "lower"},
	{name: "dictionary.encode_s", unit: "s", better: "lower"},
	{name: "dictionary.terms", unit: "count", better: "lower"},
	{name: "core.build_s", unit: "s", better: "lower"},
	{name: "core.index_bytes_per_triple", unit: "B", better: "lower"},
	{name: "core.expansion_factor", unit: "ratio", better: "lower"},
	{name: "disk.bulkload_s", unit: "s", better: "lower"},
	{name: "disk.bytes_per_triple", unit: "B", better: "lower"},
	{name: "pagefile.hit_ratio", unit: "ratio", better: "higher"},
	{name: "pagefile.misses_per_query", unit: "count", better: "lower"},
	{name: "pagefile.evictions_per_query", unit: "count", better: "lower"},
	{name: "delta.compactions", unit: "count", better: "lower"},
	{name: "delta.compact_s", unit: "s", better: "lower"},
	{name: "delta.apply_ms", unit: "ms", better: "lower"},
	{name: "delta.size_end", unit: "count", better: "lower"},
	{name: "wal.fsync_ms", unit: "ms", better: "lower"},
	{name: "wal.fsyncs_per_write", unit: "count", better: "lower"},
	{name: "wal.bytes_per_triple", unit: "B", better: "lower"},
	{name: "wal.records_per_commit", unit: "count", better: "higher"},
	{name: "shard.fanout", unit: "count", better: "lower"},
	{name: "shard.merge_ms_per_query", unit: "ms", better: "lower"},
	{name: "runtime.heap_mb", unit: "MB", better: "lower"},
	{name: "bench.late_ms_p99", unit: "ms", better: "lower"},
	{name: "bench.trace_overhead", unit: "ratio", better: "higher"},
}

// fill pairs defs with computed values; a def missing from vals is a
// bug, caught by the self-test.
func fill(defs []metricDef, vals map[string]float64) []metricValue {
	out := make([]metricValue, len(defs))
	for i, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			panic("hexperf: metric " + d.name + " not computed")
		}
		out[i] = metricValue{d, v}
	}
	if len(vals) != len(defs) {
		panic("hexperf: computed a metric that is not declared")
	}
	return out
}

// endToEndMetrics computes the untraced run's metrics. qps, p50_ms
// and class_p50_geomean_ms come from the quiet windows of the timed
// phase (see quietWindows). Latency percentiles count every request
// started in those windows; failed requests count as infinitely slow.
func endToEndMetrics(w *workload, u *untracedRun, dur time.Duration) []metricValue {
	var p50, qps []float64
	quiet := &phase{}
	for _, p := range quietWindows(u.load, u.windowSteal, dur) {
		p50 = append(p50, quantile(p.latencies(), 0.50))
		qps = append(qps, p.windowQPS())
		quiet.samples = append(quiet.samples, p.samples...)
	}
	return fill(endToEnd, map[string]float64{
		"qps":                  median(qps),
		"p50_ms":               median(p50),
		"class_p50_geomean_ms": classGeomean(quiet),
		"peak_rss_mb":          median(u.peakRSS),
		"setup_s":              median(u.setups),
	})
}

// quietWindows cuts the phase into len(steal) equal windows of dur and
// keeps those in which the hypervisor stole no larger a share of the
// machine's CPU time than in the median window. On a shared host the
// stolen share swings from run to run and within a run, and the
// timings follow it; a change to the program slows every window alike.
func quietWindows(p *phase, steal []float64, dur time.Duration) []*phase {
	limit := median(steal)
	var out []*phase
	for i, wp := range p.split(len(steal), dur) {
		if steal[i] <= limit {
			out = append(out, wp)
		}
	}
	return out
}

// classGeomean is the geometric mean over the request classes of the
// phase of each class's median latency: every class weighs the same
// however often it is sent, so a slower rare class still shows.
func classGeomean(p *phase) float64 {
	seen := map[uint8]bool{}
	for _, s := range p.samples {
		seen[s.class] = true
	}
	var logSum float64
	for c := range seen {
		logSum += math.Log(quantile(p.latencies(classes[c]), 0.5))
	}
	if len(seen) == 0 {
		return 0
	}
	return math.Exp(logSum / float64(len(seen)))
}

// perLayerMetrics computes the traced run's metrics: client-side (C),
// /stats (S) and /metrics (M) figures come from the untraced load, span
// (T) figures from the traced load.
func perLayerMetrics(w *workload, u *untracedRun, t *tracedRun) []metricValue {
	v := map[string]float64{}
	for _, c := range bartonClasses {
		v[c+"_p50_ms"] = quantile(u.load.latencies(c), 0.5)
	}
	v["latency.p90_ms"] = quantile(u.load.latencies(), 0.90)
	v["latency.p99_ms"] = quantile(u.load.latencies(), 0.99)
	writes := u.load.latencies("insert", "delete")
	v["write_p50_ms"] = quantile(writes, 0.5)
	v["write_p99_ms"] = quantile(writes, 0.99)

	m0, m1 := u.metricsLoad0, u.metricsEnd
	handlerMs := 1000 * ratio(m1.delta(m0, `hex_http_request_seconds_sum{endpoint="/sparql"}`),
		m1.delta(m0, `hex_http_request_seconds_count{endpoint="/sparql"}`))
	v["server.handler_ms"] = handlerMs
	v["server.wire_ms"] = u.load.meanSentLatencyMs() - handlerMs
	v["server.resp_kb"] = u.load.meanQueryBytes() / 1024

	s0, s1 := u.statsLoad0, u.statsEnd
	v["govern.rejected"] = float64(s1.Govern.Rejected - s0.Govern.Rejected)
	v["govern.slow_queries"] = float64(s1.Govern.SlowQueries - s0.Govern.SlowQueries)
	c := cacheDelta(s0, s1)
	v["sparql.plan_cache_hit_ratio"] = ratio(float64(c.planHits), float64(c.planHits+c.planMisses))
	v["sparql.result_cache_hit_ratio"] = ratio(float64(c.resultHits), float64(c.resultHits+c.resultMisses))
	v["sparql.repeat_share"] = repeatShare(u.warm, u.load)
	v["sparql.epoch_churn"] = float64(s1.Cache.EpochChurn - s0.Cache.EpochChurn)
	v["sparql.rows_per_query"] = u.load.meanRows()
	v["sparql.spill_bytes"] = m1.delta(m0, "hex_sparql_spill_bytes_total")
	v["dictionary.terms"] = float64(s1.DictionaryTerms)
	v["disk.bytes_per_triple"] = s1.DiskBytesPerTriple

	v["delta.compactions"] = m1.delta(m0, "hex_delta_compactions_total")
	v["delta.compact_s"] = ratio(m1.delta(m0, "hex_delta_compact_seconds_sum"), m1.delta(m0, "hex_delta_compact_seconds_count"))
	v["delta.size_end"] = float64(s1.deltaSize())
	acked := float64(len(writes)) - countInf(writes)
	v["wal.fsync_ms"] = 1000 * ratio(m1.delta(m0, "hex_wal_fsync_seconds_sum"), m1.delta(m0, "hex_wal_fsync_seconds_count"))
	v["wal.fsyncs_per_write"] = ratio(m1.delta(m0, "hex_wal_fsync_seconds_count"), acked)
	v["wal.bytes_per_triple"] = ratio(m1.delta(m0, "hex_wal_appended_bytes_total"), acked*studentTripleCount)
	v["wal.records_per_commit"] = ratio(m1.delta(m0, "hex_wal_commit_batch_records_sum"), m1.delta(m0, "hex_wal_commit_batch_records_count"))
	v["runtime.heap_mb"] = m1["hex_heap_bytes"] / (1 << 20)
	v["bench.late_ms_p99"] = 0
	if w.rate > 0 {
		v["bench.late_ms_p99"] = u.load.lateP99Ms()
	}
	v["bench.trace_overhead"] = ratio(t.load.qps(), t.off.qps())

	sp := analyzeSpans(t.spans)
	v["server.self_ms"] = sp.selfMs
	v["sparql.parse_us"] = sp.parseUs
	v["store.calls_per_query"] = sp.callsPerQuery
	v["store.ms_per_query"] = sp.storeMsPerQuery
	v["store.share"] = sp.storeShare
	v["delta.apply_ms"] = sp.applyMs
	v["shard.fanout"] = sp.fanout
	v["shard.merge_ms_per_query"] = sp.mergeMsPerQuery
	setup := map[uint8]float64{}
	for _, s := range t.setup {
		setup[s.op] += float64(s.end-s.start) / 1e9
	}
	v["rdf.parse_s"] = setup[opRDFParse]
	v["dictionary.encode_s"] = setup[opEncode]
	v["core.build_s"] = setup[opCoreBuild]
	v["disk.bulkload_s"] = setup[opDiskBulkLoad]
	v["core.index_bytes_per_triple"] = t.indexBPT
	v["core.expansion_factor"] = t.expansion
	queries := float64(t.load.queries())
	v["pagefile.hit_ratio"] = ratio(float64(t.pages.Hits), float64(t.pages.Hits+t.pages.Misses))
	v["pagefile.misses_per_query"] = ratio(float64(t.pages.Misses), queries)
	v["pagefile.evictions_per_query"] = ratio(float64(t.pages.Evictions), queries)
	return fill(perLayer, v)
}

func countInf(sorted []float64) float64 {
	n := 0.0
	for _, x := range sorted {
		if math.IsInf(x, 1) {
			n++
		}
	}
	return n
}

// spanFigures are the traced load's span-derived figures.
type spanFigures struct {
	selfMs, parseUs, callsPerQuery, storeMsPerQuery, storeShare float64
	applyMs, fanout, mergeMsPerQuery                            float64
}

// unionNs is the length of the union of intervals.
func unionNs(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	for i, x := range iv {
		if i == 0 || x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
			continue
		}
		if x[1] > curE {
			curE = x[1]
		}
	}
	return total + curE - curS
}

// analyzeSpans derives the per-query figures. Only /sparql queries
// count as queries; store spans outside a request (req 0) are ignored.
// A query's self time is its handler span minus hexperf's own parse
// span and the union of its store spans; a cluster call's merge time is
// its span minus the union of its per-shard spans.
func analyzeSpans(spans []span) spanFigures {
	handlers := map[uint32]span{}
	parse := map[uint32]int64{}
	store := map[uint32][][2]int64{}
	shardKids := map[uint32][][2]int64{}
	var tops []span
	var applyNs, applies int64
	for _, s := range spans {
		switch s.kind {
		case spanHandler:
			handlers[s.req] = s
		case spanParse:
			parse[s.req] += s.end - s.start
		case spanStore:
			// SPARQL updates reach the store without the request
			// context, so apply spans count whatever their request.
			if s.op == opApplyTriples {
				applyNs += s.end - s.start
				applies++
				continue
			}
			if s.req == 0 {
				continue
			}
			store[s.req] = append(store[s.req], [2]int64{s.start, s.end})
			tops = append(tops, s)
		case spanShard:
			if s.parent != 0 {
				shardKids[s.parent] = append(shardKids[s.parent], [2]int64{s.start, s.end})
			}
		}
	}
	var f spanFigures
	var queries, handlerNs, selfNs, storeNs, parseNs, calls int64
	isQuery := map[uint32]bool{}
	for req, h := range handlers {
		if h.op != opQuery {
			continue
		}
		isQuery[req] = true
		queries++
		st := unionNs(store[req])
		handlerNs += h.end - h.start
		storeNs += st
		parseNs += parse[req]
		selfNs += h.end - h.start - parse[req] - st
		calls += int64(len(store[req]))
	}
	var kids, mergeNs int64
	clusterCalls := 0
	for _, s := range tops {
		if !isQuery[s.req] {
			continue
		}
		k := shardKids[s.id]
		if len(k) == 0 {
			continue
		}
		clusterCalls++
		kids += int64(len(k))
		mergeNs += s.end - s.start - unionNs(k)
	}
	q := float64(queries)
	f.selfMs = ratio(float64(selfNs)/1e6, q)
	f.parseUs = ratio(float64(parseNs)/1e3, q)
	f.callsPerQuery = ratio(float64(calls), q)
	f.storeMsPerQuery = ratio(float64(storeNs)/1e6, q)
	f.storeShare = ratio(float64(storeNs), float64(handlerNs))
	f.applyMs = ratio(float64(applyNs)/1e6, float64(applies))
	f.fanout = ratio(float64(kids), float64(clusterCalls))
	f.mergeMsPerQuery = ratio(float64(mergeNs)/1e6, q)
	return f
}
