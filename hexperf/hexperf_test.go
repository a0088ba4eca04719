package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"hexastore/internal/graph"
	"hexastore/internal/server"
)

// toy is a scale at which a whole run takes seconds.
var toy = scale{lubmUniversities: 2, bartonRecords: 400}

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range workloads {
		a := w.streamBytes(toy, 7, 300)
		b := w.streamBytes(toy, 7, 300)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two streams of seed 7 differ", w.name)
		}
		if bytes.Equal(a, w.streamBytes(toy, 8, 300)) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w.name)
		}
	}
}

// TestWrongExpectedAnswerFails serves toy LUBM data in process, checks
// a warm-up's answers, then corrupts one expected answer and checks
// that every request of that query is reported as failed.
func TestWrongExpectedAnswerFails(t *testing.T) {
	w := workloadByName("lubm_hot")
	triples := w.generate(toy, 3)
	pool := w.pool(toy, 3)
	orc := newOracle(triples, pool)
	srv := httptest.NewServer(server.NewGraph(graph.Memory(orc.st)).Handler())
	defer srv.Close()
	tg := newTarget(srv.Listener.Addr().String(), 1)
	defer tg.close()

	p := runSequential(tg, w.newGenerator(toy, 3, pool, -1), 200)
	p.verify(orc, toy)
	if n := p.failed(); n != 0 {
		t.Fatalf("correct server: %d failed requests: %v", n, p.errs)
	}

	victim := p.samples[0].pool
	orc.memo[int(victim)] += "\nu:not-in-the-answer"
	for i := range p.samples {
		p.samples[i].ok = true
	}
	p.errs = nil
	p.verify(orc, toy)
	want := 0
	for _, s := range p.samples {
		if s.pool == victim {
			want++
		}
	}
	if got := p.failed(); got != want || len(p.errs) == 0 {
		t.Fatalf("wrong expected answer: %d failed requests (want %d), errors %v", got, want, p.errs)
	}
}

type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestTablesMatchBenchmarkJSON(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in hexperf", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, hexperf has %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in hexperf", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		d := doc.EndToEnd[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better || d.Bound != m.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, hexperf has %+v", i, d, m)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in hexperf", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		d := doc.PerLayer[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, hexperf has %+v", i, d, m)
		}
	}
}

// TestToyRuns runs every workload untraced and traced at toy scale
// against a freshly built hexserver, and checks that each run is
// correct and prints exactly the metrics BENCHMARK.json declares.
func TestToyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds hexserver")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "hexserver")
	build := exec.Command("go", "build", "-o", bin, "hexastore/cmd/hexserver")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build hexserver: %v\n%s", err, out)
	}
	doc := readBenchmarkJSON(t)
	names := func(trace bool) []string {
		var out []string
		if trace {
			for _, m := range doc.PerLayer {
				out = append(out, m.Name)
			}
		} else {
			for _, m := range doc.EndToEnd {
				out = append(out, m.Name)
			}
		}
		sort.Strings(out)
		return out
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := run(options{workload: w.name, seed: 5, seconds: 1, trace: trace,
				out: filepath.Join(dir, "out"), server: bin, sc: toy})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.correct || rep.failed != 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d of %d: %v", w.name, trace, rep.correct, rep.failed, rep.attempted, rep.errs)
			}
			var got []string
			for _, m := range rep.metrics {
				got = append(got, m.def.name)
			}
			sort.Strings(got)
			if want := names(trace); !equalStrings(got, want) {
				t.Errorf("%s trace=%v: printed %v, BENCHMARK.json declares %v", w.name, trace, got, want)
			}
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// streamBytes renders the first n requests of every connection's
// stream (and the warm-up stream) as bytes, for the determinism check.
func (w *workload) streamBytes(sc scale, seed int64, n int) []byte {
	pool := w.pool(sc, seed)
	var b strings.Builder
	for conn := -1; conn < w.clients; conn++ {
		g := w.newGenerator(sc, seed, pool, conn)
		for i := 0; i < n; i++ {
			r := g.next()
			fmt.Fprintf(&b, "%d\t%s\t%s\t%s\n", conn, r.class, r.path, r.text)
		}
	}
	return []byte(b.String())
}
