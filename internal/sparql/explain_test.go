package sparql

import (
	"context"
	"strings"
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/delta"
	"hexastore/internal/dictionary"
	"hexastore/internal/disk"
	"hexastore/internal/graph"
	"hexastore/internal/obs"
	"hexastore/internal/rdf"
	"hexastore/internal/shard"
	"hexastore/internal/triplestore"
)

func TestParseExplainPrefix(t *testing.T) {
	cases := []struct {
		src  string
		want ExplainMode
	}{
		{`SELECT ?x WHERE { ?x <p> ?y }`, ExplainNone},
		{`EXPLAIN SELECT ?x WHERE { ?x <p> ?y }`, ExplainPlan},
		{`EXPLAIN ANALYZE SELECT ?x WHERE { ?x <p> ?y }`, ExplainExec},
		{`explain analyze select ?x where { ?x <p> ?y }`, ExplainExec},
		{`EXPLAIN ASK { <a> <p> <b> }`, ExplainPlan},
		{`EXPLAIN ANALYZE PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:p ?y }`, ExplainExec},
	}
	for _, c := range cases {
		q, err := Parse(c.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		if q.Explain != c.want {
			t.Errorf("Parse(%q).Explain = %d, want %d", c.src, q.Explain, c.want)
		}
	}
}

// findSpans walks the tree depth-first collecting spans whose name has
// the given prefix.
func findSpans(sp *obs.Span, prefix string) []*obs.Span {
	var out []*obs.Span
	if strings.HasPrefix(sp.Name(), prefix) {
		out = append(out, sp)
	}
	for _, c := range sp.Children() {
		out = append(out, findSpans(c, prefix)...)
	}
	return out
}

func attrInt(t *testing.T, sp *obs.Span, key string) int64 {
	t.Helper()
	v, ok := sp.Attr(key)
	if !ok {
		t.Fatalf("span %q: missing attr %q", sp.Name(), key)
	}
	n, ok := v.(int64)
	if !ok {
		t.Fatalf("span %q: attr %q = %T, want int64", sp.Name(), key, v)
	}
	return n
}

// checkAnalyzeTrace asserts the executed-trace shape the EXPLAIN
// ANALYZE contract promises: a plan span naming the pattern order, and
// one step span per pattern carrying estimated and actual cardinalities.
func checkAnalyzeTrace(t *testing.T, tr *obs.Trace, patterns, rows int) {
	t.Helper()
	if plans := findSpans(tr, "plan"); len(plans) != 1 {
		t.Fatalf("plan spans = %d, want 1", len(plans))
	} else {
		if _, ok := plans[0].Attr("order"); !ok {
			t.Error("plan span missing order attr")
		}
		if _, ok := plans[0].Attr("planner"); !ok {
			t.Error("plan span missing planner attr")
		}
	}
	steps := findSpans(tr, "step[")
	if len(steps) != patterns {
		t.Fatalf("step spans = %d, want %d", len(steps), patterns)
	}
	for _, sp := range steps {
		if est := attrInt(t, sp, "estRows"); est < 0 {
			t.Errorf("span %q: estRows = %d, want a priced estimate", sp.Name(), est)
		}
		attrInt(t, sp, "rowsIn")
		attrInt(t, sp, "rowsOut")
	}
	emits := findSpans(tr, "emit")
	if len(emits) != 1 {
		t.Fatalf("emit spans = %d, want 1", len(emits))
	}
	if got := attrInt(t, emits[0], "emitted"); got != int64(rows) {
		t.Errorf("emit emitted = %d, want %d", got, rows)
	}
	if snaps := findSpans(tr, "snapshot"); len(snaps) != 1 {
		t.Errorf("snapshot spans = %d, want 1", len(snaps))
	}
}

const explainJoin = `EXPLAIN ANALYZE SELECT ?prof ?course WHERE {
	?prof <type> <FullProfessor> .
	?prof <teacherOf> ?course }`

func TestExplainAnalyzeMemory(t *testing.T) {
	g := academicStore(t)
	q, err := Parse(explainJoin)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("query")
	res, err := evalOpts(context.Background(), g, q, EvalOptions{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1 (ID1 teaches AI)", len(res.Rows))
	}
	checkAnalyzeTrace(t, tr, 2, 1)

	// The first step must have seen actual rows flow through.
	steps := findSpans(tr, "step[")
	if got := attrInt(t, steps[len(steps)-1], "rowsOut"); got != 1 {
		t.Errorf("final step rowsOut = %d, want 1", got)
	}
}

func TestExplainPlanOnlySkipsExecution(t *testing.T) {
	g := academicStore(t)
	q, err := Parse(`EXPLAIN SELECT ?prof ?course WHERE {
		?prof <type> <FullProfessor> .
		?prof <teacherOf> ?course }`)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("query")
	res, err := evalOpts(context.Background(), g, q, EvalOptions{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	if len(res.Rows) != 0 {
		t.Fatalf("plan-only returned %d rows, want 0", len(res.Rows))
	}
	steps := findSpans(tr, "step[")
	if len(steps) != 2 {
		t.Fatalf("plan step spans = %d, want 2", len(steps))
	}
	for _, sp := range steps {
		attrInt(t, sp, "estRows")
		if _, ok := sp.Attr("rowsOut"); ok {
			t.Errorf("plan-only step %q has rowsOut — it executed", sp.Name())
		}
	}
}

func TestExplainAnalyzeDisk(t *testing.T) {
	st, err := disk.Create(t.TempDir(), disk.Options{CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ex := func(l string) rdf.Term { return rdf.NewIRI("http://ex/" + l) }
	for _, tr := range []rdf.Triple{
		rdf.T(ex("alice"), ex("knows"), ex("bob")),
		rdf.T(ex("bob"), ex("knows"), ex("carol")),
		rdf.T(ex("carol"), ex("knows"), ex("dave")),
	} {
		if _, err := st.AddTriple(tr); err != nil {
			t.Fatal(err)
		}
	}
	q, err := Parse(`EXPLAIN ANALYZE PREFIX ex: <http://ex/>
		SELECT ?x ?z WHERE { ?x ex:knows ?y . ?y ex:knows ?z }`)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("query")
	res, err := evalOpts(context.Background(), graph.Disk(st), q, EvalOptions{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	checkAnalyzeTrace(t, tr, 2, 2)
}

// TestTraceDifferential asserts tracing changes no results: the same
// query over the same store, traced and untraced, row for row.
func TestTraceDifferential(t *testing.T) {
	g := academicStore(t)
	queries := []string{
		`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`,
		`SELECT ?prof ?course WHERE { ?prof <type> <FullProfessor> . ?prof <teacherOf> ?course }`,
		`SELECT ?s WHERE { ?s <advisor> ?a . ?a <teacherOf> ?c }`,
		`ASK { <ID1> <teacherOf> <AI> }`,
	}
	for _, src := range queries {
		q1, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := evalOpts(context.Background(), g, q1, EvalOptions{})
		if err != nil {
			t.Fatalf("%s: untraced: %v", src, err)
		}
		q2, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := evalOpts(context.Background(), g, q2, EvalOptions{Trace: obs.NewTrace("query")})
		if err != nil {
			t.Fatalf("%s: traced: %v", src, err)
		}
		plain.SortRows()
		traced.SortRows()
		if plain.IsAsk != traced.IsAsk || plain.Answer != traced.Answer || len(plain.Rows) != len(traced.Rows) {
			t.Fatalf("%s: traced result differs (%d vs %d rows)", src, len(plain.Rows), len(traced.Rows))
		}
		for i := range plain.Rows {
			for v, term := range plain.Rows[i] {
				if traced.Rows[i][v] != term {
					t.Fatalf("%s: row %d var %s: %v vs %v", src, i, v, term, traced.Rows[i][v])
				}
			}
		}
	}
}

// TestExplainReportsCostPlannerOnEveryBackend checks that every backend,
// the flat baseline included, is planned by the cost model: EXPLAIN
// names it and prices every step with a non-negative estimate.
func TestExplainReportsCostPlannerOnEveryBackend(t *testing.T) {
	ex := func(l string) rdf.Term { return rdf.NewIRI("http://ex/" + l) }
	triples := []rdf.Triple{
		rdf.T(ex("alice"), ex("knows"), ex("bob")),
		rdf.T(ex("bob"), ex("knows"), ex("carol")),
		rdf.T(ex("carol"), ex("age"), rdf.NewLiteral("42")),
	}
	ds, err := disk.Create(t.TempDir(), disk.Options{CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	ov, err := delta.Open(graph.Memory(core.New()), delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ov.Close()
	cl, err := shard.OpenCluster(shard.Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	backends := map[string]graph.Graph{
		"memory":   graph.Memory(core.New()),
		"baseline": graph.Baseline(triplestore.New(dictionary.New())),
		"disk":     graph.Disk(ds),
		"overlay":  ov,
		"shards=3": cl,
	}
	q, err := Parse(`EXPLAIN PREFIX ex: <http://ex/>
		SELECT ?x ?a WHERE { ?x ex:knows ?y . ?y ex:knows ?z . ?z ex:age ?a }`)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range backends {
		for _, tr := range triples {
			if _, err := graph.AddTriple(g, tr); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		tr := obs.NewTrace("query")
		if _, err := evalOpts(context.Background(), g, q, EvalOptions{Trace: tr}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr.Finish()
		plans := findSpans(tr, "plan")
		if len(plans) != 1 {
			t.Fatalf("%s: plan spans = %d, want 1", name, len(plans))
		}
		if v, _ := plans[0].Attr("planner"); v != "cost" {
			t.Errorf("%s: planner = %v, want cost", name, v)
		}
		steps := findSpans(tr, "step[")
		if len(steps) != 3 {
			t.Fatalf("%s: step spans = %d, want 3", name, len(steps))
		}
		for _, sp := range steps {
			if est := attrInt(t, sp, "estRows"); est < 0 {
				t.Errorf("%s: step %q estRows = %d, want a priced estimate", name, sp.Name(), est)
			}
		}
	}
}
