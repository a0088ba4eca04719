package sparql

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"hexastore/internal/barton"
	"hexastore/internal/core"
	"hexastore/internal/disk"
	"hexastore/internal/graph"
	"hexastore/internal/lubm"
	"hexastore/internal/rdf"
)

// goldenQueries returns the LUBM read templates (one fixed constant
// each, ASK in both its true and false form) and the Barton queries
// BQ1–BQ7, as the benchmark's workloads phrase them.
func goldenQueries() [][2]string {
	p := rdf.Term.String
	d := p(lubm.Department(3))
	c := p(lubm.Course(3*20 + 7))
	r := p(lubm.AssociateProfessor(3*4 + 1))
	lubmQ := [][2]string{
		{"course_takers", fmt.Sprintf("SELECT ?s ?d WHERE { ?s %s %s . ?s %s ?d }",
			p(lubm.PropTakesCourse), c, p(lubm.PropMemberOf))},
		{"dept_members_opt", fmt.Sprintf("SELECT ?x ?a WHERE { ?x %s %s OPTIONAL { ?x %s ?a } }",
			p(lubm.PropMemberOf), d, p(lubm.PropAdvisor))},
		{"related_to", fmt.Sprintf("SELECT ?s ?p WHERE { ?s ?p %s }", d)},
		{"about", fmt.Sprintf("SELECT ?p ?x WHERE { { %s ?p ?x } UNION { ?x ?p %s } }", r, r)},
		{"advisor_cycle", fmt.Sprintf("SELECT ?student ?course WHERE { ?student %s ?prof . ?prof %s ?course . ?student %s ?course . ?prof %s %s }",
			p(lubm.PropAdvisor), p(lubm.PropTeacherOf), p(lubm.PropTakesCourse), p(lubm.PropWorksFor), d)},
		{"dept_course_counts", fmt.Sprintf("SELECT ?c (COUNT(*) AS ?n) WHERE { ?c %s %s . ?s %s ?c } GROUP BY ?c",
			p(lubm.PropOfferedBy), d, p(lubm.PropTakesCourse))},
		{"dept_names_top", fmt.Sprintf("SELECT ?x ?n WHERE { ?x %s %s . ?x %s ?n } ORDER BY ?n LIMIT 10",
			p(lubm.PropMemberOf), d, p(lubm.PropName))},
		{"ask_enrolled_true", fmt.Sprintf("ASK { ?s %s %s . ?s %s %s }",
			p(lubm.PropTakesCourse), c, p(lubm.PropMemberOf), d)},
		{"ask_enrolled_false", fmt.Sprintf("ASK { ?s %s %s . ?s %s %s }",
			p(lubm.PropTakesCourse), c, p(lubm.PropMemberOf), p(lubm.Department(5)))},
	}

	text := p(barton.TypeText)
	ty := p(barton.PropType)
	sel := fmt.Sprintf("?s %s %s", ty, text)
	var inferred []string
	for _, t := range []rdf.Term{barton.TypeNotated, barton.TypeSound, barton.TypeImage, barton.TypeMap} {
		inferred = append(inferred, fmt.Sprintf("{ ?s %s %s . ?s %s ?r . ?r %s %s . ?s %s %s . ?s ?p ?x }",
			p(barton.PropOrigin), p(barton.OriginDLC), p(barton.PropRecords), ty, text, ty, p(t)))
	}
	bartonQ := [][2]string{
		{"bq1", fmt.Sprintf("SELECT ?o (COUNT(*) AS ?n) WHERE { ?s %s ?o } GROUP BY ?o", ty)},
		{"bq2", fmt.Sprintf("SELECT ?p (COUNT(*) AS ?n) WHERE { %s . ?s ?p ?x } GROUP BY ?p", sel)},
		{"bq3", fmt.Sprintf("SELECT ?p ?x (COUNT(*) AS ?n) WHERE { %s . ?s ?p ?x } GROUP BY ?p ?x", sel)},
		{"bq4", fmt.Sprintf("SELECT ?p ?x (COUNT(*) AS ?n) WHERE { %s . ?s %s %s . ?s ?p ?x } GROUP BY ?p ?x",
			sel, p(barton.PropLanguage), p(barton.LangFrench))},
		{"bq5", fmt.Sprintf("SELECT DISTINCT ?s ?t WHERE { ?s %s %s . ?s %s ?r . ?r %s ?t . FILTER (?t != %s) }",
			p(barton.PropOrigin), p(barton.OriginDLC), p(barton.PropRecords), ty, text)},
		{"bq6", fmt.Sprintf("SELECT ?p (COUNT(*) AS ?n) WHERE { { %s . ?s ?p ?x } UNION %s } GROUP BY ?p",
			sel, strings.Join(inferred, " UNION "))},
		{"bq7", fmt.Sprintf("SELECT ?s ?p ?o WHERE { ?s %s %s . ?s ?p ?o }",
			p(barton.PropPoint), p(barton.PointEnd))},
	}
	var out [][2]string
	for _, q := range lubmQ {
		out = append(out, [2]string{"lubm/" + q[0], q[1]})
	}
	for _, q := range bartonQ {
		out = append(out, [2]string{"barton/" + q[0], q[1]})
	}
	return out
}

// planDump renders the cost planner's choice for every union branch of
// q: the join order, each step's access-path hint and its estimated
// intermediate cardinality.
func planDump(t *testing.T, pl *Planner, name, src string) string {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ev := &evaluator{dict: pl.Graph().Dictionary()}
	var b strings.Builder
	for bi, branch := range expandUnions(q) {
		pats := ev.resolve(branch)
		order, hints := planOrderJoin(pl.Stats(), pats)
		js := newJoinState(pl.Stats())
		fmt.Fprintf(&b, "%s branch %d\n", name, bi)
		for si, pi := range order {
			est := js.cost(&pats[pi])
			js.advance(&pats[pi])
			hint := "none"
			if si < len(hints) {
				switch hints[si] {
				case hintMerge:
					hint = "merge"
				case hintProbe:
					hint = "probe"
				}
			}
			fmt.Fprintf(&b, "  %s | %s | %s\n", pats[pi].pat.String(), hint, strconv.FormatFloat(est, 'g', -1, 64))
		}
	}
	return b.String()
}

// goldenBackends builds the LUBM and Barton data sets on the memory
// store and on the disk store.
func goldenBackends(t *testing.T) map[string][2]graph.Graph {
	t.Helper()
	sets := map[string][]rdf.Triple{
		"lubm":   lubm.Config{Universities: 2, Seed: 1}.GenerateAll(),
		"barton": barton.Config{Records: 3000, Seed: 1}.GenerateAll(),
	}
	out := map[string][2]graph.Graph{}
	for name, triples := range sets {
		b := core.NewBuilder(nil)
		b.AddAll(core.EncodeTriples(b.Dictionary(), triples, 1))
		mem := graph.Memory(b.Build())

		ds, err := disk.Create(filepath.Join(t.TempDir(), name), disk.Options{CacheSize: 256})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		if err := ds.BulkLoad(core.EncodeTriples(ds.Dictionary(), triples, 1)); err != nil {
			t.Fatal(err)
		}
		out[name] = [2]graph.Graph{mem, graph.Disk(ds)}
	}
	return out
}

// TestGoldenPlans pins the cost planner's join orders, step hints and
// per-step estimates for the LUBM templates and BQ1–BQ7 on the memory
// and disk stores against testdata/golden_plans.txt, which holds the
// plans of the planner that read per-subject and per-object counts from
// copied maps: reading them from the indexes must not move any plan.
func TestGoldenPlans(t *testing.T) {
	backends := goldenBackends(t)
	planners := map[string][2]*Planner{}
	for name, gs := range backends {
		planners[name] = [2]*Planner{NewPlanner(gs[0]), NewPlanner(gs[1])}
	}
	var got strings.Builder
	for _, q := range goldenQueries() {
		set := strings.SplitN(q[0], "/", 2)[0]
		mem := planDump(t, planners[set][0], q[0], q[1])
		dsk := planDump(t, planners[set][1], q[0], q[1])
		if mem != dsk {
			t.Errorf("%s: memory and disk plans differ:\nmemory:\n%sdisk:\n%s", q[0], mem, dsk)
		}
		got.WriteString(mem)
	}
	path := filepath.Join("testdata", "golden_plans.txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("plans differ from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}
