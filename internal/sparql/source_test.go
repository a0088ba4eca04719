package sparql

import (
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/disk"
	"hexastore/internal/graph"
	"hexastore/internal/rdf"
	"hexastore/internal/triplestore"
)

// TestExecSourceOverDiskStore runs the SPARQL engine against the
// disk-based Hexastore: the disk store is a graph.Graph itself, so
// every query feature (joins, filters, optionals, aggregates) works on
// the persistent substrate too.
func TestExecSourceOverDiskStore(t *testing.T) {
	st, err := disk.Create(t.TempDir(), disk.Options{CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	ex := func(l string) rdf.Term { return rdf.NewIRI("http://ex/" + l) }
	for _, tr := range []rdf.Triple{
		rdf.T(ex("alice"), ex("knows"), ex("bob")),
		rdf.T(ex("bob"), ex("knows"), ex("carol")),
		rdf.T(ex("alice"), ex("age"), rdf.NewLiteral("42")),
		rdf.T(ex("bob"), ex("age"), rdf.NewLiteral("7")),
	} {
		if _, err := st.AddTriple(tr); err != nil {
			t.Fatal(err)
		}
	}

	res, err := Exec(st, `
		PREFIX ex: <http://ex/>
		SELECT ?x ?z WHERE { ?x ex:knows ?y . ?y ex:knows ?z }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("join rows = %d, want 1", len(res.Rows))
	}
	if res.Rows[0]["x"].Value != "http://ex/alice" || res.Rows[0]["z"].Value != "http://ex/carol" {
		t.Fatalf("row = %v", res.Rows[0])
	}

	res, err = Exec(st, `
		PREFIX ex: <http://ex/>
		SELECT ?p (COUNT(?s) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p ORDER BY ?p`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d, want 2 (age, knows)", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row["n"].Value != "2" {
			t.Fatalf("group %v count = %q, want 2", row["p"], row["n"].Value)
		}
	}

	res, err = Exec(st, `
		PREFIX ex: <http://ex/>
		SELECT ?who WHERE { ?who ex:age ?a . FILTER (?a > 18) }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0]["who"].Value != "http://ex/alice" {
		t.Fatalf("filter rows = %v", res.Rows)
	}
}

// TestExecSourceMatchesExecOnCoreStore checks that the generic path —
// the flat baseline table, with scan-built statistics and Match-only
// access — and the index-assisted path of the in-memory store produce
// identical results.
func TestExecSourceMatchesExecOnCoreStore(t *testing.T) {
	st := familyStore(t)
	flat := triplestore.New(st.Dictionary())
	if err := st.Match(core.None, core.None, core.None, func(s, p, o core.ID) bool {
		flat.Add(s, p, o)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	base := graph.Baseline(flat)
	queries := []string{
		`PREFIX ex: <http://example.org/>
		 SELECT ?who WHERE { ?who ex:age ?age . FILTER (?age > 18) }`,
		`PREFIX ex: <http://example.org/>
		 SELECT ?a ?b WHERE { ?a ex:knows ?b . ?b ex:age ?x }`,
		`PREFIX ex: <http://example.org/>
		 SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }`,
	}
	for _, src := range queries {
		want, err := Exec(st, src)
		if err != nil {
			t.Fatalf("Exec(%q): %v", src, err)
		}
		got, err := Exec(base, src)
		if err != nil {
			t.Fatalf("Exec(%q) on the baseline: %v", src, err)
		}
		want.SortRows()
		got.SortRows()
		if len(want.Rows) != len(got.Rows) {
			t.Fatalf("query %q: %d vs %d rows", src, len(want.Rows), len(got.Rows))
		}
		for i := range want.Rows {
			for _, v := range want.Vars {
				if want.Rows[i][v] != got.Rows[i][v] {
					t.Fatalf("query %q row %d differs", src, i)
				}
			}
		}
	}
}

// erroringSource wraps a graph but fails Match after a few calls,
// verifying that I/O errors surface from query evaluation.
type erroringSource struct {
	graph.Graph
	calls int
}

func (e *erroringSource) Match(s, p, o core.ID, fn func(s, p, o core.ID) bool) error {
	e.calls++
	if e.calls > 1 {
		return errBoom
	}
	return e.Graph.Match(s, p, o, fn)
}

var errBoom = &mockError{}

type mockError struct{}

func (*mockError) Error() string { return "boom" }

func TestExecSourcePropagatesMatchErrors(t *testing.T) {
	st := familyStore(t)
	src := &erroringSource{Graph: st}
	_, err := Exec(src, `
		PREFIX ex: <http://example.org/>
		SELECT ?a ?b WHERE { ?a ex:knows ?x . ?x ex:knows ?b }`)
	if err == nil {
		t.Fatal("Match error not propagated")
	}
}
