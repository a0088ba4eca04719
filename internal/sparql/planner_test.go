package sparql

import (
	"fmt"
	"math/rand"
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/graph"
	"hexastore/internal/rdf"
	"hexastore/internal/stats"
)

// skewedStore builds a dataset where the cost-based planner's choice
// matters: a very common predicate and a very rare one sharing subjects.
func skewedStore(t testing.TB) graph.Graph {
	st := core.New()
	rng := rand.New(rand.NewSource(8))
	common := rdf.NewIRI("common")
	rare := rdf.NewIRI("rare")
	for i := 0; i < 5000; i++ {
		s := rdf.NewIRI(fmt.Sprintf("s%d", rng.Intn(1000)))
		o := rdf.NewIRI(fmt.Sprintf("o%d", rng.Intn(1000)))
		st.AddTriple(rdf.T(s, common, o))
	}
	for i := 0; i < 20; i++ {
		s := rdf.NewIRI(fmt.Sprintf("s%d", i))
		st.AddTriple(rdf.T(s, rare, rdf.NewLiteral("x")))
	}
	return graph.Memory(st)
}

func TestPlannerResultsMatchDefaultEval(t *testing.T) {
	st := skewedStore(t)
	pl := NewPlanner(st)
	queries := []string{
		`SELECT ?s WHERE { ?s <rare> ?x . ?s <common> ?o }`,
		`SELECT ?s ?o WHERE { ?s <common> ?o . ?s <rare> "x" }`,
		`SELECT DISTINCT ?s WHERE { ?s <common> ?o }`,
		`SELECT ?s WHERE { ?s <rare> ?x } LIMIT 5`,
		`SELECT ?a ?b WHERE { ?a <common> ?m . ?m <common> ?b }`,
	}
	for _, src := range queries {
		want, err := Exec(st, src)
		if err != nil {
			t.Fatalf("Exec(%q): %v", src, err)
		}
		got, err := planExec(pl, src)
		if err != nil {
			t.Fatalf("Planner.Exec(%q): %v", src, err)
		}
		want.SortRows()
		got.SortRows()
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("query %q: planner %d rows, default %d", src, len(got.Rows), len(want.Rows))
		}
		for i := range want.Rows {
			for _, v := range want.Vars {
				if got.Rows[i][v] != want.Rows[i][v] {
					t.Fatalf("query %q row %d var %s: planner %v, default %v",
						src, i, v, got.Rows[i][v], want.Rows[i][v])
				}
			}
		}
	}
}

func TestPlanOrderStatsPutsSelectiveFirst(t *testing.T) {
	st := skewedStore(t)
	sum, err := stats.Build(st)
	if err != nil {
		t.Fatal(err)
	}
	dict := st.Dictionary()
	commonID, _ := dict.Lookup(rdf.NewIRI("common"))
	rareID, _ := dict.Lookup(rdf.NewIRI("rare"))

	pats := []idPattern{
		{pat: Pattern{S: V("s"), P: C(rdf.NewIRI("common")), O: V("o")}, resolved: true},
		{pat: Pattern{S: V("s"), P: C(rdf.NewIRI("rare")), O: V("x")}, resolved: true},
	}
	pats[0].ids[1] = commonID
	pats[1].ids[1] = rareID

	order, _ := planOrderJoin(sum, pats)
	if order[0] != 1 {
		t.Fatalf("planner ordered common predicate first: order = %v", order)
	}
}

func TestPlanOrderStatsAvoidsCartesianProduct(t *testing.T) {
	st := skewedStore(t)
	sum, err := stats.Build(st)
	if err != nil {
		t.Fatal(err)
	}
	dict := st.Dictionary()
	rareID, _ := dict.Lookup(rdf.NewIRI("rare"))
	commonID, _ := dict.Lookup(rdf.NewIRI("common"))

	// Three patterns: rare (selective, binds ?s), a disconnected pattern
	// over ?a/?b, and a common pattern connected to ?s. The planner must
	// not pick the disconnected pattern second even though its estimate
	// might look appealing.
	pats := []idPattern{
		{pat: Pattern{S: V("s"), P: C(rdf.NewIRI("rare")), O: V("x")}, resolved: true},
		{pat: Pattern{S: V("a"), P: C(rdf.NewIRI("rare")), O: V("b")}, resolved: true},
		{pat: Pattern{S: V("s"), P: C(rdf.NewIRI("common")), O: V("o")}, resolved: true},
	}
	pats[0].ids[1] = rareID
	pats[1].ids[1] = rareID
	pats[2].ids[1] = commonID

	order, _ := planOrderJoin(sum, pats)
	if order[0] == 1 {
		// Both rare patterns are equivalent starts; fine either way.
		t.Skip("planner started with the disconnected twin; acceptable")
	}
	if order[1] != 2 {
		t.Fatalf("planner picked disconnected pattern before connected one: %v", order)
	}
}

func TestPlannerRefresh(t *testing.T) {
	st := core.New()
	st.AddTriple(rdf.T(rdf.NewIRI("a"), rdf.NewIRI("p"), rdf.NewIRI("b")))
	pl := NewPlanner(graph.Memory(st))
	if pl.Stats().Triples != 1 {
		t.Fatalf("Triples = %d, want 1", pl.Stats().Triples)
	}
	st.AddTriple(rdf.T(rdf.NewIRI("c"), rdf.NewIRI("p"), rdf.NewIRI("d")))
	pl.Refresh()
	if pl.Stats().Triples != 2 {
		t.Fatalf("after Refresh Triples = %d, want 2", pl.Stats().Triples)
	}
}

// TestPlannerRefreshDriftRule checks the one refresh rule: statistics
// are rebuilt (and memoized plans invalidated) only once the graph's
// size has drifted by at least 10% from the summary's.
func TestPlannerRefreshDriftRule(t *testing.T) {
	st := core.New()
	for i := 0; i < 100; i++ {
		st.AddTriple(rdf.T(rdf.NewIRI(fmt.Sprintf("s%d", i)), rdf.NewIRI("p"), rdf.NewIRI("o")))
	}
	pl := NewPlanner(graph.Memory(st))
	epoch := pl.CacheStats().StatsEpoch
	for i := 0; i < 9; i++ {
		st.AddTriple(rdf.T(rdf.NewIRI(fmt.Sprintf("t%d", i)), rdf.NewIRI("p"), rdf.NewIRI("o")))
		pl.Refresh()
	}
	if got := pl.CacheStats().StatsEpoch; got != epoch || pl.Stats().Triples != 100 {
		t.Fatalf("after 9%% drift: epoch %d (was %d), Triples %d; want no rebuild", got, epoch, pl.Stats().Triples)
	}
	st.AddTriple(rdf.T(rdf.NewIRI("t9"), rdf.NewIRI("p"), rdf.NewIRI("o")))
	pl.Refresh()
	if got := pl.CacheStats().StatsEpoch; got != epoch+1 || pl.Stats().Triples != 110 {
		t.Fatalf("after 10%% drift: epoch %d (was %d), Triples %d; want one rebuild at 110", got, epoch, pl.Stats().Triples)
	}
}

func TestPlannerWithModifiersAndOptionals(t *testing.T) {
	st := skewedStore(t)
	pl := NewPlanner(st)
	res, err := planExec(pl, `
		SELECT ?s ?x WHERE {
			?s <common> ?o .
			OPTIONAL { ?s <rare> ?x }
		} LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(res.Rows))
	}
}

// TestNewPlannerAllocsIndependentOfSize checks that building a Planner
// over the memory store costs the same allocations at 1k and at 100k
// subjects, in both index layouts: the summary reads per-predicate
// figures off the index heads and copies nothing per subject or object.
func TestNewPlannerAllocsIndependentOfSize(t *testing.T) {
	build := func(subjects int, compress bool) graph.Graph {
		b := core.NewBuilder(nil)
		b.SetCompression(compress)
		for i := 0; i < subjects; i++ {
			b.Add(core.ID(1000+i), core.ID(1+i%4), core.ID(500+i%50))
		}
		return graph.Memory(b.Build())
	}
	for _, compress := range []bool{false, true} {
		small, large := build(1_000, compress), build(100_000, compress)
		a := testing.AllocsPerRun(5, func() { NewPlanner(small) })
		b := testing.AllocsPerRun(5, func() { NewPlanner(large) })
		if d := b - a; d > 4 || d < -4 {
			t.Fatalf("compress=%v: NewPlanner allocs %v at 1k subjects, %v at 100k", compress, a, b)
		}
	}
}
