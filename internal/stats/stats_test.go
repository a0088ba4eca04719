package stats

import (
	"math"
	"math/rand"
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/graph"
	"hexastore/internal/triplestore"
)

// build summarizes st through the memory-store path.
func build(t *testing.T, st *core.Store) *Summary {
	t.Helper()
	sum, err := Build(graph.Memory(st))
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// buildStore creates a store with a known distribution:
//
//	predicate 1: 100 triples, 10 subjects × 10 objects (dense grid)
//	predicate 2: 20 triples, 20 subjects, 1 object (type-like)
//	predicate 3: 5 triples, 5 subjects, 5 objects (sparse 1:1)
func buildStore(t *testing.T) *core.Store {
	t.Helper()
	st := core.New()
	for s := ID(1); s <= 10; s++ {
		for o := ID(101); o <= 110; o++ {
			st.Add(s, 1, o)
		}
	}
	for s := ID(11); s <= 30; s++ {
		st.Add(s, 2, 200)
	}
	for i := ID(0); i < 5; i++ {
		st.Add(31+i, 3, 301+i)
	}
	return st
}

func TestBuildCounts(t *testing.T) {
	st := buildStore(t)
	sum := build(t, st)
	if sum.Triples != 125 {
		t.Fatalf("Triples = %d, want 125", sum.Triples)
	}
	if sum.DistinctP != 3 {
		t.Fatalf("DistinctP = %d, want 3", sum.DistinctP)
	}
	if got := sum.PredCount[1]; got != 100 {
		t.Fatalf("PredCount[1] = %d, want 100", got)
	}
	if got := sum.PredDistinctS[1]; got != 10 {
		t.Fatalf("PredDistinctS[1] = %d, want 10", got)
	}
	if got := sum.PredDistinctO[1]; got != 10 {
		t.Fatalf("PredDistinctO[1] = %d, want 10", got)
	}
	if got := sum.PredCount[2]; got != 20 {
		t.Fatalf("PredCount[2] = %d, want 20", got)
	}
	if got := sum.PredDistinctO[2]; got != 1 {
		t.Fatalf("PredDistinctO[2] = %d, want 1", got)
	}
	if sum.DistinctS != 35 || sum.DistinctO != 16 {
		t.Fatalf("DistinctS, DistinctO = %d, %d, want 35, 16", sum.DistinctS, sum.DistinctO)
	}
}

func TestEstimateExactForSingleBoundPositions(t *testing.T) {
	st := buildStore(t)
	sum := build(t, st)
	// Single-position estimates are exact (they read per-resource counts).
	cases := []struct {
		s, p, o ID
		want    float64
	}{
		{None, 1, None, 100},
		{None, 2, None, 20},
		{None, None, 200, 20},
		{1, None, None, 10},
		{None, None, None, 125},
	}
	for _, c := range cases {
		if got := sum.EstimatePattern(c.s, c.p, c.o); got != c.want {
			t.Errorf("Estimate(%d,%d,%d) = %g, want %g", c.s, c.p, c.o, got, c.want)
		}
	}
}

func TestEstimateTwoBoundPositions(t *testing.T) {
	st := buildStore(t)
	sum := build(t, st)
	// (s,1,?): predicate 1 has 100 triples over 10 subjects → 10.
	if got := sum.EstimatePattern(1, 1, None); got != 10 {
		t.Fatalf("Estimate(s,p,?) = %g, want 10", got)
	}
	// (?,1,o): 100 triples over 10 objects → 10.
	if got := sum.EstimatePattern(None, 1, 110); got != 10 {
		t.Fatalf("Estimate(?,p,o) = %g, want 10", got)
	}
	// (?,2,o): 20 triples over 1 object → 20.
	if got := sum.EstimatePattern(None, 2, 200); got != 20 {
		t.Fatalf("Estimate(?,2,200) = %g, want 20", got)
	}
}

func TestEstimateFullyBound(t *testing.T) {
	st := buildStore(t)
	sum := build(t, st)
	// (s,1,o): 100/(10*10) = 1 — the grid is dense, the estimate exact.
	if got := sum.EstimatePattern(1, 1, 101); math.Abs(got-1) > 1e-9 {
		t.Fatalf("Estimate(s,p,o) = %g, want 1", got)
	}
}

func TestEstimateUnknownResources(t *testing.T) {
	st := buildStore(t)
	sum := build(t, st)
	if got := sum.EstimatePattern(None, 99, None); got != 0 {
		t.Fatalf("unknown predicate estimate = %g, want 0", got)
	}
	if got := sum.EstimatePattern(999, None, None); got != 0 {
		t.Fatalf("unknown subject estimate = %g, want 0", got)
	}
	if got := sum.EstimatePattern(None, None, 999); got != 0 {
		t.Fatalf("unknown object estimate = %g, want 0", got)
	}
}

func TestEstimateEmptyStore(t *testing.T) {
	sum := build(t, core.New())
	if got := sum.EstimatePattern(None, None, None); got != 0 {
		t.Fatalf("empty-store estimate = %g, want 0", got)
	}
}

// TestEstimateOrdersSelectivityCorrectly checks the property the planner
// relies on: the relative order of estimates matches the relative order
// of true cardinalities for patterns of the same shape.
func TestEstimateOrdersSelectivityCorrectly(t *testing.T) {
	st := core.New()
	rng := rand.New(rand.NewSource(1))
	// Predicate 1 is 50× more frequent than predicate 2.
	for i := 0; i < 5000; i++ {
		st.Add(ID(rng.Intn(500)+1), 1, ID(rng.Intn(500)+1001))
	}
	for i := 0; i < 100; i++ {
		st.Add(ID(rng.Intn(500)+1), 2, ID(rng.Intn(10)+2001))
	}
	sum := build(t, st)
	if sum.EstimatePattern(None, 2, None) >= sum.EstimatePattern(None, 1, None) {
		t.Fatal("rare predicate estimated no cheaper than common one")
	}
	if sum.EstimatePattern(None, 2, 2001) >= sum.EstimatePattern(None, 1, None) {
		t.Fatal("bound-object rare predicate estimated no cheaper than unbound common one")
	}
}

func TestSummaryString(t *testing.T) {
	sum := build(t, buildStore(t))
	s := sum.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}

func TestEstimateSubjectAndObjectBound(t *testing.T) {
	sum := build(t, buildStore(t))
	// Subject 1 has 10 triples, object 101 has 10: 10·10/125.
	if got := sum.EstimatePattern(1, None, 101); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("Estimate(s,?,o) = %g, want 0.8", got)
	}
}

// TestScanMatchesIndexSummary checks that the one-scan path of Build
// (any backend) and the index-head path (the memory Hexastore) describe
// the same data identically, estimates included.
func TestScanMatchesIndexSummary(t *testing.T) {
	st := buildStore(t)
	flat := triplestore.New(st.Dictionary())
	st.Match(None, None, None, func(s, p, o ID) bool {
		flat.Add(s, p, o)
		return true
	})
	idx := build(t, st)
	scan, err := Build(graph.Baseline(flat))
	if err != nil {
		t.Fatal(err)
	}
	if idx.String() != scan.String() {
		t.Fatalf("index path %s, scan path %s", idx, scan)
	}
	ids := []ID{None, 1, 2, 3, 11, 31, 101, 200, 305, 999}
	for _, s := range ids {
		for _, p := range ids {
			for _, o := range ids {
				if a, b := idx.EstimatePattern(s, p, o), scan.EstimatePattern(s, p, o); a != b {
					t.Fatalf("Estimate(%d,%d,%d): index %g, scan %g", s, p, o, a, b)
				}
			}
		}
	}
}

// TestEstimateReadsLiveCounts checks that subject- and object-bound
// estimates come from the indexes, not from a copy taken at Build.
func TestEstimateReadsLiveCounts(t *testing.T) {
	st := buildStore(t)
	sum := build(t, st)
	st.Add(1, 2, 200)
	if got := sum.EstimatePattern(1, None, None); got != 11 {
		t.Fatalf("Estimate(s,?,?) after Add = %g, want 11", got)
	}
	if got := sum.EstimatePattern(None, None, 200); got != 21 {
		t.Fatalf("Estimate(?,?,o) after Add = %g, want 21", got)
	}
}
