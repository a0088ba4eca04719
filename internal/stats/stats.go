// Package stats implements dataset statistics and triple-pattern
// cardinality estimation in the style of Stocker et al., "SPARQL Basic
// Graph Pattern Optimization Using Selectivity Estimation" (WWW 2008) —
// the selectivity-estimation work the paper cites as reference [41].
//
// A Summary holds only what the indexes cannot answer per pattern: the
// totals, the distinct subject/predicate/object counts and, per
// predicate, its triple count and distinct subjects and objects. On the
// in-memory Hexastore these fall out of the pso and pos head vectors
// without touching a triple. Per-subject and per-object counts are not
// copied: the spo and osp heads already hold them, so estimates read
// them through the graph's Count when asked. The SPARQL planner uses
// the summary to order basic-graph-pattern evaluation by estimated
// result cardinality.
package stats

import (
	"fmt"

	"hexastore/internal/core"
	"hexastore/internal/dictionary"
	"hexastore/internal/graph"
)

// ID re-exports the dictionary id type.
type ID = dictionary.ID

// None is the unbound marker in estimation requests.
const None = dictionary.None

// Summary holds the statistics used for cardinality estimation.
type Summary struct {
	// Triples is the total number of triples.
	Triples int
	// DistinctS, DistinctP, DistinctO count distinct subjects,
	// predicates and objects.
	DistinctS, DistinctP, DistinctO int

	// PredCount is the number of triples per predicate.
	PredCount map[ID]int
	// PredDistinctS is the number of distinct subjects per predicate.
	PredDistinctS map[ID]int
	// PredDistinctO is the number of distinct objects per predicate.
	PredDistinctO map[ID]int

	// g is the graph the summary describes; subject- and object-bound
	// estimates read exact counts from it.
	g graph.Graph
}

// Build collects a Summary of g. On the in-memory Hexastore every figure
// is a head-vector length or a terminal-list total, so no triple is
// touched; on the block-compressed layout (the bulk-load default) the
// totals are stored and the cost is proportional to the number of
// distinct predicates. Other backends pay one scan of their triples.
func Build(g graph.Graph) (*Summary, error) {
	s := &Summary{
		PredCount:     make(map[ID]int),
		PredDistinctS: make(map[ID]int),
		PredDistinctO: make(map[ID]int),
		g:             g,
	}
	if st, ok := graph.Unwrap(g).(*core.Store); ok {
		s.DistinctS = st.Heads(core.SPO)
		s.DistinctP = st.Heads(core.PSO)
		s.DistinctO = st.Heads(core.OSP)
		for _, pc := range st.Predicates() {
			s.PredCount[pc.P] = pc.Triples
			s.Triples += pc.Triples
			s.PredDistinctS[pc.P] = pc.Subjects
			s.PredDistinctO[pc.P] = pc.Objects
		}
		return s, nil
	}
	subjects := make(map[ID]struct{})
	objects := make(map[ID]struct{})
	predSubj := make(map[ID]map[ID]struct{})
	predObj := make(map[ID]map[ID]struct{})
	err := g.Match(None, None, None, func(sub, pred, obj ID) bool {
		s.Triples++
		s.PredCount[pred]++
		subjects[sub] = struct{}{}
		objects[obj] = struct{}{}
		ps := predSubj[pred]
		if ps == nil {
			ps = make(map[ID]struct{})
			predSubj[pred] = ps
		}
		ps[sub] = struct{}{}
		po := predObj[pred]
		if po == nil {
			po = make(map[ID]struct{})
			predObj[pred] = po
		}
		po[obj] = struct{}{}
		return true
	})
	if err != nil {
		return nil, err
	}
	for p, subs := range predSubj {
		s.PredDistinctS[p] = len(subs)
	}
	for p, objs := range predObj {
		s.PredDistinctO[p] = len(objs)
	}
	s.DistinctS = len(subjects)
	s.DistinctP = len(s.PredCount)
	s.DistinctO = len(objects)
	return s, nil
}

// count returns the graph's exact count for a pattern, 0 when the graph
// cannot answer.
func (s *Summary) count(sub, pred, obj ID) float64 {
	if s.g == nil {
		return 0
	}
	n, err := s.g.Count(sub, pred, obj)
	if err != nil {
		return 0
	}
	return float64(n)
}

// EstimatePattern returns the estimated number of triples matching the
// pattern ⟨s,p,o⟩ with None as the wildcard. Concrete subject/object ids
// use the exact per-resource counts the graph's indexes hold;
// combinations fall back to uniformity (independence) assumptions, as
// in [41].
func (s *Summary) EstimatePattern(sub, pred, obj ID) float64 {
	if s.Triples == 0 {
		return 0
	}
	t := float64(s.Triples)
	switch {
	case sub != None && pred != None && obj != None:
		pc, ok := s.PredCount[pred]
		if !ok {
			return 0
		}
		ds, do := s.PredDistinctS[pred], s.PredDistinctO[pred]
		if ds == 0 || do == 0 {
			return 0
		}
		est := float64(pc) / (float64(ds) * float64(do))
		return min1(est)
	case sub != None && pred != None:
		pc, ok := s.PredCount[pred]
		if !ok {
			return 0
		}
		ds := s.PredDistinctS[pred]
		if ds == 0 {
			return 0
		}
		return float64(pc) / float64(ds)
	case pred != None && obj != None:
		pc, ok := s.PredCount[pred]
		if !ok {
			return 0
		}
		do := s.PredDistinctO[pred]
		if do == 0 {
			return 0
		}
		return float64(pc) / float64(do)
	case sub != None && obj != None:
		sc := s.count(sub, None, None)
		oc := s.count(None, None, obj)
		// Independence: P(subject=s) * P(object=o) * T.
		return min1(sc * oc / t)
	case sub != None:
		return s.count(sub, None, None)
	case pred != None:
		return float64(s.PredCount[pred])
	case obj != None:
		return s.count(None, None, obj)
	default:
		return t
	}
}

// min1 floors tiny positive estimates at a small epsilon so planners can
// still distinguish "almost certainly one row" from "zero rows".
func min1(est float64) float64 {
	if est > 0 && est < 1e-9 {
		return 1e-9
	}
	return est
}

// String summarizes the summary, for diagnostics.
func (s *Summary) String() string {
	return fmt.Sprintf("stats: %d triples, %d subjects, %d predicates, %d objects",
		s.Triples, s.DistinctS, s.DistinctP, s.DistinctO)
}
