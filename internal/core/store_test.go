package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"hexastore/internal/rdf"
)

func TestAddAndHas(t *testing.T) {
	st := New()
	if !st.Add(1, 2, 3) {
		t.Fatal("Add new triple reported no change")
	}
	if st.Add(1, 2, 3) {
		t.Fatal("Add duplicate reported change")
	}
	if !st.Has(1, 2, 3) {
		t.Error("Has(1,2,3) = false")
	}
	if st.Has(1, 2, 4) || st.Has(3, 2, 1) {
		t.Error("Has reported absent triple present")
	}
	if st.Len() != 1 {
		t.Errorf("Len = %d, want 1", st.Len())
	}
}

func TestAddRejectsNone(t *testing.T) {
	st := New()
	if st.Add(None, 1, 2) || st.Add(1, None, 2) || st.Add(1, 2, None) {
		t.Error("Add with None id reported change")
	}
	if st.Len() != 0 {
		t.Errorf("Len = %d, want 0", st.Len())
	}
}

func TestRemove(t *testing.T) {
	st := New()
	st.Add(1, 2, 3)
	st.Add(1, 2, 4)
	if !st.Remove(1, 2, 3) {
		t.Fatal("Remove existing reported no change")
	}
	if st.Remove(1, 2, 3) {
		t.Fatal("Remove twice reported change")
	}
	if st.Remove(9, 9, 9) {
		t.Fatal("Remove absent reported change")
	}
	if st.Has(1, 2, 3) {
		t.Error("removed triple still present")
	}
	if !st.Has(1, 2, 4) {
		t.Error("sibling triple vanished")
	}
	if st.Len() != 1 {
		t.Errorf("Len = %d, want 1", st.Len())
	}
}

func TestRemovePrunesEmptyStructures(t *testing.T) {
	st := New()
	st.Add(1, 2, 3)
	st.Remove(1, 2, 3)
	for _, ix := range AllIndexes {
		if n := st.Heads(ix); n != 0 {
			t.Errorf("index %v has %d heads after full removal", ix, n)
		}
	}
	stats := st.Stats()
	if stats.TotalEntries() != 0 {
		t.Errorf("TotalEntries = %d after full removal", stats.TotalEntries())
	}
}

// allSixViews extracts the triple set as seen through each of the six
// indices; they must agree exactly.
func allSixViews(st *Store) [6]map[[3]ID]bool {
	var views [6]map[[3]ID]bool
	extract := func(ix Index, assemble func(head, key, member ID) [3]ID) map[[3]ID]bool {
		set := make(map[[3]ID]bool)
		for _, head := range st.HeadIDs(ix) {
			vec := st.Head(ix, head)
			for i := 0; i < vec.Len(); i++ {
				key := vec.Key(i)
				list := vec.List(i)
				for j := 0; j < list.Len(); j++ {
					set[assemble(head, key, list.At(j))] = true
				}
			}
		}
		return set
	}
	views[SPO] = extract(SPO, func(s, p, o ID) [3]ID { return [3]ID{s, p, o} })
	views[SOP] = extract(SOP, func(s, o, p ID) [3]ID { return [3]ID{s, p, o} })
	views[PSO] = extract(PSO, func(p, s, o ID) [3]ID { return [3]ID{s, p, o} })
	views[POS] = extract(POS, func(p, o, s ID) [3]ID { return [3]ID{s, p, o} })
	views[OSP] = extract(OSP, func(o, s, p ID) [3]ID { return [3]ID{s, p, o} })
	views[OPS] = extract(OPS, func(o, p, s ID) [3]ID { return [3]ID{s, p, o} })
	return views
}

func TestSixIndexesStayConsistentUnderRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	st := New()
	model := make(map[[3]ID]bool)

	for op := 0; op < 5000; op++ {
		s := ID(rng.Intn(20) + 1)
		p := ID(rng.Intn(8) + 1)
		o := ID(rng.Intn(25) + 1)
		key := [3]ID{s, p, o}
		if rng.Intn(3) == 0 {
			changed := st.Remove(s, p, o)
			if changed != model[key] {
				t.Fatalf("op %d: Remove(%v) = %v, model has %v", op, key, changed, model[key])
			}
			delete(model, key)
		} else {
			changed := st.Add(s, p, o)
			if changed == model[key] {
				t.Fatalf("op %d: Add(%v) = %v, model has %v", op, key, changed, model[key])
			}
			model[key] = true
		}
	}

	if st.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d", st.Len(), len(model))
	}
	views := allSixViews(st)
	for ix, view := range views {
		if len(view) != len(model) {
			t.Fatalf("index %v sees %d triples, model has %d", Index(ix), len(view), len(model))
		}
		for tr := range model {
			if !view[tr] {
				t.Fatalf("index %v missing triple %v", Index(ix), tr)
			}
		}
	}
}

func TestSharedTerminalLists(t *testing.T) {
	st := New()
	st.Add(1, 2, 3)
	st.Add(1, 2, 4)

	spoList, ok := st.Head(SPO, 1).Find(2)
	if !ok {
		t.Fatal("spo vector missing property 2")
	}
	psoList, ok := st.Head(PSO, 2).Find(1)
	if !ok {
		t.Fatal("pso vector missing subject 1")
	}
	if spoList != psoList {
		t.Error("spo and pso do not share the same object list pointer")
	}

	sopList, _ := st.Head(SOP, 1).Find(3)
	ospList, _ := st.Head(OSP, 3).Find(1)
	if sopList != ospList {
		t.Error("sop and osp do not share the same property list pointer")
	}

	posList, _ := st.Head(POS, 2).Find(3)
	opsList, _ := st.Head(OPS, 3).Find(2)
	if posList != opsList {
		t.Error("pos and ops do not share the same subject list pointer")
	}
}

// TestWorstCaseSpaceBound verifies the paper's §4.1 space argument: for a
// dataset where every resource occurs exactly once, each resource key
// occupies exactly five entries (2 headers + 2 vector slots + 1 list
// slot), i.e. the expansion factor over a triples table is exactly 5.
func TestWorstCaseSpaceBound(t *testing.T) {
	st := New()
	// Disjoint resources: triple i is (3i+1, 3i+2, 3i+3).
	const n = 100
	for i := 0; i < n; i++ {
		st.Add(ID(3*i+1), ID(3*i+2), ID(3*i+3))
	}
	stats := st.Stats()
	if stats.Headers != 6*n {
		t.Errorf("Headers = %d, want %d", stats.Headers, 6*n)
	}
	if stats.VectorEntries != 6*n {
		t.Errorf("VectorEntries = %d, want %d", stats.VectorEntries, 6*n)
	}
	if stats.ListEntries != 3*n {
		t.Errorf("ListEntries = %d, want %d", stats.ListEntries, 3*n)
	}
	if got := stats.ExpansionFactor(); got != 5.0 {
		t.Errorf("ExpansionFactor = %v, want exactly 5 in the worst case", got)
	}
}

// TestSpaceBelowWorstCaseWithSharing: when resources repeat, the factor
// drops below 5 (the paper: "In practice, the requirement can be lower").
func TestSpaceBelowWorstCaseWithSharing(t *testing.T) {
	st := New()
	for s := ID(1); s <= 10; s++ {
		for o := ID(100); o < 110; o++ {
			st.Add(s, 50, o) // single property, dense s×o
		}
	}
	f := st.Stats().ExpansionFactor()
	if f >= 5.0 {
		t.Errorf("ExpansionFactor = %v, want < 5 for repeating resources", f)
	}
	if f <= 0 {
		t.Errorf("ExpansionFactor = %v, want > 0", f)
	}
}

func TestAccessors(t *testing.T) {
	st := New()
	st.Add(1, 2, 3)
	st.Add(1, 2, 5)
	st.Add(4, 2, 3)
	st.Add(1, 7, 3)

	if got := st.Objects(1, 2).IDs(); !reflect.DeepEqual(got, []ID{3, 5}) {
		t.Errorf("Objects(1,2) = %v, want [3 5]", got)
	}
	if got := st.Subjects(2, 3).IDs(); !reflect.DeepEqual(got, []ID{1, 4}) {
		t.Errorf("Subjects(2,3) = %v, want [1 4]", got)
	}
	if got := st.Properties(1, 3).IDs(); !reflect.DeepEqual(got, []ID{2, 7}) {
		t.Errorf("Properties(1,3) = %v, want [2 7]", got)
	}
	if st.Objects(9, 9) != nil {
		t.Error("Objects on absent pair != nil")
	}
}

func TestHeadVectorsSorted(t *testing.T) {
	st := New()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		st.Add(ID(rng.Intn(10)+1), ID(rng.Intn(10)+1), ID(rng.Intn(10)+1))
	}
	for _, ix := range AllIndexes {
		for _, head := range st.HeadIDs(ix) {
			vec := st.Head(ix, head)
			keys := vec.Keys()
			if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
				t.Fatalf("index %v head %d has unsorted keys %v", ix, head, keys)
			}
			for i := 0; i < vec.Len(); i++ {
				ids := vec.List(i).IDs()
				if !sort.SliceIsSorted(ids, func(a, b int) bool { return ids[a] < ids[b] }) {
					t.Fatalf("index %v head %d key %d has unsorted list %v", ix, head, vec.Key(i), ids)
				}
			}
		}
	}
}

func TestAddTriple(t *testing.T) {
	st := New()
	s, p, o, added := st.AddTriple(rdf.T(rdf.NewIRI("s"), rdf.NewIRI("p"), rdf.NewLiteral("o")))
	if !added {
		t.Fatal("AddTriple reported no change")
	}
	if !st.Has(s, p, o) {
		t.Error("encoded triple not present")
	}
	if _, _, _, added := st.AddTriple(rdf.Triple{}); added {
		t.Error("AddTriple accepted invalid triple")
	}
	if st.Dictionary().Len() != 3 {
		t.Errorf("dictionary has %d terms, want 3 (invalid triple must not encode)", st.Dictionary().Len())
	}
}

func TestIndexString(t *testing.T) {
	want := []string{"spo", "sop", "pso", "pos", "osp", "ops"}
	for i, ix := range AllIndexes {
		if ix.String() != want[i] {
			t.Errorf("Index(%d).String() = %q, want %q", i, ix.String(), want[i])
		}
	}
	if Index(99).String() != "invalid" {
		t.Errorf("Index(99).String() = %q", Index(99).String())
	}
}
