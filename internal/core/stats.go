package core

import "hexastore/internal/idlist"

// Stats describes the physical size of a Hexastore in index entries, the
// unit the paper's space argument (§4.1) is phrased in: each resource of
// a worst-case triple contributes two header entries, two vector entries
// and one terminal-list entry — five entries versus one triples-table
// cell, hence the quintuple worst-case bound.
type Stats struct {
	Triples int // distinct triples stored

	Headers       int // head resources summed over the six indices
	VectorEntries int // (key, list-pointer) pairs summed over the six indices
	ListEntries   int // ids summed over the three shared terminal-list tables

	// TripleTableEntries is the baseline: 3 cells per triple.
	TripleTableEntries int
}

// TotalEntries returns all resource-key slots the six indices occupy.
func (s Stats) TotalEntries() int { return s.Headers + s.VectorEntries + s.ListEntries }

// ExpansionFactor returns TotalEntries divided by the triples-table
// entries — the paper's space-overhead metric, ≤ 5 in the worst case.
func (s Stats) ExpansionFactor() float64 {
	if s.TripleTableEntries == 0 {
		return 0
	}
	return float64(s.TotalEntries()) / float64(s.TripleTableEntries)
}

// entryBytes is the size of one dictionary key in every physical layout
// of this repository (IDs are uint64).
const entryBytes = 8

// SizeBytes estimates the index memory footprint (excluding the
// dictionary): one 8-byte slot per entry plus per-vector and per-list
// header overheads. Used by the Figure 15 experiment.
func (s Stats) SizeBytes() int64 {
	return int64(s.TotalEntries()) * entryBytes
}

// Stats computes the current sizes. It is O(#vectors) — the per-list
// lengths are summed from the shared tables (raw layout) or the packed
// vectors' stored totals (compressed layout; the spo/sop/pos totals
// equal the three shared tables' entry counts, so the two layouts
// report identical logical sizes).
func (st *Store) Stats() Stats {
	st.mu.RLock()
	defer st.mu.RUnlock()

	var out Stats
	out.Triples = st.size
	out.TripleTableEntries = st.size * 3

	if st.compressed {
		for i := range st.pidx {
			out.Headers += len(st.pidx[i])
			for _, pk := range st.pidx[i] {
				out.VectorEntries += pk.Len()
			}
		}
		for _, ix := range [3]Index{SPO, SOP, POS} {
			for _, pk := range st.pidx[ix] {
				out.ListEntries += pk.Total()
			}
		}
		return out
	}
	for i := range st.idx {
		out.Headers += len(st.idx[i])
		for _, vec := range st.idx[i] {
			out.VectorEntries += vec.Len()
		}
	}
	for _, l := range st.objLists {
		out.ListEntries += l.Len()
	}
	for _, l := range st.propLists {
		out.ListEntries += l.Len()
	}
	for _, l := range st.subjLists {
		out.ListEntries += l.Len()
	}
	return out
}

// IndexStats is the physical (heap-byte) counterpart of Stats: an
// estimate of what the six indexes actually cost in memory under the
// current layout, plus what the same content would cost in the other
// layout — the space01 experiment's measurement.
type IndexStats struct {
	// Triples is the number of distinct triples stored.
	Triples int `json:"triples"`
	// Compressed reports the current layout.
	Compressed bool `json:"compressed"`
	// Bytes estimates the heap footprint of the six indexes (maps,
	// vector structures, keys, terminal lists; the dictionary is
	// excluded) under the current layout.
	Bytes int64 `json:"bytes"`
}

// BytesPerTriple returns Bytes / Triples.
func (s IndexStats) BytesPerTriple() float64 {
	if s.Triples == 0 {
		return 0
	}
	return float64(s.Bytes) / float64(s.Triples)
}

// Estimated per-structure heap costs, in bytes. Slice headers are 24,
// pointers and IDs 8; mapSlack models Go map bucket overhead and load
// factor (~1.5x the entry payload); allocSlack is the allocator's
// per-object header/rounding.
const (
	sliceHeader  = 24
	mapSlack     = 3 // numerator of the 3/2 map overhead factor
	allocSlack   = 16
	vecStruct    = 2*sliceHeader + 8  // keys, lists, packed pointer
	listStruct   = sliceHeader + 8    // ids + comp pointer
	packedStruct = 16 + sliceHeader*3 // nKeys+total, data, skipKey+skipOff
)

// mapBytes estimates a Go map holding n entries of entrySize payload.
func mapBytes(n, entrySize int) int64 {
	return int64(n) * int64(entrySize) * mapSlack / 2
}

// IndexBytes estimates the heap bytes the six indexes occupy under the
// current layout. Raw layout: head maps, Vec structs with key and
// list-pointer slices, the three shared pair maps, and one List
// allocation plus 8 bytes per id per shared terminal list. Compressed
// layout: head maps, Vec structs, and each packed vector's blob and
// skip table. The estimate deliberately counts structure overheads
// (slice headers, map slack, allocator rounding) — they are where the
// raw layout's bytes actually go on short-list RDF data, and omitting
// them would overstate the compression win.
func (st *Store) IndexBytes() int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var total int64
	if st.compressed {
		for i := range st.pidx {
			// Head map entry: ID key + *Packed value.
			total += mapBytes(len(st.pidx[i]), 16)
			for _, pk := range st.pidx[i] {
				total += packedStruct + allocSlack + int64(pk.SizeBytes())
			}
		}
		return total
	}
	for i := range st.idx {
		// Head map entry: ID key + *Vec value.
		total += mapBytes(len(st.idx[i]), 16)
		for _, vec := range st.idx[i] {
			total += vecStruct + allocSlack + int64(vec.Len())*16 // 8B key + 8B list pointer
		}
	}
	for _, m := range []map[pairKey]*idlist.List{st.objLists, st.propLists, st.subjLists} {
		// Pair map entry: 16B pairKey + 8B pointer.
		total += mapBytes(len(m), 24)
		for _, l := range m {
			total += listStruct + allocSlack + int64(l.Len())*8
		}
	}
	return total
}

// IndexStats reports the store's physical index footprint.
func (st *Store) IndexStats() IndexStats {
	return IndexStats{
		Triples:    st.Len(),
		Compressed: st.Compressed(),
		Bytes:      st.IndexBytes(),
	}
}

// EstimateRawIndexBytes estimates what the logical content described
// by s would cost in the raw (uncompressed) layout, using the same
// per-structure constants as IndexBytes. The server's /stats uses it
// to report a compression ratio for a compressed store without
// building the raw twin; on a raw store it coincides with IndexBytes
// up to rounding.
func EstimateRawIndexBytes(s Stats) int64 {
	pairs := s.VectorEntries / 2 // each shared list is referenced by two vectors
	return mapBytes(s.Headers, 16) +
		int64(s.Headers)*(vecStruct+allocSlack) +
		int64(s.VectorEntries)*16 +
		mapBytes(pairs, 24) +
		int64(pairs)*(listStruct+allocSlack) +
		int64(s.ListEntries)*8
}

// PredicateCounts is one predicate's share of the store: its triples
// and its distinct subjects and objects.
type PredicateCounts struct {
	P                          ID
	Triples, Subjects, Objects int
}

// Predicates returns the counts of every predicate, in unspecified
// order, read off the pso and pos head vectors (lengths and list
// totals) without touching a triple. The whole read happens under one
// read-lock acquisition, so it is safe alongside writers.
func (st *Store) Predicates() []PredicateCounts {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.compressed {
		out := make([]PredicateCounts, 0, len(st.pidx[PSO]))
		for p, pk := range st.pidx[PSO] {
			out = append(out, PredicateCounts{P: p, Triples: pk.Total(), Subjects: pk.Len(), Objects: st.pidx[POS][p].Len()})
		}
		return out
	}
	out := make([]PredicateCounts, 0, len(st.idx[PSO]))
	for p, v := range st.idx[PSO] {
		out = append(out, PredicateCounts{P: p, Triples: vecSumLocked(v), Subjects: v.Len(), Objects: st.idx[POS][p].Len()})
	}
	return out
}
