package core

import "patchindex/internal/lis"

// Update handling per Table 1 of the paper. Delete handling for both
// constraints is Index.HandleDelete. NUC insert handling runs the join
// query of Fig. 5 — built from executor operators by the engine
// package, which feeds the resulting rowIDs into HandleInsertNUC; see
// engine.(*Database).Insert. NUC modify handling adds the same patches
// the Fig. 5 join would, but the engine classifies the new values from
// the sharded collision state (NUCState's exact per-partition counts)
// instead of joining, and marks the rows with AddPatches; see
// engine.(*Database).Modify. The NSC handlers below are local
// computations on the inserted/modified values and live here.

// HandleInsertNSC processes an insert of the given values (appended at
// the logical end of the indexed column, in order) for a nearly sorted
// column: it determines a new sorted subsequence extending the existing
// one (Section 5.1). Values that extend the subsequence — computed as a
// longest sorted subsequence of the inserted values restricted to values
// beyond the tracked tail — remain constraint-satisfying; all other
// inserted tuples become patches. The index grows by len(values).
//
// As the paper notes, this may lose optimality (the extension is locally,
// not globally, longest), which the recompute monitor covers.
func (x *Index) HandleInsertNSC(values []int64) (newPatches int) {
	if x.constraint != NearlySorted {
		panic("core: HandleInsertNSC on a non-NSC index")
	}
	base := x.rows
	x.Extend(uint64(len(values)))
	if len(values) == 0 {
		return 0
	}

	// Candidates: inserted values that can extend the existing sorted
	// subsequence, i.e. are beyond its last value.
	candIdx := make([]int, 0, len(values))
	for i, v := range values {
		if !x.hasLastValue || beyond(v, x.lastValue, x.opts.Descending) {
			candIdx = append(candIdx, i)
		}
	}
	extension := map[int]bool{}
	if len(candIdx) > 0 {
		candVals := make([]int64, len(candIdx))
		for i, ci := range candIdx {
			candVals[i] = values[ci]
		}
		sub := lis.Longest(candVals, x.opts.Descending)
		for _, s := range sub {
			extension[candIdx[s]] = true
		}
		x.lastValue = candVals[sub[len(sub)-1]]
		x.hasLastValue = true
	}

	patches := make([]uint64, 0, len(values)-len(extension))
	for i := range values {
		if !extension[i] {
			patches = append(patches, base+uint64(i))
		}
	}
	x.AddPatches(patches)
	return len(patches)
}

// beyond reports whether v can follow tail in the maintained sort order.
// Equal values keep a non-decreasing (non-increasing) run sorted.
func beyond(v, tail int64, desc bool) bool {
	if desc {
		return v <= tail
	}
	return v >= tail
}

// HandleModifyNSC processes a modify of the tuples at the given rowIDs
// for a nearly sorted column: all modified tuples join the patch set,
// as new values may destroy the sorted subsequence (Section 5.2). No
// query is needed; the handling is free of table access.
func (x *Index) HandleModifyNSC(rowIDs []uint64) {
	if x.constraint != NearlySorted {
		panic("core: HandleModifyNSC on a non-NSC index")
	}
	x.AddPatches(sortedU64(rowIDs))
}

// NUCJoinResult carries the projected rowIDs of the insert-handling join
// (Fig. 5): pairs of (inserted-tuple rowID, matching-table-tuple rowID)
// for every value collision. Both sides become patches.
type NUCJoinResult struct {
	InsertedSide []uint64
	TableSide    []uint64
}

// HandleInsertNUC merges the join result of the NUC insert handling
// query into the patch set after the index has been extended by the
// inserted tuples. The caller (the engine) runs the Fig. 5 query —
// scanning the inserted tuples from the PDT, joining them against the
// table with dynamic range propagation, and projecting both sides'
// rowIDs via intermediate result caching.
func (x *Index) HandleInsertNUC(inserted int, join NUCJoinResult) {
	if x.constraint != NearlyUnique {
		panic("core: HandleInsertNUC on a non-NUC index")
	}
	x.Extend(uint64(inserted))
	x.AddPatches(sortedU64(join.InsertedSide))
	x.AddPatches(sortedU64(join.TableSide))
}
