package engine

import (
	"fmt"

	"patchindex/internal/core"
	"patchindex/internal/lis"
)

// Approximate query processing (the paper's future-work Section 7): the
// PatchIndex holds information valid for the major part of the data, so
// some query answers can be bounded from index statistics alone, without
// touching the table.

// ApproxDistinctBounds returns lower and upper bounds on the number of
// distinct values in a NUC-indexed column, computed in O(partitions)
// from index statistics: non-patch tuples are globally unique and
// disjoint from patch values, so they all count; the patches contribute
// between one distinct value (all exceptions share a value) and one per
// patch (every exception value singular after deletes eroded its
// partners).
func (t *Table) ApproxDistinctBounds(column string) (lo, hi uint64, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := t.indexes[column]
	if idx == nil {
		return 0, 0, fmt.Errorf("engine: no PatchIndex on %s.%s", t.name, column)
	}
	if idx[0].ConstraintKind() != core.NearlyUnique {
		return 0, 0, fmt.Errorf("engine: ApproxDistinctBounds requires a NUC index")
	}
	var rows, patches uint64
	for _, x := range idx {
		rows += x.Rows()
		patches += x.NumPatches()
	}
	nonPatch := rows - patches
	lo = nonPatch
	if patches > 0 {
		lo++
	}
	return lo, nonPatch + patches, nil
}

// SortednessRatio returns the fraction of tuples inside the maintained
// sorted run of a NSC-indexed column — an O(partitions) data quality
// indicator.
func (t *Table) SortednessRatio(column string) (float64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := t.indexes[column]
	if idx == nil {
		return 0, fmt.Errorf("engine: no PatchIndex on %s.%s", t.name, column)
	}
	if idx[0].ConstraintKind() != core.NearlySorted {
		return 0, fmt.Errorf("engine: SortednessRatio requires a NSC index")
	}
	var rows, patches uint64
	for _, x := range idx {
		rows += x.Rows()
		patches += x.NumPatches()
	}
	if rows == 0 {
		return 1, nil
	}
	return 1 - float64(patches)/float64(rows), nil
}

// PartitionStats is one partition's index health snapshot, the unit the
// maintenance daemon samples to decide where repair work pays off.
type PartitionStats struct {
	Partition     int
	Rows          uint64
	Patches       uint64
	ExceptionRate float64 // Patches / Rows (0 when empty)
	MemoryBytes   uint64
	Utilization   float64 // live fraction of patch storage (1 when empty)
}

// PartitionIndexStats returns each partition's health statistics for the
// PatchIndexes on column, or nil if the column has none. Partitions are
// sampled one at a time under their own partition lock, so the slice is
// not one consistent cut of the table — by design: the maintenance
// daemon must never gate concurrent writers on all partitions at once
// just to read counters, and per-partition repair decisions only need
// per-partition consistency.
func (t *Table) PartitionIndexStats(column string) []PartitionStats {
	t.mu.RLock()
	idx := t.indexes[column]
	t.mu.RUnlock()
	if idx == nil {
		return nil
	}
	out := make([]PartitionStats, len(idx))
	for p, x := range idx {
		t.lockPartition(p)
		rows, patches := x.Rows(), x.NumPatches()
		out[p] = PartitionStats{
			Partition:   p,
			Rows:        rows,
			Patches:     patches,
			MemoryBytes: x.MemoryBytes(),
			Utilization: x.Utilization(),
		}
		if rows > 0 {
			out[p].ExceptionRate = float64(patches) / float64(rows)
		}
		t.unlockPartition(p)
	}
	return out
}

// PartitionSortedness returns the exact sortedness of partition p of a
// NSC-indexed column: the length of the longest (ascending or
// descending, per the index) subsequence divided by the row count.
// Unlike SortednessRatio, which reads the maintained sorted-run length
// from index statistics, this measures the physically stored values —
// after enough churn the two diverge, and a partition whose physical
// sortedness collapsed is exactly one the maintenance daemon should
// hand to the sort-key reorderer. The column copy is taken under the
// partition lock; the O(n log n) LIS runs outside it.
func (t *Table) PartitionSortedness(column string, p int) (float64, error) {
	t.mu.RLock()
	idx := t.indexes[column]
	t.mu.RUnlock()
	if idx == nil || idx[0].ConstraintKind() != core.NearlySorted {
		return 0, fmt.Errorf("engine: PartitionSortedness requires a NSC index on %s.%s", t.name, column)
	}
	col := t.store.Schema().MustColumnIndex(column)
	t.lockPartition(p)
	vals := append([]int64(nil), t.viewLocked(p).MaterializeInt64(col)...)
	desc := idx[p].Descending()
	t.unlockPartition(p)
	if len(vals) == 0 {
		return 1, nil
	}
	return float64(lis.LongestLen(vals, desc)) / float64(len(vals)), nil
}
