package engine

import (
	"fmt"

	"patchindex/internal/core"
	"patchindex/internal/exec"
	"patchindex/internal/storage"
)

// Update queries (Section 5). Each entry point applies the table change
// through the positional delta, runs the PatchIndex update handlers of
// Table 1 for every index on the table, and finally checkpoints the
// delta when AutoCheckpoint is set. Handling happens immediately after
// the update, so the materialized constraint information never reaches
// an inconsistent state. Checkpoints consult the snapshot registry
// (see checkpointPartitionLocked): a delete/modify checkpoint clones a
// partition only while a live snapshot references its current
// generation, so the update path owes nothing to queries that already
// finished.
//
// Locking is partition-granular where maintenance allows it.
// DeleteRowIDs, and Modify of a column without a NUC index, touch only
// their target partition (delete handling and NSC modify handling are
// partition-local, Table 1), so they run under that partition's lock
// alone and disjoint-partition updates proceed in parallel. Insert and
// NUC-column Modify take the exclusive structure lock, because
// uniqueness is a global property (Section 5.1): Insert runs the Fig. 5
// collision join against every partition, and Modify classifies its
// new values from the exact per-partition counts of the sharded
// collision state (core.NUCState) and scans only the partitions that
// hold a colliding value. InsertRows (insert.go) is the
// partition-parallel insert path, which replaces the global join with
// the sharded collision state and falls back to an exclusive-lock
// exact retry on cross-partition candidate collisions. An auto-checkpoint inside a partition-scoped update
// propagates only that partition's delta; other partitions' deltas
// (pending from AutoCheckpoint-off phases) are left for their own
// updates or an explicit Checkpoint.
//
// Every path that changes a NUC column's values also maintains that
// column's sharded collision state (core.NUCState): inserts raise the
// partition-local counts (and seal newly duplicated values), deletes
// lower them, NUC-column modifies do both. The state's per-partition
// maps follow the same ownership as the index slots, so partition-
// scoped updates touch only their partition's map.

// changedRef identifies one inserted tuple across the partitioned
// table, together with its value in the indexed column.
type changedRef struct {
	part int
	rid  uint64
	val  int64
}

// The NUC insert-handling join carries (partition, rowID) pairs packed
// into a single int64 payload column: the low ridBits bits hold the
// partition-local rowID, the bits above hold the partition number. The
// packing silently corrupts for values outside these widths, so
// encodeRef rejects them; a partition beyond 2^23 or 2^40 rows in one
// partition is far past this reproduction's scale.
const (
	ridBits = 40
	maxRID  = uint64(1)<<ridBits - 1 // largest packable partition-local rowID
	maxPart = int(1)<<23 - 1         // keeps part<<ridBits within int64
)

// encodeRef packs a changedRef into one int64 join payload. It returns
// an error instead of corrupting the packed bits when either component
// exceeds its field width.
func encodeRef(part int, rid uint64) (int64, error) {
	if rid > maxRID {
		return 0, fmt.Errorf("engine: rowID %d exceeds the %d-bit NUC join payload (max %d)", rid, ridBits, maxRID)
	}
	if part < 0 || part > maxPart {
		return 0, fmt.Errorf("engine: partition %d exceeds the NUC join payload (max %d)", part, maxPart)
	}
	return int64(part)<<ridBits | int64(rid), nil
}

func decodeRef(enc int64) (part int, rid uint64) {
	return int(enc >> ridBits), uint64(enc & (1<<ridBits - 1))
}

// hasNUCIndex reports whether any column carries a NearlyUnique index —
// the only consumers of the packed join payload. Callers hold the table
// lock.
func (t *Table) hasNUCIndex() bool {
	for _, idx := range t.indexes {
		if len(idx) > 0 && idx[0].ConstraintKind() == core.NearlyUnique {
			return true
		}
	}
	return false
}

// nucCollisions runs the insert handling query of Fig. 5 against
// every partition: the changed tuples are the build side of a HashJoin
// whose build phase propagates the changed values as scan ranges onto
// each partition's table scan (dynamic range propagation); the rowIDs of
// both join sides are projected through an intermediate result cache and
// returned per partition. Self-matches (a changed tuple seeing itself)
// are filtered.
func (t *Table) nucCollisions(col int, changed []changedRef, changedStrs [][]string) ([]core.NUCJoinResult, error) {
	nparts := t.store.NumPartitions()
	out := make([]core.NUCJoinResult, nparts)
	if len(changed) == 0 {
		return out, nil
	}
	t.collisionJoins.Add(1)
	if t.store.Schema()[col].Kind == storage.KindString {
		t.stringCollisions(col, changedStrs, out)
		return out, nil
	}

	buildVals := make([]int64, len(changed))
	buildEnc := make([]int64, len(changed))
	for i, c := range changed {
		enc, err := encodeRef(c.part, c.rid)
		if err != nil {
			return nil, err
		}
		buildVals[i] = c.val
		buildEnc[i] = enc
	}
	buildSchema := storage.Schema{
		{Name: "v", Kind: storage.KindInt64},
		{Name: "enc", Kind: storage.KindInt64},
	}
	for p := 0; p < nparts; p++ {
		build := exec.NewVecSource(buildSchema, []exec.Vec{
			{Kind: storage.KindInt64, I64: buildVals},
			{Kind: storage.KindInt64, I64: buildEnc},
		}, nil)
		tableScan := exec.NewScan(t.viewLocked(p), []int{col})
		tableScan.SetPruneColumn(col)
		probe := exec.NewWithRowIDColumn(tableScan, "trid")
		join := exec.NewHashJoin(probe, build, 0, 0)
		join.EnableRangePropagation(tableScan, storage.BlockRows)

		cache := exec.NewReuseCache(join)
		if err := cache.MaterializeNow(); err != nil {
			return nil, err
		}
		load := cache.Load()
		for {
			b, err := load.Next()
			if err != nil {
				load.Close()
				return nil, err
			}
			if b == nil {
				break
			}
			trids := b.Cols[1].I64 // probe: [value, trid]
			encs := b.Cols[3].I64  // build: [value, enc]
			for i := range trids {
				bp, brid := decodeRef(encs[i])
				if bp == p && brid == uint64(trids[i]) {
					continue // a changed tuple matching itself
				}
				out[p].TableSide = append(out[p].TableSide, uint64(trids[i]))
				out[bp].InsertedSide = append(out[bp].InsertedSide, brid)
			}
		}
		load.Close()
	}
	return out, nil
}

// stringCollisions is the string-column variant of the collision query.
// The executor joins on int64 keys only, so string columns use an
// equivalent global hash lookup.
func (t *Table) stringCollisions(col int, changedStrs [][]string, out []core.NUCJoinResult) {
	nparts := t.store.NumPartitions()
	type ref struct {
		part int
		rid  uint64
	}
	byVal := make(map[string][]ref)
	baseRows := make([]int, nparts)
	for p := 0; p < nparts; p++ {
		all := t.viewLocked(p).MaterializeString(col)
		baseRows[p] = len(all) - len(changedStrs[p])
		for i, v := range all {
			byVal[v] = append(byVal[v], ref{part: p, rid: uint64(i)})
		}
	}
	for p := range changedStrs {
		for i, v := range changedStrs[p] {
			self := ref{part: p, rid: uint64(baseRows[p] + i)}
			for _, r := range byVal[v] {
				if r == self {
					continue
				}
				out[p].InsertedSide = append(out[p].InsertedSide, self.rid)
				out[r.part].TableSide = append(out[r.part].TableSide, r.rid)
			}
		}
	}
}

// DeleteRowIDs removes the tuples at the given strictly ascending
// partition-local rowIDs and maintains all PatchIndexes by dropping
// their tracking information (Section 5.3) — bulk delete for the bitmap
// design, decrement compaction for the identifier design. Delete
// handling is partition-local for every index kind, so only the target
// partition's lock is taken: deletes against disjoint partitions run in
// parallel.
func (db *Database) DeleteRowIDs(table string, partition int, rowIDs []uint64) error {
	t, err := db.LookupTable(table)
	if err != nil {
		return err
	}
	if partition < 0 || partition >= t.NumPartitions() {
		return fmt.Errorf("engine: table %q has no partition %d", table, partition)
	}
	t.lockPartition(partition)
	defer t.unlockPartition(partition)
	//pilint:ignore lockblock bitmap.BulkDelete's work channel is buffered and prefilled and its workers are CPU-bound shard shifts; delete maintenance owns the partition by design
	return t.deleteRowIDsLocked(db, partition, rowIDs)
}

// deleteRowIDsLocked applies one partition's delete. The caller holds
// the partition (partition lock or exclusive structure lock).
func (t *Table) deleteRowIDsLocked(db *Database, partition int, rowIDs []uint64) error {
	if len(rowIDs) == 0 {
		return nil
	}
	for i := 1; i < len(rowIDs); i++ {
		if rowIDs[i] <= rowIDs[i-1] {
			return fmt.Errorf("engine: delete rowIDs must be strictly ascending")
		}
	}
	// Bounds-check before ANY mutation: the collision-state decrements
	// below must not run for a batch that is about to be rejected — a
	// decremented count with the row still live would later classify a
	// re-insert of its value as fresh and miss the violation. Ascending
	// order makes checking the last rowID sufficient.
	if n := t.viewLocked(partition).NumRows(); int(rowIDs[len(rowIDs)-1]) >= n {
		return fmt.Errorf("engine: delete rowID %d out of range [0,%d) in partition %d",
			rowIDs[len(rowIDs)-1], n, partition)
	}
	// Write-ahead: the record lands after validation, before any
	// mutation, under the lock that owns this partition's segment.
	if t.wal != nil {
		if err := t.logWAL(t.wal.segs[partition], walOpDelete, encodeDelete(partition, rowIDs)); err != nil {
			return err
		}
	}
	// Fold the deleted occurrences out of the sharded collision state
	// before the delta forgets their values. A sealed duplicated value
	// stays sealed even when deletes erode it back to uniqueness (or to
	// zero occurrences, until an exclusive-lock prune drops it; see
	// core.NUCState.PruneSealed): surviving occurrences keep their
	// patch marks, and the exclusive insert/modify paths force-patch
	// any FRESH occurrence of a sealed value, so "every live occurrence
	// of a sealed value is a patch" keeps holding — the invariant the
	// parallel insert path's sealed shortcut relies on.
	if len(t.nuc) > 0 {
		view := t.viewLocked(partition)
		for column, st := range t.nuc {
			col := t.store.Schema().MustColumnIndex(column)
			if st.IsString() {
				for _, r := range rowIDs {
					st.RemoveLocalString(partition, view.Get(int(r), col).S)
				}
			} else {
				for _, r := range rowIDs {
					st.RemoveLocalInt64(partition, view.Get(int(r), col).I)
				}
			}
		}
	}
	logical := make([]int, len(rowIDs))
	for i, r := range rowIDs {
		logical[i] = int(r)
	}
	t.mutableDeltaLocked(partition).DeleteRows(logical)
	for column := range t.indexes {
		t.mutableIndexesLocked(column)[partition].HandleDelete(rowIDs)
	}
	if db.AutoCheckpoint {
		t.checkpointPartitionLocked(partition)
	}
	return nil
}

// DeleteWhereInt64 deletes all tuples whose value in column satisfies
// pred, across all partitions, and returns the number of deleted tuples.
// The scan-and-delete must observe and mutate one consistent table
// state, so it holds every partition lock for its duration.
func (db *Database) DeleteWhereInt64(table, column string, pred func(int64) bool) (int, error) {
	t, err := db.LookupTable(table)
	if err != nil {
		return 0, err
	}
	t.lockAllPartitions()
	defer t.unlockAllPartitions()
	col := t.store.Schema().MustColumnIndex(column)
	var total int
	for p := 0; p < t.store.NumPartitions(); p++ {
		vals := t.viewLocked(p).MaterializeInt64(col)
		var rowIDs []uint64
		for i, v := range vals {
			if pred(v) {
				rowIDs = append(rowIDs, uint64(i))
			}
		}
		if len(rowIDs) == 0 {
			continue
		}
		total += len(rowIDs)
		//pilint:ignore lockblock bitmap.BulkDelete's work channel is buffered and prefilled and its workers are CPU-bound shard shifts; delete maintenance owns the partition by design
		if err := t.deleteRowIDsLocked(db, p, rowIDs); err != nil {
			return total, err
		}
	}
	return total, nil
}

// Modify overwrites column values at the given ascending partition-local
// rowIDs and maintains all PatchIndexes (Section 5.2):
//
//   - NSC on the modified column: all modified tuples become patches.
//   - NUC on the modified column: the patches the Fig. 5 collision
//     join would add over the new values, against all partitions (no
//     bitmap reallocation — the cardinality is unchanged), found from
//     the sharded collision state's exact per-partition counts instead
//     of a join: its cost follows the modified rows and the partitions
//     holding a colliding value, not the table (modifyNUCLocked).
//   - Indexes on other columns are untouched (their values didn't
//     change).
func (db *Database) Modify(table string, partition int, rowIDs []uint64, column string, values []storage.Value) error {
	t, err := db.LookupTable(table)
	if err != nil {
		return err
	}
	if len(rowIDs) != len(values) {
		return fmt.Errorf("engine: Modify rowIDs/values length mismatch")
	}
	// Enforce the strictly-ascending (hence distinct) contract like
	// DeleteRowIDs does: a duplicated rowID would fold the same physical
	// row into the NUC collision counts twice — phantom counts that
	// wrongly seal its new value and permanently diverge from the table.
	for i := 1; i < len(rowIDs); i++ {
		if rowIDs[i] <= rowIDs[i-1] {
			return fmt.Errorf("engine: modify rowIDs must be strictly ascending")
		}
	}
	if partition < 0 || partition >= t.NumPartitions() {
		return fmt.Errorf("engine: table %q has no partition %d", table, partition)
	}

	if scoped, err := t.modifyPartitionScoped(db, partition, rowIDs, column, values); scoped {
		return err
	}

	// NUC maintenance reads the collision counts of every partition:
	// exclusive structure lock. modifyLocked re-reads the
	// index map under it, so a DropPatchIndex racing the dispatch gap
	// simply downgrades this to the (correct, coarser-locked) NSC path.
	t.mu.Lock()
	defer t.mu.Unlock()
	//pilint:ignore lockblock write-ahead: the WAL append inside must be ordered by the same lock that orders the mutation it logs (Durability, package docs)
	return t.modifyLocked(db, partition, rowIDs, column, values)
}

// modifyPartitionScoped runs the partition-scoped fast path: when the
// modified column carries no NUC index, all maintenance is local to the
// target partition (NSC modify handling, the delta, the checkpoint), so
// only that partition's lock is needed and modifies of disjoint
// partitions run in parallel. The dispatch check stays valid for the
// duration: index DDL needs the exclusive structure lock, which the
// held read lock excludes. scoped=false means the column is
// NUC-indexed and the caller must take the exclusive path.
func (t *Table) modifyPartitionScoped(db *Database, partition int, rowIDs []uint64, column string, values []storage.Value) (scoped bool, err error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if idx := t.indexes[column]; len(idx) != 0 && idx[0].ConstraintKind() == core.NearlyUnique {
		return false, nil
	}
	t.pmu[partition].Lock()
	defer t.pmu[partition].Unlock()
	//pilint:ignore lockblock write-ahead: the WAL append inside must be ordered by the same lock that orders the mutation it logs (Durability, package docs)
	return true, t.modifyLocked(db, partition, rowIDs, column, values)
}

// modifyLocked applies one partition's modify and its index
// maintenance. The caller holds partition `partition` — via its
// partition lock when the modified column has no NUC index, via the
// exclusive structure lock (which NUC modify handling needs) otherwise.
func (t *Table) modifyLocked(db *Database, partition int, rowIDs []uint64, column string, values []storage.Value) error {
	col := t.store.Schema().MustColumnIndex(column)
	// Write-ahead, after validation and before any mutation. The segment
	// mirrors the lock mode the dispatch chose (re-checked here, exactly
	// like the maintenance dispatch below): NUC-column modifies run under
	// the exclusive structure lock and log to the exclusive-op segment,
	// partition-scoped modifies own their partition and log to its
	// segment.
	if t.wal != nil {
		seg := t.wal.segs[partition]
		if idx := t.indexes[column]; len(idx) > 0 && idx[0].ConstraintKind() == core.NearlyUnique {
			seg = t.wal.excl
		}
		if err := t.logWAL(seg, walOpModify, encodeModify(t.store.Schema(), partition, column, rowIDs, values)); err != nil {
			return err
		}
	}
	// The modified column's collision state needs the outgoing values
	// before the delta overwrites them. Only NUC-column modifies carry
	// state, and they run under the exclusive structure lock, so the
	// whole-table bookkeeping in modifyNUCLocked is safe; rowIDs are
	// distinct, as the ascending contract implies.
	st := t.nuc[column]
	var old []storage.Value
	if st != nil {
		view := t.viewLocked(partition)
		old = make([]storage.Value, len(rowIDs))
		for i, r := range rowIDs {
			old[i] = view.Get(int(r), col)
		}
	}
	d := t.mutableDeltaLocked(partition)
	for i, r := range rowIDs {
		d.Modify(int(r), col, values[i])
	}
	if idx := t.indexes[column]; len(idx) > 0 {
		switch idx[0].ConstraintKind() {
		case core.NearlySorted:
			t.mutableIndexesLocked(column)[partition].HandleModifyNSC(rowIDs)
		case core.NearlyUnique:
			t.modifyNUCLocked(st, column, col, partition, rowIDs, old, values)
		}
	}
	if db.AutoCheckpoint {
		t.checkpointPartitionLocked(partition)
	}
	return nil
}

// modifyNUCLocked is NUC modify handling from the sharded collision
// state, after the delta took the new values. It adds exactly the
// patches of the Fig. 5 join over the new values (every other
// occurrence of a modified row's new value, and the row itself when
// there is one) without joining: the count maps move from the old
// values to the new ones, a new value occurring twice or more is a
// collision, and only the partitions whose counts hold a colliding
// value are scanned for its occurrences. A row whose new value is
// sealed is patched even without a collision (its other occurrences
// may all have been deleted), keeping every live occurrence of a
// sealed value a patch; such a value's other occurrences are patches
// already, so it needs no scan. The colliding values are sealed, the
// partition filter learns the new values, and saturated filters and a
// due sealed set are rebuilt. The caller holds the structure lock
// exclusively.
func (t *Table) modifyNUCLocked(st *core.NUCState, column string, col, partition int, rowIDs []uint64, old, values []storage.Value) {
	idx := t.mutableIndexesLocked(column)
	sealed := st.Sealed()
	var patched []uint64
	var collInt []int64
	var collStr []string
	if st.IsString() {
		for i := range rowIDs {
			st.RemoveLocalString(partition, old[i].S)
			st.AddLocalString(partition, values[i].S)
			st.AddBloomString(partition, values[i].S)
		}
		for i, r := range rowIDs {
			v := values[i].S
			if sealed.ContainsString(v) {
				patched = append(patched, r)
			} else if st.GlobalCountString(v) > 1 {
				patched = append(patched, r)
				collStr = append(collStr, v)
			}
		}
	} else {
		for i := range rowIDs {
			st.RemoveLocalInt64(partition, old[i].I)
			st.AddLocalInt64(partition, values[i].I)
			st.AddBloomInt64(partition, values[i].I)
		}
		for i, r := range rowIDs {
			v := values[i].I
			if sealed.ContainsInt64(v) {
				patched = append(patched, r)
			} else if st.GlobalCountInt64(v) > 1 {
				patched = append(patched, r)
				collInt = append(collInt, v)
			}
		}
	}
	idx[partition].AddPatches(patched)
	for q := range idx {
		var ints []int64
		var strs []string
		for _, v := range collInt {
			if st.LocalCountInt64(q, v) > 0 {
				ints = append(ints, v)
			}
		}
		for _, v := range collStr {
			if st.LocalCountString(q, v) > 0 {
				strs = append(strs, v)
			}
		}
		idx[q].AddPatches(t.occurrencesLocked(q, col, ints, strs))
	}
	st.SealDuplicatesInt64(collInt)
	st.SealDuplicatesString(collStr)
	st.RebuildOverfullBlooms()
	st.PruneSealed()
}
