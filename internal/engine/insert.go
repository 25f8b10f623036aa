package engine

import (
	"fmt"

	"patchindex/internal/core"
	"patchindex/internal/storage"
)

// Insert paths. Two entry points append rows:
//
//   - Insert: the original table-wide update query. It holds the
//     exclusive structure lock for the whole insert because NUC insert
//     handling runs the Fig. 5 collision join against every partition
//     (uniqueness is a global property, Section 5.1).
//   - InsertRows / InsertRowsPartition: the partition-parallel path.
//     The batch is pre-partitioned, and each partition chunk is applied
//     under the shared structure lock plus that partition's lock (the
//     same writer mode DeleteRowIDs uses), so concurrent batches — and
//     concurrent deletes, modifies, and snapshot queries — interleave
//     at partition granularity instead of serializing on the table.
//
// What makes the parallel path safe for NUC-indexed tables is the
// sharded collision state (core.NUCState): instead of joining against
// every partition, a batch classifies each inserted value from three
// sources that never require a foreign partition's lock —
//
//  1. the partition-local value counts (owned by the partition lock):
//     a hit is a purely local collision, patched in place;
//  2. the sealed global exception set (an immutable snapshot read
//     lock-free): a hit means every existing occurrence is already a
//     patch, so only the new tuple is patched, locally;
//  3. the per-partition Bloom filters of the OTHER partitions: a hit is
//     a cross-partition candidate collision, and the batch falls back
//     to the exclusive-lock collision join. False positives cost a
//     redundant fallback; false negatives cannot occur.
//
// Batches racing the SAME value are caught without any shared mutex, by
// an optimistic pre-publication protocol: a batch first adds every
// inserted value to its target partition's filter (lock-free atomic
// word sets), and only then probes the foreign filters. sync/atomic
// operations are sequentially consistent, so two racing batches cannot
// both order their probes before the other's adds — at least one of
// them observes the other's value, treats it as a cross-partition
// candidate, and falls back to the exclusive join, whose lock waits out
// the other batch (which holds the structure lock shared) before
// joining against the committed table. Races confined to ONE partition
// need no filters at all: the partition lock serializes the chunks and
// the second one sees the first's rows in the partition-local counts.
//
// Visibility: a multi-partition InsertRows batch commits chunk by chunk
// in ascending partition order. A concurrent snapshot (which takes the
// partition locks in the same order) observes a PREFIX of the batch's
// chunks — each chunk atomically, never a torn chunk. Callers that need
// the old all-or-nothing visibility keep using Insert, or direct a
// batch at a single partition with InsertRowsPartition.

// fastInsertCol is one NUC column's share of a fast-path insert plan.
type fastInsertCol struct {
	column string
	col    int
	isInt  bool
	state  *core.NUCState
	// sealed is the exception-set snapshot the batch classified against.
	sealed *core.NUCExceptions
	// intVals/strVals[p] are the batch's values landing in partition p.
	intVals [][]int64
	strVals [][]string
	// knownPatch[p][i]: the i-th row of partition p's chunk is a patch
	// known before any partition work — its value is sealed, occurs
	// more than once within the batch itself, or (exact mode) already
	// exists in a foreign partition.
	knownPatch [][]bool
	// foreignHits[q] (exact mode only): batch values that already occur
	// in foreign partition q per the count maps — real cross-partition
	// collisions, repeats allowed. The retry patches q's existing
	// occurrences straight from these values instead of re-running the
	// Fig. 5 global join.
	foreignHitsInt map[int][]int64
	foreignHitsStr map[int][]string
	// dupTargets maps a batch-internal duplicate value to the set of
	// partitions the batch inserts it into: those partitions are
	// excluded from the value's foreign probes (the pre-published bits
	// would otherwise read as a self-collision; occurrences inside a
	// target partition are found by its chunk's local counts instead).
	dupTargetsInt map[int64]map[int]bool
	dupTargetsStr map[string]map[int]bool
	// newDup collects values to seal at publication: batch-internal
	// duplicates (found while planning) and local collisions (found by
	// the chunk workers). Duplicate entries are fine.
	newDupInt []int64
	newDupStr []string
}

type fastInsertPlan struct {
	cols []fastInsertCol
}

func (pl *fastInsertPlan) colIndex(column string) int {
	for i := range pl.cols {
		if pl.cols[i].column == column {
			return i
		}
	}
	return -1
}

// InsertStats reports how many InsertRows/InsertRowsPartition batches
// took the partition-parallel fast path vs fell back to the
// exclusive-lock collision join — the observability hook tests and
// benchmarks use to pin the fast path's coverage.
func (t *Table) InsertStats() (fast, fallback uint64) {
	return t.fastInserts.Load(), t.fallbackInserts.Load()
}

// CollisionJoins reports how many global collision handling queries
// (the Fig. 5 join, or its string-column equivalent) the table has run.
// Insert is its only source: NUC-column Modify and the
// partition-parallel insert path resolve even real cross-partition
// collisions from the count maps without it.
func (t *Table) CollisionJoins() uint64 { return t.collisionJoins.Load() }

// roundRobin distributes rows over partitions the way Insert always
// has: row i goes to partition i mod nparts.
func roundRobin(rows []storage.Row, nparts int) [][]storage.Row {
	perPart := make([][]storage.Row, nparts)
	for i, r := range rows {
		p := i % nparts
		perPart[p] = append(perPart[p], r)
	}
	return perPart
}

func (t *Table) validateRowWidths(rows []storage.Row) error {
	want := len(t.store.Schema())
	for _, r := range rows {
		if len(r) != want {
			return fmt.Errorf("engine: row width %d != schema width %d of table %q", len(r), want, t.name)
		}
	}
	return nil
}

// Insert appends rows, distributing them over partitions round-robin,
// and maintains all PatchIndexes:
//
//   - NUC: the Fig. 5 insert handling query — scan the inserted tuples
//     (from the PDT), join them against the table including the inserts,
//     with dynamic range propagation pruning the table scan, and merge
//     the rowIDs of both join sides into the patches. Uniqueness relies
//     on a global view, so the join probes every partition — Insert
//     holds the exclusive structure lock throughout and the whole batch
//     becomes visible atomically. InsertRows is the partition-parallel
//     alternative.
//   - NSC: extend the materialized sorted subsequence with a longest
//     sorted subsequence of the inserted values; the rest become patches
//     (partition-local).
func (db *Database) Insert(table string, rows []storage.Row) error {
	t, err := db.LookupTable(table)
	if err != nil {
		return err
	}
	// Validate widths before any delta mutation: a malformed row failing
	// partway through the partition chunks would leave earlier chunks
	// appended with no index maintenance run for them.
	if err := t.validateRowWidths(rows); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	//pilint:ignore lockblock write-ahead: the WAL append inside must be ordered by the same lock that orders the mutation it logs (Durability, package docs)
	return t.insertExclusiveLocked(db, roundRobin(rows, t.store.NumPartitions()))
}

// InsertRows appends a batch of rows through the partition-parallel
// insert path: the batch is pre-partitioned round-robin (the same
// distribution Insert uses) and each partition chunk is applied under
// the shared structure lock plus that partition's lock, so concurrent
// batches, partition-scoped updates, and snapshot queries proceed in
// parallel. Tables with NUC indexes stay on this path as long as every
// inserted value is classifiable from partition-local state and the
// sealed exception set; a cross-partition candidate collision — real,
// a filter false positive, or a value raced by a concurrent batch —
// falls the whole batch back to the exclusive lock, which re-checks
// exactly against the count maps and patches genuine cross-partition
// collisions without Insert's collision join.
//
// Chunks commit in ascending partition order; a concurrent snapshot may
// observe a prefix of them (each chunk atomically). Use Insert or
// InsertRowsPartition when the whole batch must appear atomically.
func (db *Database) InsertRows(table string, rows []storage.Row) error {
	t, err := db.LookupTable(table)
	if err != nil {
		return err
	}
	if err := t.validateRowWidths(rows); err != nil {
		return err
	}
	return t.insertPartitioned(db, roundRobin(rows, t.store.NumPartitions()))
}

// InsertRowsPartition appends the whole batch to one partition through
// the partition-parallel insert path — the entry point for callers that
// shard rows themselves (one writer per partition). The batch is a
// single chunk, so it becomes visible atomically, like any other
// partition-scoped update.
func (db *Database) InsertRowsPartition(table string, partition int, rows []storage.Row) error {
	t, err := db.LookupTable(table)
	if err != nil {
		return err
	}
	if partition < 0 || partition >= t.NumPartitions() {
		return fmt.Errorf("engine: table %q has no partition %d", table, partition)
	}
	if err := t.validateRowWidths(rows); err != nil {
		return err
	}
	perPart := make([][]storage.Row, t.store.NumPartitions())
	perPart[partition] = rows
	return t.insertPartitioned(db, perPart)
}

// insertPartitioned drives one pre-partitioned batch: classify and
// pre-publish under the shared structure lock, apply each chunk under
// its partition lock, then seal the discovered duplicates. A planning
// rejection — a cross-partition candidate collision, including a value
// raced by a concurrent batch and seen through its pre-published
// filter bits — falls back to the exclusive lock, where an exact
// re-classification against the count maps resolves even REAL
// cross-partition collisions shardedly: the colliding values are known
// per foreign partition, so their existing occurrences are patched by
// per-partition value scans, never the Fig. 5 global join (which stays
// the paper's Insert path of record).
func (t *Table) insertPartitioned(db *Database, perPart [][]storage.Row) error {
	first, done, err := t.insertFastPath(db, perPart)
	if done {
		// The fast path cannot prune the sealed sets it grew (pruning
		// needs every partition); when one is due, prune it now, at the
		// end of the same operation as Insert or the retry would.
		if first.pruneDue() {
			t.pruneSealed()
		}
		return err
	}
	// The rejected attempt pre-published this batch's values; their
	// ledger entries must outlive the retry below (they keep a
	// concurrent filter rebuild from dropping the bits before the
	// retry commits the counts), so they retire only on the way out.
	defer unpublish(first)
	t.fallbackInserts.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	// Most fallbacks are filter artifacts (saturation or a false
	// positive), not real collisions. Under the exclusive lock the
	// count maps of every partition are readable, so the retry
	// re-classifies EXACTLY: foreign count hits become foreignHits
	// entries (patched after the chunks land) instead of rejections.
	// The exact plan consults no filters and publishes no bits (the
	// rejected attempt already pre-published this batch's values);
	// saturated filters are rebuilt AFTER the chunks commit, when the
	// count maps include the batch, and the still-ledgered values
	// cover any concurrent batch's uncommitted ones.
	plan, _ := t.planFastInsert(perPart, true) // exact planning never rejects
	// A chunk can fail only on its WAL append, before mutating anything:
	// stop there (the committed chunks are a legal prefix) but still run
	// the publication steps — sealing the discovered duplicates and
	// patching foreign collisions is conservative-safe for the chunks
	// that did land (an extra patch costs plan optimality, never
	// correctness).
	var chunkErr error
	for p := range perPart {
		if len(perPart[p]) == 0 {
			continue
		}
		//pilint:ignore lockblock write-ahead: the WAL append inside must be ordered by the same lock that orders the mutation it logs (Durability, package docs)
		if err := t.insertChunkLocked(db, p, perPart[p], plan); err != nil {
			chunkErr = err
			break
		}
	}
	t.patchForeignCollisionsLocked(plan)
	t.publishFastInsert(plan)
	for _, st := range t.nuc {
		st.RebuildOverfullBlooms()
	}
	t.pruneSealedLocked()
	return chunkErr
}

// pruneSealed prunes every NUC column's sealed set that is due, under
// the exclusive structure lock.
func (t *Table) pruneSealed() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pruneSealedLocked()
}

// pruneSealedLocked prunes every NUC column's sealed set that is due
// (core.NUCState.PruneSealed). The caller holds the structure lock
// exclusively.
func (t *Table) pruneSealedLocked() {
	for _, st := range t.nuc {
		st.PruneSealed()
	}
}

// insertFastPath classifies and commits the batch under the shared
// structure lock. done=false is a planning rejection (a cross-partition
// candidate collision); the caller retries under the exclusive lock and
// retires the rejected plan's pre-publications once the retry commits.
// done=true with a non-nil err is a WAL append failure: the chunks
// before the failing one committed (a legal prefix), the rest were
// skipped, and the batch is NOT retried. Either way the plan is
// returned.
func (t *Table) insertFastPath(db *Database, perPart [][]storage.Row) (plan *fastInsertPlan, done bool, err error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	plan, ok := t.planFastInsert(perPart, false)
	if !ok {
		return plan, false, nil
	}
	t.fastInserts.Add(1)
	for p := range perPart {
		if len(perPart[p]) == 0 {
			continue
		}
		err = func() error {
			t.pmu[p].Lock()
			defer t.pmu[p].Unlock()
			//pilint:ignore lockblock write-ahead: the WAL append inside must be ordered by the same lock that orders the mutation it logs (Durability, package docs)
			return t.insertChunkLocked(db, p, perPart[p], plan)
		}()
		if err != nil {
			break
		}
	}
	t.publishFastInsert(plan)
	// Every committed chunk's counts are in; retire the pre-publication
	// ledger entries (the filter bits themselves stay). On a chunk error
	// the publication still runs — sealing values whose rows were
	// skipped is conservative-safe.
	unpublish(plan)
	return plan, true, err
}

// pruneDue reports whether a sealed set the plan's columns grew is due
// for pruning.
func (pl *fastInsertPlan) pruneDue() bool {
	for ci := range pl.cols {
		if pl.cols[ci].state.PruneDue() {
			return true
		}
	}
	return false
}

// prePublish registers every value of the plan's batch in its target
// partition's filter and in-flight ledger: the bits make racing batches
// see this one, the ledger entries survive filter rebuilds until the
// counts commit. Paired with exactly one unpublish.
func prePublish(plan *fastInsertPlan) {
	for ci := range plan.cols {
		fc := &plan.cols[ci]
		if fc.isInt {
			for p := range fc.intVals {
				for _, v := range fc.intVals[p] {
					fc.state.PrePublishInt64(p, v)
				}
			}
		} else {
			for p := range fc.strVals {
				for _, v := range fc.strVals[p] {
					fc.state.PrePublishString(p, v)
				}
			}
		}
	}
}

// unpublish retires the plan's pre-publication ledger entries, after
// its values are committed to the count maps. nil-safe (a plan rejected
// before pre-publication is nil).
func unpublish(plan *fastInsertPlan) {
	if plan == nil {
		return
	}
	for ci := range plan.cols {
		fc := &plan.cols[ci]
		if fc.isInt {
			for p := range fc.intVals {
				for _, v := range fc.intVals[p] {
					fc.state.UnpublishInt64(p, v)
				}
			}
		} else {
			for p := range fc.strVals {
				for _, v := range fc.strVals[p] {
					fc.state.UnpublishString(p, v)
				}
			}
		}
	}
}

// patchForeignCollisionsLocked patches the pre-existing foreign
// occurrences of the exact retry's real cross-partition collisions: for
// each foreign partition with count-map hits, one partition-local value
// scan finds the colliding rowIDs (the batch's own rows are already
// patched via knownPatch; AddPatches ignores re-marks). The caller
// holds the structure lock exclusively, and the chunks have committed —
// so the scans see the full batch, and the hit values are sealed right
// after by publishFastInsert, keeping the sealed-set invariant.
func (t *Table) patchForeignCollisionsLocked(plan *fastInsertPlan) {
	for ci := range plan.cols {
		fc := &plan.cols[ci]
		idx := t.mutableIndexesLocked(fc.column)
		for q := range idx {
			idx[q].AddPatches(t.occurrencesLocked(q, fc.col, fc.foreignHitsInt[q], fc.foreignHitsStr[q]))
		}
	}
}

// occurrencesLocked returns the ascending rowIDs of partition q whose
// value in column col is one of ints (an int64 column) or strs (a
// string column); with both empty it reads nothing. It is the engine's
// one value→rowID lookup for collision handling, which patches the
// other occurrences of a few colliding values. The caller owns
// partition q.
func (t *Table) occurrencesLocked(q, col int, ints []int64, strs []string) []uint64 {
	switch {
	case len(ints) > 0:
		return valuePositions(t.viewLocked(q).MaterializeInt64(col), ints)
	case len(strs) > 0:
		return valuePositions(t.viewLocked(q).MaterializeString(col), strs)
	}
	return nil
}

// valuePositions returns the ascending positions of vals holding any
// of want (repeats allowed). A few wanted values are compared directly,
// sparing a map probe per row.
func valuePositions[T comparable](vals, want []T) []uint64 {
	var out []uint64
	if len(want) <= 8 {
		for r, v := range vals {
			for _, w := range want {
				if v == w {
					out = append(out, uint64(r))
					break
				}
			}
		}
		return out
	}
	set := make(map[T]struct{}, len(want))
	for _, w := range want {
		set[w] = struct{}{}
	}
	for r, v := range vals {
		if _, ok := set[v]; ok {
			out = append(out, uint64(r))
		}
	}
	return out
}

// planFastInsert classifies the batch for the sharded insert handling.
// Two modes:
//
//   - exact=false (the parallel path, structure lock held shared): no
//     partition lock is taken — classification reads the sealed
//     exception set and the foreign Bloom filters, both lock-free, with
//     the pre-publication ordering ruling out racing batches. A foreign
//     filter hit — a candidate collision, real or false positive —
//     rejects (ok=false, with the returned plan's values pre-published
//     and ledgered for the caller to retire after the retry).
//   - exact=true (the fallback retry, structure lock held exclusively):
//     foreign presence is read from the partition-local count maps —
//     the exact ground truth, safe to read across partitions under the
//     exclusive lock. Nothing rejects: a real foreign occurrence marks
//     the inserted row a known patch and records a foreignHits entry,
//     which the retry resolves with a partition-local value scan — the
//     Fig. 5 global join never runs on this path.
func (t *Table) planFastInsert(perPart [][]storage.Row, exact bool) (*fastInsertPlan, bool) {
	plan := &fastInsertPlan{}
	for column, idx := range t.indexes {
		if len(idx) == 0 || idx[0] == nil || idx[0].ConstraintKind() != core.NearlyUnique {
			continue
		}
		st := t.nuc[column]
		col := t.store.Schema().MustColumnIndex(column)
		fc := fastInsertCol{
			column: column,
			col:    col,
			isInt:  t.store.Schema()[col].Kind == storage.KindInt64,
			state:  st,
			sealed: st.Sealed(),
		}
		fc.knownPatch = make([][]bool, len(perPart))
		if fc.isInt {
			fc.intVals = make([][]int64, len(perPart))
			batch := make(map[int64]int)
			for p, prows := range perPart {
				fc.intVals[p] = make([]int64, len(prows))
				fc.knownPatch[p] = make([]bool, len(prows))
				for i, r := range prows {
					fc.intVals[p][i] = r[col].I
					batch[r[col].I]++
				}
			}
			for p := range perPart {
				for i, v := range fc.intVals[p] {
					if fc.sealed.ContainsInt64(v) {
						fc.knownPatch[p][i] = true
					} else if batch[v] > 1 {
						fc.knownPatch[p][i] = true
						if fc.dupTargetsInt == nil {
							fc.dupTargetsInt = make(map[int64]map[int]bool)
						}
						if fc.dupTargetsInt[v] == nil {
							fc.dupTargetsInt[v] = make(map[int]bool)
						}
						fc.dupTargetsInt[v][p] = true
					}
				}
			}
			for v, n := range batch {
				if n > 1 && !fc.sealed.ContainsInt64(v) {
					fc.newDupInt = append(fc.newDupInt, v)
				}
			}
		} else {
			fc.strVals = make([][]string, len(perPart))
			batch := make(map[string]int)
			for p, prows := range perPart {
				fc.strVals[p] = make([]string, len(prows))
				fc.knownPatch[p] = make([]bool, len(prows))
				for i, r := range prows {
					fc.strVals[p][i] = r[col].S
					batch[r[col].S]++
				}
			}
			for p := range perPart {
				for i, v := range fc.strVals[p] {
					if fc.sealed.ContainsString(v) {
						fc.knownPatch[p][i] = true
					} else if batch[v] > 1 {
						fc.knownPatch[p][i] = true
						if fc.dupTargetsStr == nil {
							fc.dupTargetsStr = make(map[string]map[int]bool)
						}
						if fc.dupTargetsStr[v] == nil {
							fc.dupTargetsStr[v] = make(map[int]bool)
						}
						fc.dupTargetsStr[v][p] = true
					}
				}
			}
			for v, n := range batch {
				if n > 1 && !fc.sealed.ContainsString(v) {
					fc.newDupStr = append(fc.newDupStr, v)
				}
			}
		}
		plan.cols = append(plan.cols, fc)
	}
	if len(plan.cols) == 0 {
		return plan, true // no NUC indexes: trivially partition-parallel
	}

	// Optimistic pre-publication: teach every target partition's filter
	// (and in-flight ledger) this batch's values FIRST, then probe the
	// foreign filters. Because sync/atomic operations are sequentially
	// consistent, two batches racing the same value cannot both order
	// all their probes before the other's adds — at least one sees the
	// other and falls back. A fallback's pre-published bits stay
	// behind; they only ever cost a false positive, and the retry
	// inserts the same values anyway — its ledger entries retire once
	// the retry commits. Exact mode skips the publication: it consults
	// count maps, not filters, and the batch's bits are already
	// published (and still ledgered) by the rejected non-exact attempt
	// that every exact retry follows.
	if !exact {
		prePublish(plan)
	}
	nparts := t.store.NumPartitions()
	for ci := range plan.cols {
		fc := &plan.cols[ci]
		if fc.isInt {
			for p := range fc.intVals {
				for i, v := range fc.intVals[p] {
					if fc.sealed.ContainsInt64(v) {
						continue // every existing occurrence is already a patch
					}
					targets := fc.dupTargetsInt[v] // nil unless a batch dup
					for q := 0; q < nparts; q++ {
						if q == p || targets[q] {
							continue
						}
						if exact {
							if fc.state.LocalCountInt64(q, v) > 0 {
								// A real cross-partition collision: the new
								// row and q's existing occurrences all become
								// patches, and v gets sealed at publication.
								fc.knownPatch[p][i] = true
								if fc.foreignHitsInt == nil {
									fc.foreignHitsInt = make(map[int][]int64)
								}
								fc.foreignHitsInt[q] = append(fc.foreignHitsInt[q], v)
								fc.newDupInt = append(fc.newDupInt, v)
							}
						} else if fc.state.PartitionMayContainInt64(q, v) {
							return plan, false
						}
					}
				}
			}
		} else {
			for p := range fc.strVals {
				for i, v := range fc.strVals[p] {
					if fc.sealed.ContainsString(v) {
						continue
					}
					targets := fc.dupTargetsStr[v]
					for q := 0; q < nparts; q++ {
						if q == p || targets[q] {
							continue
						}
						if exact {
							if fc.state.LocalCountString(q, v) > 0 {
								fc.knownPatch[p][i] = true
								if fc.foreignHitsStr == nil {
									fc.foreignHitsStr = make(map[int][]string)
								}
								fc.foreignHitsStr[q] = append(fc.foreignHitsStr[q], v)
								fc.newDupStr = append(fc.newDupStr, v)
							}
						} else if fc.state.PartitionMayContainString(q, v) {
							return plan, false
						}
					}
				}
			}
		}
	}
	return plan, true
}

// insertChunkLocked applies one partition's chunk: the write-ahead
// record, local collision scans against the pre-insert state, the delta
// append, index maintenance (all partition-local), collision-state
// counts, and the partition's auto-checkpoint. Its only failure is the
// WAL append, reported before anything is mutated (the entry points
// validate row widths and partition indexes before any chunk runs, and
// nothing after the append returns an error). The caller owns partition
// p — via the shared structure lock plus p's partition lock (the
// parallel path), or via the exclusive structure lock (the exact
// retry).
func (t *Table) insertChunkLocked(db *Database, p int, prows []storage.Row, plan *fastInsertPlan) error {
	if t.wal != nil {
		if err := t.logWAL(t.wal.segs[p], walOpInsertChunk, encodeInsertChunk(t.store.Schema(), p, prows)); err != nil {
			return err
		}
	}
	base := t.viewLocked(p).NumRows()
	joins := make([]core.NUCJoinResult, len(plan.cols))
	for ci := range plan.cols {
		fc := &plan.cols[ci]
		// Purely local collisions: the existing occurrences join the
		// patch set too, found by one partition-local scan (collisions
		// are rare on nearly unique columns, so the scan rarely runs).
		var scanInt []int64
		var scanStr []string
		for i := range prows {
			patch := fc.knownPatch[p][i]
			if fc.isInt {
				v := fc.intVals[p][i]
				if !fc.sealed.ContainsInt64(v) && fc.state.LocalCountInt64(p, v) > 0 {
					patch = true
					scanInt = append(scanInt, v)
				}
			} else {
				v := fc.strVals[p][i]
				if !fc.sealed.ContainsString(v) && fc.state.LocalCountString(p, v) > 0 {
					patch = true
					scanStr = append(scanStr, v)
				}
			}
			if patch {
				joins[ci].InsertedSide = append(joins[ci].InsertedSide, uint64(base+i))
			}
		}
		joins[ci].TableSide = t.occurrencesLocked(p, fc.col, scanInt, scanStr)
		fc.newDupInt = append(fc.newDupInt, scanInt...)
		fc.newDupStr = append(fc.newDupStr, scanStr...)
	}

	t.mutableDeltaLocked(p).InsertRows(prows)

	for column := range t.indexes {
		idx := t.mutableIndexesLocked(column)
		switch idx[0].ConstraintKind() {
		case core.NearlySorted:
			col := t.store.Schema().MustColumnIndex(column)
			vals := make([]int64, len(prows))
			for i, r := range prows {
				vals[i] = r[col].I
			}
			idx[p].HandleInsertNSC(vals)
		case core.NearlyUnique:
			idx[p].HandleInsertNUC(len(prows), joins[plan.colIndex(column)])
		}
	}

	for ci := range plan.cols {
		fc := &plan.cols[ci]
		if fc.isInt {
			for _, v := range fc.intVals[p] {
				fc.state.AddLocalInt64(p, v)
			}
		} else {
			for _, v := range fc.strVals[p] {
				fc.state.AddLocalString(p, v)
			}
		}
	}

	if db.AutoCheckpoint {
		t.checkpointPartitionLocked(p)
	}
	return nil
}

// publishFastInsert completes a fast-path batch by sealing the values
// it discovered to be duplicated — batch-internal duplicates from
// planning plus local collisions from the chunk workers. The filters
// already learned the batch's values during pre-publication; sealing is
// a lock-free compare-and-swap, so concurrent publishers compose.
func (t *Table) publishFastInsert(plan *fastInsertPlan) {
	for ci := range plan.cols {
		fc := &plan.cols[ci]
		if fc.isInt {
			fc.state.SealDuplicatesInt64(fc.newDupInt)
		} else {
			fc.state.SealDuplicatesString(fc.newDupStr)
		}
	}
}

// insertExclusiveLocked is the table-wide insert: deltas, NSC insert
// handling, the global NUC collision join of Fig. 5, and the sharded
// collision state's bookkeeping. The caller holds the structure lock
// exclusively; perPart fixes each row's target partition.
func (t *Table) insertExclusiveLocked(db *Database, perPart [][]storage.Row) error {
	baseRows := make([]int, len(perPart))
	for p := range perPart {
		baseRows[p] = t.viewLocked(p).NumRows()
	}
	// Validate the NUC join payload packing BEFORE mutating anything:
	// failing after the deltas (and other columns' indexes) were updated
	// would leave the table and the failing index permanently divergent.
	if t.hasNUCIndex() {
		for p, prows := range perPart {
			if len(prows) == 0 {
				continue
			}
			if _, err := encodeRef(p, uint64(baseRows[p]+len(prows)-1)); err != nil {
				return fmt.Errorf("engine: insert into %s: %w", t.name, err)
			}
		}
	}
	// Log the whole batch as one record to the exclusive-op segment —
	// after validation, before any mutation, so a logged batch either
	// fully replays or (torn record) never started.
	if t.wal != nil {
		if err := t.logWAL(t.wal.excl, walOpInsertExcl, encodePerPart(t.store.Schema(), perPart)); err != nil {
			return err
		}
	}
	for p, prows := range perPart {
		if len(prows) == 0 {
			continue
		}
		t.mutableDeltaLocked(p).InsertRows(prows)
	}
	for column := range t.indexes {
		idx := t.mutableIndexesLocked(column)
		col := t.store.Schema().MustColumnIndex(column)
		switch idx[0].ConstraintKind() {
		case core.NearlySorted:
			for p, prows := range perPart {
				if len(prows) == 0 {
					continue
				}
				vals := make([]int64, len(prows))
				for i, r := range prows {
					vals[i] = r[col].I
				}
				idx[p].HandleInsertNSC(vals)
			}
		case core.NearlyUnique:
			isInt := t.store.Schema()[col].Kind == storage.KindInt64
			var changed []changedRef
			for p, prows := range perPart {
				for i := range prows {
					ref := changedRef{part: p, rid: uint64(baseRows[p] + i)}
					if isInt {
						ref.val = prows[i][col].I
					}
					changed = append(changed, ref)
				}
			}
			joins, err := t.nucCollisions(col, changed, perPartStrings(perPart, col, t.store.Schema()[col].Kind))
			if err != nil {
				return fmt.Errorf("engine: insert handling on %s.%s: %w", t.name, column, err)
			}
			for p := range idx {
				idx[p].HandleInsertNUC(len(perPart[p]), joins[p])
			}
			// Keep the sealed-set invariant the parallel path relies on —
			// every LIVE occurrence of a sealed value is a patch. A sealed
			// value may have had all its occurrences deleted, so the
			// collision join legitimately comes back empty for a fresh
			// one; patch it anyway (conservative: the extra patch costs
			// plan optimality, never correctness — deletes already erode
			// optimality the same way).
			st := t.nuc[column]
			sealed := st.Sealed()
			for p, prows := range perPart {
				var forced []uint64
				for i, r := range prows {
					if isInt && sealed.ContainsInt64(r[col].I) ||
						!isInt && sealed.ContainsString(r[col].S) {
						forced = append(forced, uint64(baseRows[p]+i))
					}
				}
				idx[p].AddPatches(forced)
			}
			t.maintainNUCStateInsertLocked(st, col, perPart)
		}
	}
	if db.AutoCheckpoint {
		t.checkpointLocked()
	}
	return nil
}

// maintainNUCStateInsertLocked folds an exclusive-lock insert into the
// sharded collision state: local counts rise, values that just became
// duplicated are sealed, the partition filters learn the inserted
// values, saturated filters are rebuilt, and a due sealed set is
// pruned (both safe only here, where the caller owns every partition).
// The fallback path's healing happens through this call: a batch that
// fell back because a filter degraded rebuilds it while it holds the
// exclusive lock anyway.
func (t *Table) maintainNUCStateInsertLocked(st *core.NUCState, col int, perPart [][]storage.Row) {
	if st.IsString() {
		for p, prows := range perPart {
			for _, r := range prows {
				st.AddLocalString(p, r[col].S)
				st.AddBloomString(p, r[col].S)
			}
		}
		sealed := st.Sealed()
		seen := make(map[string]struct{})
		var newDup []string
		for _, prows := range perPart {
			for _, r := range prows {
				v := r[col].S
				if _, ok := seen[v]; ok {
					continue
				}
				seen[v] = struct{}{}
				if st.GlobalCountString(v) > 1 && !sealed.ContainsString(v) {
					newDup = append(newDup, v)
				}
			}
		}
		st.SealDuplicatesString(newDup)
	} else {
		for p, prows := range perPart {
			for _, r := range prows {
				st.AddLocalInt64(p, r[col].I)
				st.AddBloomInt64(p, r[col].I)
			}
		}
		sealed := st.Sealed()
		seen := make(map[int64]struct{})
		var newDup []int64
		for _, prows := range perPart {
			for _, r := range prows {
				v := r[col].I
				if _, ok := seen[v]; ok {
					continue
				}
				seen[v] = struct{}{}
				if st.GlobalCountInt64(v) > 1 && !sealed.ContainsInt64(v) {
					newDup = append(newDup, v)
				}
			}
		}
		st.SealDuplicatesInt64(newDup)
	}
	st.RebuildOverfullBlooms()
	st.PruneSealed()
}

func perPartStrings(perPart [][]storage.Row, col int, kind storage.Kind) [][]string {
	if kind != storage.KindString {
		return nil
	}
	out := make([][]string, len(perPart))
	for p, rows := range perPart {
		for _, r := range rows {
			out[p] = append(out[p], r[col].S)
		}
	}
	return out
}
