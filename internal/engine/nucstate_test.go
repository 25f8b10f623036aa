package engine

import (
	"testing"

	"patchindex/internal/core"
	"patchindex/internal/storage"
	"patchindex/internal/wal"
)

// TestPrunedSealedValueReinsert: once a sealed value with no live
// occurrence is pruned, inserting it again is classified like any
// fresh value — unpatched — by the InsertRows fast path, by its exact
// retry, and by Insert, while a real collision with it is still
// caught.
func TestPrunedSealedValueReinsert(t *testing.T) {
	db := newDB(t)
	// Partition 0 holds 0..299 twice and partition 1 holds 2000..2599
	// once: discovery seals 300 values, so the set is due for pruning
	// once it has doubled to 600.
	var vals []int64
	for r := 0; r < 2; r++ {
		for v := int64(0); v < 300; v++ {
			vals = append(vals, v)
		}
	}
	for v := int64(2000); v < 2600; v++ {
		vals = append(vals, v)
	}
	tb := nucTable(t, db, "t", vals, 2)
	st := tb.nuc["v"]

	// Delete every occurrence of 0..99: rows 0..99 and 300..399 of
	// partition 0.
	var rids []uint64
	for r := uint64(0); r < 400; r++ {
		if r < 100 || r >= 300 {
			rids = append(rids, r)
		}
	}
	if err := db.DeleteRowIDs("t", 0, rids); err != nil {
		t.Fatal(err)
	}
	if !st.Sealed().ContainsInt64(5) {
		t.Fatal("an eroded value left the sealed set before any prune")
	}

	// Seal 300 more values through the fast path (each twice in one
	// batch): the set doubles, and the batch prunes it on its way out.
	var batch []int64
	for r := 0; r < 2; r++ {
		for v := int64(3000); v < 3300; v++ {
			batch = append(batch, v)
		}
	}
	if err := db.InsertRowsPartition("t", 1, i64Rows(batch...)); err != nil {
		t.Fatal(err)
	}
	if e := st.Sealed(); e.ContainsInt64(5) || !e.ContainsInt64(150) || !e.ContainsInt64(3000) || e.Len() != 500 {
		t.Fatalf("the prune kept the wrong values: %d sealed, 5 sealed=%v", e.Len(), e.ContainsInt64(5))
	}

	// Fast path: partition 1's filter never held 5.
	fast0, fall0 := tb.InsertStats()
	if err := db.InsertRowsPartition("t", 0, i64Rows(5)); err != nil {
		t.Fatal(err)
	}
	if fast, fall := tb.InsertStats(); fast != fast0+1 || fall != fall0 {
		t.Fatalf("reinsert of a pruned value: fast %d->%d, fallback %d->%d, want the fast path", fast0, fast, fall0, fall)
	}
	assertPatchAt(t, tb, "v", 0, 400, false)

	// Exact retry: partition 0's filter still remembers the deleted 7.
	if err := db.InsertRowsPartition("t", 1, i64Rows(7)); err != nil {
		t.Fatal(err)
	}
	if _, fall := tb.InsertStats(); fall != fall0+1 {
		t.Fatalf("reinsert of 7 did not take the exact retry: fallback %d->%d", fall0, fall)
	}
	assertPatchAt(t, tb, "v", 1, 1200, false)

	// Insert: the Fig. 5 join finds no partner and nothing is sealed.
	joins := tb.CollisionJoins()
	if err := db.Insert("t", i64Rows(9)); err != nil {
		t.Fatal(err)
	}
	if tb.CollisionJoins() != joins+1 {
		t.Fatal("Insert did not run the collision join")
	}
	assertPatchAt(t, tb, "v", 0, 401, false)

	// A real collision with a reinserted value is still caught.
	if err := db.InsertRowsPartition("t", 1, i64Rows(5)); err != nil {
		t.Fatal(err)
	}
	assertPatchAt(t, tb, "v", 0, 400, true)
	assertPatchAt(t, tb, "v", 1, 1201, true)
	if !st.Sealed().ContainsInt64(5) {
		t.Fatal("the new collision on 5 was not sealed")
	}
	for _, x := range tb.PatchIndexes("v") {
		if err := x.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNUCIndexAlwaysHasState pins the invariant the update paths rely
// on instead of checking for it: a column has collision state exactly
// when it has a NUC index, of the column's kind, after CreatePatchIndex,
// RestorePatchIndexes, Recover and DropPatchIndex.
func TestNUCIndexAlwaysHasState(t *testing.T) {
	check := func(tb *Table, step string) {
		t.Helper()
		tb.mu.RLock()
		defer tb.mu.RUnlock()
		for column, idx := range tb.indexes {
			st := tb.nuc[column]
			if nuc := idx[0].ConstraintKind() == core.NearlyUnique; nuc != (st != nil) {
				t.Fatalf("%s: column %s: NUC index %v, collision state %v", step, column, nuc, st != nil)
			}
			col := tb.store.Schema().MustColumnIndex(column)
			if st != nil && st.IsString() != (tb.store.Schema()[col].Kind == storage.KindString) {
				t.Fatalf("%s: column %s: collision state of the wrong kind", step, column)
			}
		}
		for column := range tb.nuc {
			if tb.indexes[column] == nil {
				t.Fatalf("%s: column %s has collision state but no index", step, column)
			}
		}
	}

	dir := t.TempDir()
	db := NewDatabase()
	tb, err := db.CreateTable("t", storage.Schema{
		{Name: "i", Kind: storage.KindInt64},
		{Name: "s", Kind: storage.KindString},
		{Name: "n", Kind: storage.KindInt64},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var rows []storage.Row
	for v := int64(0); v < 20; v++ {
		rows = append(rows, storage.Row{storage.I64(v % 7), storage.Str(string(rune('a' + v%5))), storage.I64(v)})
	}
	if err := tb.Load(rows); err != nil {
		t.Fatal(err)
	}
	for column, c := range map[string]core.Constraint{"i": core.NearlyUnique, "s": core.NearlyUnique, "n": core.NearlySorted} {
		if err := tb.CreatePatchIndex(column, c, tinyOpts(core.DesignBitmap)); err != nil {
			t.Fatal(err)
		}
	}
	check(tb, "create")

	tb.RestorePatchIndexes("i", tb.PatchIndexes("i"))
	tb.RestorePatchIndexes("n", tb.PatchIndexes("n"))
	check(tb, "restore")

	if err := db.EnableWAL(dir, wal.SyncNone); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("t", rows[:3]); err != nil {
		t.Fatal(err)
	}
	db2 := NewDatabase()
	if _, err := db2.Recover(dir); err != nil {
		t.Fatal(err)
	}
	check(db2.MustTable("t"), "recover")

	tb.DropPatchIndex("s")
	check(tb, "drop")
	if tb.nuc["s"] != nil {
		t.Fatal("DropPatchIndex left the collision state behind")
	}
}
