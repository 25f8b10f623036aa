package engine

import (
	"testing"

	"patchindex/internal/core"
	"patchindex/internal/storage"
)

func TestApproxDistinctBounds(t *testing.T) {
	db := newDB(t)
	// 10 rows: values 0..7 with 0 and 1 duplicated => 8 distinct,
	// 4 patches, 6 non-patches.
	tb := singleColTable(t, db, "t", []int64{0, 0, 1, 1, 2, 3, 4, 5, 6, 7}, 2)
	if _, _, err := tb.ApproxDistinctBounds("v"); err == nil {
		t.Fatal("bounds without index did not error")
	}
	if err := tb.CreatePatchIndex("v", core.NearlyUnique, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	lo, hi, err := tb.ApproxDistinctBounds("v")
	if err != nil {
		t.Fatal(err)
	}
	// True distinct count is 8; bounds must bracket it.
	if lo > 8 || hi < 8 {
		t.Fatalf("bounds [%d,%d] do not bracket 8", lo, hi)
	}
	if lo != 7 || hi != 10 {
		t.Fatalf("bounds [%d,%d], want [7,10]", lo, hi)
	}
	// Bounds stay valid under updates.
	if err := db.Insert("t", []storage.Row{{storage.I64(100)}, {storage.I64(0)}}); err != nil {
		t.Fatal(err)
	}
	lo, hi, _ = tb.ApproxDistinctBounds("v")
	op, _ := db.Distinct("t", "v", QueryOptions{Mode: PlanReference})
	got, _ := CollectInt64(op)
	if uint64(len(got)) < lo || uint64(len(got)) > hi {
		t.Fatalf("true distinct %d outside bounds [%d,%d]", len(got), lo, hi)
	}
}

func TestApproxDistinctBoundsWrongConstraint(t *testing.T) {
	db := newDB(t)
	tb := singleColTable(t, db, "t", []int64{1, 2, 3}, 1)
	if err := tb.CreatePatchIndex("v", core.NearlySorted, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tb.ApproxDistinctBounds("v"); err == nil {
		t.Fatal("NUC bounds on NSC index did not error")
	}
	if _, err := tb.SortednessRatio("v"); err != nil {
		t.Fatal(err)
	}
}

func TestSortednessRatio(t *testing.T) {
	db := newDB(t)
	tb := singleColTable(t, db, "t", []int64{1, 2, 99, 3, 4, 98, 5, 6, 7, 8}, 1)
	if err := tb.CreatePatchIndex("v", core.NearlySorted, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	r, err := tb.SortednessRatio("v")
	if err != nil {
		t.Fatal(err)
	}
	if r != 0.8 {
		t.Fatalf("SortednessRatio = %f, want 0.8", r)
	}
	db2 := newDB(t)
	tb2 := singleColTable(t, db2, "t", []int64{1, 2, 3}, 1)
	if _, err := tb2.SortednessRatio("v"); err == nil {
		t.Fatal("ratio without index did not error")
	}
}
