package patchindex

import (
	"sort"
	"testing"
)

// TestFacadeEndToEnd exercises the public API: table DDL, both
// constraint kinds, queries in all plan modes, and the update path.
func TestFacadeEndToEnd(t *testing.T) {
	db := NewDatabase()
	tb, err := db.CreateTable("t", Schema{
		{Name: "id", Kind: KindInt64},
		{Name: "ts", Kind: KindInt64},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]Row, 2000)
	for i := range rows {
		id := int64(i)
		if i%100 == 99 {
			id = int64(i - 1) // duplicates
		}
		ts := int64(i)
		if i%50 == 49 {
			ts = int64(i - 40) // out of order
		}
		rows[i] = Row{I64(id), I64(ts)}
	}
	tb.Load(rows)

	if err := tb.CreatePatchIndex("id", NearlyUnique, IndexOptions{Design: DesignBitmap}); err != nil {
		t.Fatal(err)
	}
	if err := tb.CreatePatchIndex("ts", NearlySorted, IndexOptions{Design: DesignIdentifier}); err != nil {
		t.Fatal(err)
	}
	if e := tb.ExceptionRate("id"); e <= 0 || e > 0.1 {
		t.Fatalf("id exception rate = %f", e)
	}

	// Distinct in all modes agrees.
	var want int
	for _, mode := range []PlanMode{PlanReference, PlanAuto, PlanPatchIndex} {
		op, err := db.Distinct("t", "id", QueryOptions{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		n, err := Count(op)
		if err != nil {
			t.Fatal(err)
		}
		if mode == PlanReference {
			want = n
		} else if n != want {
			t.Fatalf("mode %d distinct = %d, want %d", mode, n, want)
		}
	}

	// Sort query returns a sorted result.
	op, err := db.SortQuery("t", "ts", false, QueryOptions{Mode: PlanPatchIndex})
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectInt64(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2000 || !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("sort query wrong: %d rows", len(got))
	}

	// Updates through the facade: the exclusive-lock insert, the
	// partition-parallel batched inserts, and a predicate delete.
	if err := db.Insert("t", []Row{{I64(99999), I64(99999)}}); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("t", []Row{{I64(100001), I64(100001)}, {I64(100002), I64(100002)}}); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRowsPartition("t", 1, []Row{{I64(100003), I64(100003)}}); err != nil {
		t.Fatal(err)
	}
	// A batched re-insert of an existing id must still be detected as a
	// uniqueness violation (it may live in either partition).
	if err := db.InsertRows("t", []Row{{I64(500), I64(200100)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DeleteWhereInt64("t", "id", func(v int64) bool { return v < 10 }); err != nil {
		t.Fatal(err)
	}
	op, _ = db.Distinct("t", "id", QueryOptions{Mode: PlanPatchIndex})
	refOp, _ := db.Distinct("t", "id", QueryOptions{Mode: PlanReference})
	n1, _ := Count(op)
	n2, _ := Count(refOp)
	if n1 != n2 {
		t.Fatalf("plans disagree after updates: %d vs %d", n1, n2)
	}

	// Boxed value helpers.
	if I64(3).I != 3 || F64(1.5).F != 1.5 || Str("x").S != "x" {
		t.Fatal("value constructors broken")
	}
	scan, err := tb.ScanAll("id")
	if err != nil {
		t.Fatal(err)
	}
	rowsOut, err := Collect(scan)
	if err != nil || len(rowsOut) == 0 {
		t.Fatalf("Collect: %d rows, err=%v", len(rowsOut), err)
	}
}
