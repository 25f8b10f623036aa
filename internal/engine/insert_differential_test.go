package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"patchindex/internal/core"
	"patchindex/internal/storage"
)

// partitionPatches returns each partition's patch rowIDs of column.
func partitionPatches(t *Table, column string) [][]uint64 {
	idx := t.PatchIndexes(column)
	out := make([][]uint64, len(idx))
	for p, x := range idx {
		out[p] = x.Patches()
	}
	return out
}

// TestInsertRowsDifferentialVsInsert pins the equivalence of the
// partition-parallel insert path — including its exclusive-lock exact
// retry, which patches foreign partitions straight from the count maps
// — against the paper's Insert path of record (the Fig. 5 global
// collision join): the same randomized insert/delete/modify sequence is
// driven through both entry points on twin tables, and after every
// operation the tables must agree on contents AND per-partition patch
// sets exactly. Values are drawn from a small domain so real
// cross-partition collisions (the retry's hard case) occur constantly.
// The CollisionJoins counter proves the point of the retry rework: the
// InsertRows table never runs the global join, the Insert table does,
// and Modify runs it on neither.
func TestInsertRowsDifferentialVsInsert(t *testing.T) {
	for _, design := range []core.Design{core.DesignBitmap, core.DesignIdentifier} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("design=%v/seed=%d", design, seed), func(t *testing.T) {
				insertDifferential(t, design, seed, differentialShape{domain: 60, baseRows: 40, maxBatch: 8, steps: 30, fresh: 1_000})
			})
		}
	}
}

// TestInsertRowsDifferentialPrunes runs the same differential at a size
// where the sealed sets grow past their pruning threshold: both tables
// must prune at the same operation, whichever insert path each took,
// or their patch sets diverge once a pruned value comes back.
func TestInsertRowsDifferentialPrunes(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			shape := differentialShape{domain: 1500, baseRows: 600, maxBatch: 60, steps: 120, fresh: 1_000_000}
			if prunes := insertDifferential(t, core.DesignBitmap, seed, shape); prunes == 0 {
				t.Fatal("no sealed set was pruned; the run proved nothing")
			}
		})
	}
}

// differentialShape sizes one insertDifferential run: values are drawn
// from [0, domain), the table starts with baseRows to 2*baseRows rows,
// an insert batch has up to maxBatch (at most 100) rows, and fresh
// values start at fresh.
type differentialShape struct {
	domain, baseRows, maxBatch, steps int
	fresh                             int64
}

// insertDifferential drives one randomized twin-table run (see
// TestInsertRowsDifferentialVsInsert) and returns how many operations
// pruned the sealed sets.
func insertDifferential(t *testing.T, design core.Design, seed int64, shape differentialShape) (prunes int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := newDB(t)
	const parts = 4
	base := make([]int64, shape.baseRows+rng.Intn(shape.baseRows))
	for i := range base {
		base[i] = int64(rng.Intn(shape.domain)) // dense: seeds duplicates
	}
	a := singleColTable(t, db, "a", base, parts) // Insert path
	b := singleColTable(t, db, "b", base, parts) // InsertRows path
	for _, tb := range []*Table{a, b} {
		if err := tb.CreatePatchIndex("v", core.NearlyUnique, tinyOpts(design)); err != nil {
			t.Fatal(err)
		}
	}

	// Both tables seal the same values at the same operation, and so
	// prune at the same one.
	sealed := a.nuc["v"].Sealed().Len()
	compare := func(step string) {
		t.Helper()
		for p := 0; p < parts; p++ {
			av := a.ReadInt64Column(p, "v")
			bv := b.ReadInt64Column(p, "v")
			if len(av) != len(bv) {
				t.Fatalf("%s: partition %d row count diverged: %d vs %d", step, p, len(av), len(bv))
			}
			for i := range av {
				if av[i] != bv[i] {
					t.Fatalf("%s: partition %d row %d diverged: %d vs %d", step, p, i, av[i], bv[i])
				}
			}
		}
		ap, bp := partitionPatches(a, "v"), partitionPatches(b, "v")
		for p := 0; p < parts; p++ {
			if len(ap[p]) != len(bp[p]) {
				t.Fatalf("%s: partition %d patch count diverged: Insert=%v InsertRows=%v",
					step, p, ap[p], bp[p])
			}
			for i := range ap[p] {
				if ap[p][i] != bp[p][i] {
					t.Fatalf("%s: partition %d patch sets diverged: Insert=%v InsertRows=%v",
						step, p, ap[p], bp[p])
				}
			}
		}
		na, nb := a.nuc["v"].Sealed().Len(), b.nuc["v"].Sealed().Len()
		if na != nb {
			t.Fatalf("%s: sealed sets diverged: Insert=%d InsertRows=%d values", step, na, nb)
		}
		if na < sealed {
			prunes++
		}
		sealed = na
	}
	compare("after discovery")

	for step := 0; step < shape.steps; step++ {
		switch op := rng.Intn(10); {
		case op < 6: // insert a batch, collisions likely
			rows := make([]storage.Row, 1+rng.Intn(shape.maxBatch))
			for i := range rows {
				v := int64(rng.Intn(shape.domain))
				if rng.Intn(3) == 0 {
					v = shape.fresh + int64(step*100+i) // fresh unique
				}
				rows[i] = storage.Row{storage.I64(v)}
			}
			if err := db.Insert("a", rows); err != nil {
				t.Fatal(err)
			}
			if err := db.InsertRows("b", rows); err != nil {
				t.Fatal(err)
			}
		case op < 8: // delete the same rowIDs from one partition
			p := rng.Intn(parts)
			n := len(a.ReadInt64Column(p, "v"))
			if n == 0 {
				continue
			}
			var rids []uint64
			for r := rng.Intn(3); r < n; r += 1 + rng.Intn(4) {
				rids = append(rids, uint64(r))
			}
			if err := db.DeleteRowIDs("a", p, rids); err != nil {
				t.Fatal(err)
			}
			if err := db.DeleteRowIDs("b", p, rids); err != nil {
				t.Fatal(err)
			}
		default: // modify the NUC column at the same positions
			p := rng.Intn(parts)
			n := len(a.ReadInt64Column(p, "v"))
			if n == 0 {
				continue
			}
			rid := uint64(rng.Intn(n))
			vals := []storage.Value{storage.I64(int64(rng.Intn(shape.domain)))}
			// Modify classifies from the count maps: it never runs the
			// global collision join, on either table.
			joinsA, joinsB := a.CollisionJoins(), b.CollisionJoins()
			if err := db.Modify("a", p, []uint64{rid}, "v", vals); err != nil {
				t.Fatal(err)
			}
			if err := db.Modify("b", p, []uint64{rid}, "v", vals); err != nil {
				t.Fatal(err)
			}
			if a.CollisionJoins() != joinsA || b.CollisionJoins() != joinsB {
				t.Fatalf("step %d: Modify ran a global collision join", step)
			}
		}
		compare(fmt.Sprintf("step %d", step))
	}

	for _, x := range append(b.PatchIndexes("v"), a.PatchIndexes("v")...) {
		if err := x.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if _, fallback := b.InsertStats(); fallback == 0 {
		t.Fatalf("no batch exercised the exact retry; the differential run proved nothing")
	}
	// InsertRows must NEVER run the global collision join: even the
	// exclusive exact retry patches foreign partitions straight from
	// the count maps.
	if n := b.CollisionJoins(); n != 0 {
		t.Fatalf("InsertRows ran %d global collision join(s)", n)
	}
	if a.CollisionJoins() == 0 {
		t.Fatalf("Insert path of record never ran the collision join; the differential has no reference behavior")
	}
	return prunes
}
