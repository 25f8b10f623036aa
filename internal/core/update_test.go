package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHandleInsertNSCExtendsSubsequence(t *testing.T) {
	for _, d := range bothDesigns {
		x := BuildNSC([]int64{1, 2, 3}, optsFor(d))
		if x.NumPatches() != 0 {
			t.Fatalf("%v: initial patches = %d", d, x.NumPatches())
		}
		// 4 and 5 extend; 0 cannot (below tail 3).
		np := x.HandleInsertNSC([]int64{4, 0, 5})
		if np != 1 {
			t.Fatalf("%v: new patches = %d, want 1", d, np)
		}
		if x.Rows() != 6 {
			t.Fatalf("%v: rows = %d, want 6", d, x.Rows())
		}
		if !x.IsPatch(4) { // rowID 4 holds value 0
			t.Fatalf("%v: rowID 4 should be a patch", d)
		}
		if lv, _ := x.LastSortedValue(); lv != 5 {
			t.Fatalf("%v: last = %d, want 5", d, lv)
		}
	}
}

func TestHandleInsertNSCPaperExample(t *testing.T) {
	// The paper's optimality-loss example (Section 5.1): table (1,2,10),
	// inserts (3,4). The global LIS would be 1,2,3,4 (length 4), but the
	// local extension keeps 1,2,10 and patches both 3 and 4.
	x := BuildNSC([]int64{1, 2, 10}, optsFor(DesignBitmap))
	np := x.HandleInsertNSC([]int64{3, 4})
	if np != 2 {
		t.Fatalf("new patches = %d, want 2 (locally non-extendable)", np)
	}
	// Correctness is preserved: excluding patches stays sorted.
	if err := checkNSCSorted(x, []int64{1, 2, 10, 3, 4}); err != nil {
		t.Fatal(err)
	}
}

func TestHandleInsertNSCEmptyAndDescending(t *testing.T) {
	x := BuildNSC(nil, optsFor(DesignBitmap))
	if np := x.HandleInsertNSC(nil); np != 0 {
		t.Fatalf("empty insert produced %d patches", np)
	}
	if np := x.HandleInsertNSC([]int64{5, 6, 1}); np != 1 {
		t.Fatalf("first insert produced %d patches, want 1", np)
	}

	opts := optsFor(DesignBitmap)
	opts.Descending = true
	y := BuildNSC([]int64{9, 7, 5}, opts)
	np := y.HandleInsertNSC([]int64{4, 8, 3})
	if np != 1 {
		t.Fatalf("descending insert patches = %d, want 1 (8 cannot follow 5)", np)
	}
	if lv, _ := y.LastSortedValue(); lv != 3 {
		t.Fatalf("descending last = %d, want 3", lv)
	}
}

func TestHandleInsertNSCDuplicateTailValue(t *testing.T) {
	// Non-decreasing order: an inserted value equal to the tail extends.
	x := BuildNSC([]int64{1, 2, 3}, optsFor(DesignBitmap))
	if np := x.HandleInsertNSC([]int64{3, 3}); np != 0 {
		t.Fatalf("equal-to-tail inserts produced %d patches", np)
	}
}

func TestHandleModifyNSC(t *testing.T) {
	x := BuildNSC([]int64{1, 2, 3, 4}, optsFor(DesignIdentifier))
	x.HandleModifyNSC([]uint64{2, 0})
	if x.NumPatches() != 2 || !x.IsPatch(0) || !x.IsPatch(2) {
		t.Fatalf("modify handling wrong: %v", x.Patches())
	}
}

func TestHandleInsertModifyNUC(t *testing.T) {
	x := BuildNUCInt64([]int64{10, 20, 30}, optsFor(DesignBitmap))
	// Inserting value 20 at rowID 3 collides with rowID 1.
	x.HandleInsertNUC(1, NUCJoinResult{InsertedSide: []uint64{3}, TableSide: []uint64{1}})
	if x.Rows() != 4 || x.NumPatches() != 2 {
		t.Fatalf("rows=%d patches=%d", x.Rows(), x.NumPatches())
	}
	if !x.IsPatch(1) || !x.IsPatch(3) {
		t.Fatalf("patches = %v", x.Patches())
	}
}

func TestHandlersPanicOnWrongConstraint(t *testing.T) {
	nuc := BuildNUCInt64([]int64{1}, optsFor(DesignBitmap))
	nsc := BuildNSC([]int64{1}, optsFor(DesignBitmap))
	for name, fn := range map[string]func(){
		"InsertNSC on NUC": func() { nuc.HandleInsertNSC([]int64{1}) },
		"ModifyNSC on NUC": func() { nuc.HandleModifyNSC([]uint64{0}) },
		"InsertNUC on NSC": func() { nsc.HandleInsertNUC(0, NUCJoinResult{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// checkNSCSorted verifies the core invariant: the column values excluding
// the patch rowIDs form a sorted sequence.
func checkNSCSorted(x *Index, vals []int64) error {
	var prev int64
	first := true
	for i, v := range vals {
		if x.IsPatch(uint64(i)) {
			continue
		}
		if !first {
			bad := v < prev
			if x.Descending() {
				bad = v > prev
			}
			if bad {
				return &invariantError{i, v, prev}
			}
		}
		prev = v
		first = false
	}
	return nil
}

type invariantError struct {
	i    int
	v, p int64
}

func (e *invariantError) Error() string {
	return "NSC invariant violated"
}

// TestQuickNSCInvariantUnderInsertStreams: the defining PatchIndex
// invariant — excluding patches satisfies the constraint — must hold
// under arbitrary insert streams for NSC.
func TestQuickNSCInvariantUnderInsertStreams(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(100)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(200)
		}
		x := BuildNSC(vals, optsFor(DesignBitmap))
		all := append([]int64(nil), vals...)
		for round := 0; round < 5; round++ {
			m := 1 + rng.Intn(20)
			ins := make([]int64, m)
			for i := range ins {
				ins[i] = rng.Int63n(200)
			}
			x.HandleInsertNSC(ins)
			all = append(all, ins...)
		}
		return checkNSCSorted(x, all) == nil && x.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickNSCInvariantUnderMixedUpdates adds deletes and modifies.
func TestQuickNSCInvariantUnderMixedUpdates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(100)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(i) // start perfectly sorted
		}
		design := DesignBitmap
		if rng.Intn(2) == 0 {
			design = DesignIdentifier
		}
		x := BuildNSC(vals, optsFor(design))
		all := append([]int64(nil), vals...)
		for round := 0; round < 8; round++ {
			switch rng.Intn(3) {
			case 0: // insert
				m := 1 + rng.Intn(10)
				ins := make([]int64, m)
				for i := range ins {
					ins[i] = rng.Int63n(300)
				}
				x.HandleInsertNSC(ins)
				all = append(all, ins...)
			case 1: // delete
				if len(all) == 0 {
					continue
				}
				k := 1 + rng.Intn(min(5, len(all)))
				del := samplePositions(rng, len(all), k)
				x.HandleDelete(del)
				for i := len(del) - 1; i >= 0; i-- {
					p := del[i]
					all = append(all[:p], all[p+1:]...)
				}
			case 2: // modify
				if len(all) == 0 {
					continue
				}
				p := rng.Intn(len(all))
				nv := rng.Int63n(300)
				all[p] = nv
				x.HandleModifyNSC([]uint64{uint64(p)})
			}
		}
		return checkNSCSorted(x, all) == nil && x.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
