package core

import (
	"fmt"
	"testing"
)

// pairedStateInt64 builds a two-partition state in which each of the
// values [0, n) occurs once in each partition, so all n are sealed.
func pairedStateInt64(n int) *NUCState {
	counts := []map[int64]uint32{{}, {}}
	for v := int64(0); v < int64(n); v++ {
		counts[0][v] = 1
		counts[1][v] = 1
	}
	return NewNUCStateInt64(counts)
}

// sealedValuesInt64 lists which of the values [lo, hi) e holds.
func sealedValuesInt64(e *NUCExceptions, lo, hi int64) map[int64]bool {
	in := make(map[int64]bool)
	for v := lo; v < hi; v++ {
		if e.ContainsInt64(v) {
			in[v] = true
		}
	}
	return in
}

// TestSealOverlayFolds: a seal copies only the overlay, which folds
// into the base once it outgrows max(overlayFloor, √|base|); a seal of
// values already sealed publishes nothing.
func TestSealOverlayFolds(t *testing.T) {
	st := pairedStateInt64(400)
	base := st.Sealed()
	st.SealDuplicatesInt64([]int64{0, 1, 399})
	if st.Sealed() != base {
		t.Fatal("sealing only sealed values swapped the snapshot")
	}
	folds := 0
	for v := int64(1000); v < 1200; v++ {
		before := st.Sealed()
		st.SealDuplicatesInt64([]int64{v, v})
		e := st.Sealed()
		if e.Len() != before.Len()+1 {
			t.Fatalf("seal of %d: len %d -> %d", v, before.Len(), e.Len())
		}
		switch n := len(e.ints.overlay); {
		case n == 0:
			folds++
		case n > overlayFloor && n*n > len(e.ints.base):
			t.Fatalf("overlay of %d values over a base of %d did not fold", n, len(e.ints.base))
		case fmt.Sprintf("%p", e.ints.base) != fmt.Sprintf("%p", before.ints.base):
			t.Fatalf("seal of %d copied the base without folding", v)
		}
	}
	if folds == 0 || folds > 200/overlayFloor {
		t.Fatalf("%d folds over 200 seals", folds)
	}
	for v := int64(0); v < 400; v++ {
		if !st.Sealed().ContainsInt64(v) {
			t.Fatalf("folds lost sealed value %d", v)
		}
	}
}

// TestPruneSealedDropsZeroCountValues: PruneSealed waits until the set
// doubled since its last rebuild, then keeps exactly the values with a
// live occurrence, and old snapshots never change.
func TestPruneSealedDropsZeroCountValues(t *testing.T) {
	const n = 300
	st := pairedStateInt64(n)
	first := st.Sealed()
	if st.PruneDue() || st.PruneSealed() {
		t.Fatal("a freshly built set is due for pruning")
	}
	// Erode: value v < 100 loses both occurrences, 100 <= v < 200 one.
	for v := int64(0); v < 200; v++ {
		st.RemoveLocalInt64(0, v)
		if v < 100 {
			st.RemoveLocalInt64(1, v)
		}
	}
	// Seal n more values, half of them live, until the set doubled.
	for v := int64(1000); v < 1000+n; v++ {
		if v%2 == 0 {
			st.AddLocalInt64(0, v)
			st.AddLocalInt64(1, v)
		}
		st.SealDuplicatesInt64([]int64{v})
	}
	grown := st.Sealed()
	if !st.PruneDue() {
		t.Fatalf("a set of %d values built from %d is not due", grown.Len(), n)
	}
	if !st.PruneSealed() {
		t.Fatal("PruneSealed did not prune a due set")
	}
	pruned := st.Sealed()
	for v := int64(0); v < 1000+n; v++ {
		if want := (v >= 100 && v < n) || (v >= 1000 && v%2 == 0); pruned.ContainsInt64(v) != want {
			t.Fatalf("value %d (count %d): sealed=%v after pruning, want %v", v, st.GlobalCountInt64(v), !want, want)
		}
	}
	if len(pruned.ints.overlay) != 0 || pruned.pruneAt != max(pruneFloor, 2*pruned.Len()) {
		t.Fatalf("pruned set: overlay %d, pruneAt %d for %d values", len(pruned.ints.overlay), pruned.pruneAt, pruned.Len())
	}
	if st.PruneDue() || st.PruneSealed() {
		t.Fatal("a just-pruned set is due again")
	}
	// Old snapshots are immutable.
	if got := sealedValuesInt64(first, 0, 2000); len(got) != n || first.Len() != n {
		t.Fatalf("the first snapshot changed: %d values", len(got))
	}
	if got := sealedValuesInt64(grown, 0, 2000); len(got) != 2*n || grown.Len() != 2*n {
		t.Fatalf("the pre-prune snapshot changed: %d values", len(got))
	}
}

// TestPruneSealedString: the string half prunes the same way.
func TestPruneSealedString(t *testing.T) {
	counts := []map[string]uint32{{}, {}}
	for i := 0; i < pruneFloor; i++ {
		v := fmt.Sprint("s", i)
		counts[0][v], counts[1][v] = 1, 1
	}
	st := NewNUCStateString(counts)
	st.RemoveLocalString(0, "s0")
	st.RemoveLocalString(1, "s0")
	for i := 0; i < pruneFloor; i++ {
		st.SealDuplicatesString([]string{fmt.Sprint("new", i)})
	}
	if !st.PruneSealed() {
		t.Fatal("a due string set did not prune")
	}
	e := st.Sealed()
	if e.ContainsString("s0") || !e.ContainsString("s1") || e.ContainsString("new0") || e.Len() != pruneFloor-1 {
		t.Fatalf("string prune kept the wrong values: len %d", e.Len())
	}
}

// BenchmarkSealDuplicates seals one new value at a time into a set of
// the given size. The overlay keeps the cost per seal near √size
// rather than size; the state is rebuilt (untimed) every 1000 seals so
// the set stays within 1000 values of its nominal size.
func BenchmarkSealDuplicates(b *testing.B) {
	for _, size := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("sealed=%d", size), func(b *testing.B) {
			var st *NUCState
			next := int64(size)
			for i := 0; i < b.N; i++ {
				if i%1000 == 0 {
					b.StopTimer()
					st = pairedStateInt64(size)
					b.StartTimer()
				}
				st.SealDuplicatesInt64([]int64{next})
				next++
			}
		})
	}
}
