package engine

import (
	"flag"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"patchindex/internal/core"
	"patchindex/internal/storage"
)

var modifySeed = flag.Int64("modify.seed", 1, "first seed of the NUC Modify oracle workload")

// oracleRow is one row of the oracle's copy of the table: the int64 and
// string NUC columns and whether each is a patch.
type oracleRow struct {
	i      int64
	s      string
	pi, ps bool
}

// nucOracle is a row-at-a-time reference of NUC update handling with
// the semantics of the Fig. 5 join: after an insert or modify of the
// rows C, the patches are the prior patches, plus every row of C whose
// new value now occurs twice or more or was sealed before the
// operation, plus every occurrence of a value of C occurring twice or
// more. Deletes drop rows and keep the survivors' marks.
type nucOracle struct {
	parts [][]oracleRow
}

// key returns row r's value in the column under test as a map key.
func (o *nucOracle) key(r oracleRow, str bool) string {
	if str {
		return "s:" + r.s
	}
	return fmt.Sprint("i:", r.i)
}

func (o *nucOracle) counts(str bool) map[string]int {
	n := make(map[string]int)
	for _, part := range o.parts {
		for _, r := range part {
			n[o.key(r, str)]++
		}
	}
	return n
}

// changed applies the Fig. 5 rule for the changed rows (partition,
// row) of one column; sealed reports whether a row's value was sealed
// before the operation.
func (o *nucOracle) changed(str bool, rows [][2]int, sealed func(oracleRow) bool) {
	n := o.counts(str)
	colliding := make(map[string]bool)
	for _, pr := range rows {
		r := &o.parts[pr[0]][pr[1]]
		k := o.key(*r, str)
		if n[k] >= 2 {
			colliding[k] = true
		}
		if n[k] >= 2 || sealed(*r) {
			if str {
				r.ps = true
			} else {
				r.pi = true
			}
		}
	}
	for p := range o.parts {
		for j := range o.parts[p] {
			r := &o.parts[p][j]
			if colliding[o.key(*r, str)] {
				if str {
					r.ps = true
				} else {
					r.pi = true
				}
			}
		}
	}
}

// TestModifyNUCOracle drives random InsertRows, DeleteRowIDs and
// multi-row Modify operations against a multi-partition table with a
// NUC index on an int64 and on a string column, and after every
// operation compares both columns' patch sets with nucOracle. The
// modifies move rows to a value living in another partition, to a
// sealed value, two rows to one fresh value, a duplicate away to a
// fresh value, and to a value whose occurrences were all deleted.
// Modify of either column kind that leaves its collision handling
// undone diverges from the oracle.
func TestModifyNUCOracle(t *testing.T) {
	for seed := *modifySeed; seed < *modifySeed+4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runModifyOracle(t, seed)
		})
	}
}

func runModifyOracle(t *testing.T, seed int64) {
	const parts = 3
	rng := rand.New(rand.NewSource(seed))
	db := newDB(t)
	tb, err := db.CreateTable("t", storage.Schema{
		{Name: "i", Kind: storage.KindInt64},
		{Name: "s", Kind: storage.KindString},
	}, parts)
	if err != nil {
		t.Fatal(err)
	}
	str := func(v int64) string { return fmt.Sprintf("v%03d", v) }
	var base []storage.Row
	for j := 0; j < 60; j++ {
		base = append(base, storage.Row{storage.I64(int64(rng.Intn(80))), storage.Str(str(int64(rng.Intn(80))))})
	}
	if err := tb.Load(base); err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"i", "s"} {
		if err := tb.CreatePatchIndex(c, core.NearlyUnique, tinyOpts(core.DesignBitmap)); err != nil {
			t.Fatal(err)
		}
	}

	// The oracle starts from the engine's discovery result.
	o := &nucOracle{parts: make([][]oracleRow, parts)}
	for p := 0; p < parts; p++ {
		ints := tb.ReadInt64Column(p, "i")
		strs := readStrings(tb, p, "s")
		xi, xs := tb.PatchIndexes("i")[p], tb.PatchIndexes("s")[p]
		for j := range ints {
			o.parts[p] = append(o.parts[p], oracleRow{i: ints[j], s: strs[j], pi: xi.IsPatch(uint64(j)), ps: xs.IsPatch(uint64(j))})
		}
	}

	fresh := int64(1000)
	everSeen := map[string]bool{}
	note := func() {
		for _, part := range o.parts {
			for _, r := range part {
				everSeen[o.key(r, false)] = true
				everSeen[o.key(r, true)] = true
			}
		}
	}
	note()
	modifies := map[string]int{}

	for step := 0; step < 150; step++ {
		sealedI, sealedS := tb.nuc["i"].Sealed(), tb.nuc["s"].Sealed()
		sealed := func(isStr bool) func(oracleRow) bool {
			return func(r oracleRow) bool {
				if isStr {
					return sealedS.ContainsString(r.s)
				}
				return sealedI.ContainsInt64(r.i)
			}
		}
		var what string
		switch op := rng.Intn(10); {
		case op < 3: // InsertRows, dealt round-robin like the engine does
			rows := make([]storage.Row, 1+rng.Intn(6))
			var changed [][2]int
			for j := range rows {
				iv, sv := int64(rng.Intn(80)), str(int64(rng.Intn(80)))
				if rng.Intn(3) == 0 {
					iv, sv = fresh, str(fresh)
					fresh++
				}
				rows[j] = storage.Row{storage.I64(iv), storage.Str(sv)}
				p := j % parts
				o.parts[p] = append(o.parts[p], oracleRow{i: iv, s: sv})
				changed = append(changed, [2]int{p, len(o.parts[p]) - 1})
			}
			if err := db.InsertRows("t", rows); err != nil {
				t.Fatal(err)
			}
			o.changed(false, changed, sealed(false))
			o.changed(true, changed, sealed(true))
			what = "insert"
		case op < 5: // DeleteRowIDs
			p := rng.Intn(parts)
			var rids []uint64
			var keep []oracleRow
			for j, r := range o.parts[p] {
				if rng.Intn(3) == 0 {
					rids = append(rids, uint64(j))
				} else {
					keep = append(keep, r)
				}
			}
			if len(rids) == 0 {
				continue
			}
			if err := db.DeleteRowIDs("t", p, rids); err != nil {
				t.Fatal(err)
			}
			o.parts[p] = keep
			what = "delete"
		default: // Modify of one column at 1-3 rows of one partition
			isStr := rng.Intn(2) == 0
			column := "i"
			if isStr {
				column = "s"
			}
			p := rng.Intn(parts)
			counts := o.counts(isStr)
			kind := rng.Intn(5)
			// Candidate rows: all of them, or the duplicated ones when
			// moving a duplicate away.
			var rows []int
			for j, r := range o.parts[p] {
				if kind != 3 || counts[o.key(r, isStr)] >= 2 {
					rows = append(rows, j)
				}
			}
			n := min(len(rows), 1+rng.Intn(3))
			if n == 0 {
				continue
			}
			pos := make([]int, n)
			for j, k := range rng.Perm(len(rows))[:n] {
				pos[j] = rows[k]
			}
			sort.Ints(pos)
			vals := make([]int64, n)
			for j := range vals {
				vals[j] = oracleValue(rng, o, isStr, kind, p, counts, everSeen, sealed(isStr), &fresh)
			}
			if kind == 2 && n >= 2 { // two rows to the same fresh value
				vals[1] = vals[0]
			}
			values := make([]storage.Value, n)
			rids := make([]uint64, n)
			var changed [][2]int
			for j, at := range pos {
				rids[j] = uint64(at)
				r := &o.parts[p][at]
				if isStr {
					values[j] = storage.Str(str(vals[j]))
					r.s = str(vals[j])
				} else {
					values[j] = storage.I64(vals[j])
					r.i = vals[j]
				}
				changed = append(changed, [2]int{p, at})
			}
			if err := db.Modify("t", p, rids, column, values); err != nil {
				t.Fatal(err)
			}
			o.changed(isStr, changed, sealed(isStr))
			what = fmt.Sprintf("modify %s kind %d", column, kind)
			modifies[column]++
		}
		note()
		checkOracle(t, tb, o, fmt.Sprintf("step %d (%s)", step, what))
	}
	if modifies["i"] == 0 || modifies["s"] == 0 {
		t.Fatalf("the run modified only some column kinds: %v", modifies)
	}
}

// oracleValue picks a modify's new value (as its int64 seed; string
// columns format it) for a row of partition p:
//
//	0: a value living in another partition
//	1: a sealed value
//	2: a fresh value (the caller gives two rows the same one)
//	3: a fresh value (the caller picks duplicated rows)
//	4: a value whose occurrences were all deleted
//
// falling back to a fresh value when no candidate exists.
func oracleValue(rng *rand.Rand, o *nucOracle, isStr bool, kind, p int, counts map[string]int,
	everSeen map[string]bool, sealed func(oracleRow) bool, fresh *int64) int64 {
	seedOf := func(r oracleRow) int64 {
		if isStr {
			var v int64
			fmt.Sscanf(r.s, "v%d", &v)
			return v
		}
		return r.i
	}
	var cands []int64
	switch kind {
	case 0:
		for q, part := range o.parts {
			if q != p {
				for _, r := range part {
					cands = append(cands, seedOf(r))
				}
			}
		}
	case 1:
		for _, part := range o.parts {
			for _, r := range part {
				if sealed(r) {
					cands = append(cands, seedOf(r))
				}
			}
		}
		for v := int64(0); v < *fresh; v++ {
			r := oracleRow{i: v, s: fmt.Sprintf("v%03d", v)}
			if counts[o.key(r, isStr)] == 0 && sealed(r) {
				cands = append(cands, v)
			}
		}
	case 4:
		for v := int64(0); v < *fresh; v++ {
			r := oracleRow{i: v, s: fmt.Sprintf("v%03d", v)}
			if k := o.key(r, isStr); everSeen[k] && counts[k] == 0 {
				cands = append(cands, v)
			}
		}
	}
	if len(cands) > 0 {
		return cands[rng.Intn(len(cands))]
	}
	v := *fresh
	*fresh++
	return v
}

func readStrings(tb *Table, p int, column string) []string {
	tb.lockPartition(p)
	defer tb.unlockPartition(p)
	return append([]string(nil), tb.viewLocked(p).MaterializeString(tb.store.Schema().MustColumnIndex(column))...)
}

// checkOracle compares the engine's contents and both columns' patch
// sets with the oracle and validates every index slot.
func checkOracle(t *testing.T, tb *Table, o *nucOracle, step string) {
	t.Helper()
	for p, part := range o.parts {
		ints, strs := tb.ReadInt64Column(p, "i"), readStrings(tb, p, "s")
		if len(ints) != len(part) {
			t.Fatalf("%s: partition %d has %d rows, the oracle %d", step, p, len(ints), len(part))
		}
		xi, xs := tb.PatchIndexes("i")[p], tb.PatchIndexes("s")[p]
		for _, x := range []*core.Index{xi, xs} {
			if err := x.Validate(); err != nil {
				t.Fatalf("%s: partition %d: %v", step, p, err)
			}
		}
		for j, r := range part {
			if ints[j] != r.i || strs[j] != r.s {
				t.Fatalf("%s: partition %d row %d = (%d, %q), the oracle (%d, %q)", step, p, j, ints[j], strs[j], r.i, r.s)
			}
			if got := xi.IsPatch(uint64(j)); got != r.pi {
				t.Fatalf("%s: int column partition %d row %d (value %d): patch=%v, the oracle %v", step, p, j, r.i, got, r.pi)
			}
			if got := xs.IsPatch(uint64(j)); got != r.ps {
				t.Fatalf("%s: string column partition %d row %d (value %q): patch=%v, the oracle %v", step, p, j, r.s, got, r.ps)
			}
		}
	}
}
