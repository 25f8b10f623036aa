package experiments

import (
	"fmt"
	"io"

	"patchindex/internal/core"
	"patchindex/internal/datagen"
	"patchindex/internal/engine"
	"patchindex/internal/exec"
	"patchindex/internal/matview"
	"patchindex/internal/sortkey"
	"patchindex/internal/storage"
)

var figESweep = []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}

// loadGenerated creates a fresh database with the generator's key/value
// table for one constraint and exception rate.
func loadGenerated(s Scale, constraint core.Constraint, e float64) (*engine.Database, *engine.Table, []int64) {
	cfg := datagen.Config{Rows: s.Rows, ExceptionRate: e, Seed: 42}
	var vals []int64
	if constraint == core.NearlyUnique {
		vals = datagen.NUCColumn(cfg)
	} else {
		vals = datagen.NSCColumn(cfg)
	}
	db := engine.NewDatabase()
	t, err := db.CreateTable("t", datagen.KeyValueSchema(), s.Partitions)
	if err != nil {
		panic(err)
	}
	t.Load(datagen.KeyValueRows(vals))
	return db, t, vals
}

func mustCreatePI(t *engine.Table, constraint core.Constraint, design core.Design) {
	if err := t.CreatePatchIndex("val", constraint, core.Options{Design: design}); err != nil {
		panic(err)
	}
}

func runQuery(db *engine.Database, constraint core.Constraint, mode engine.PlanMode) {
	var op exec.Operator
	var err error
	if constraint == core.NearlyUnique {
		op, err = db.Distinct("t", "val", engine.QueryOptions{Mode: mode})
	} else {
		op, err = db.SortQuery("t", "val", false, engine.QueryOptions{Mode: mode})
	}
	if err != nil {
		panic(err)
	}
	if _, err := exec.Count(op); err != nil {
		panic(err)
	}
}

// RunFig7 reproduces Fig. 7: distinct (NUC) and sort (NSC) query
// runtimes over the exception rate for: no constraint, the specialized
// materialization (materialized view / SortKey), and both PatchIndex
// designs. Expected shape: PatchIndex runtimes stay near the
// materialization and far below the reference, increasing slightly
// with e.
func RunFig7(w io.Writer, s Scale) {
	header(w, "Fig. 7", "distinct/sort query runtime vs exception rate")
	fmt.Fprintf(w, "rows=%d partitions=%d\n", s.Rows, s.Partitions)
	for _, constraint := range []core.Constraint{core.NearlyUnique, core.NearlySorted} {
		qname := "distinct"
		if constraint == core.NearlySorted {
			qname = "sort"
		}
		fmt.Fprintf(w, "\n[%s — %s query] runtimes in ms\n", constraint, qname)
		fmt.Fprintf(w, "%-6s %16s %16s %14s %16s\n", "e", "w/o constraint", "materialization", "PI_bitmap", "PI_identifier")
		for _, e := range figESweep {
			// Reference.
			db, _, _ := loadGenerated(s, constraint, e)
			tRef := timeIt(func() { runQuery(db, constraint, engine.PlanReference) })

			// Specialized materialization.
			var tMat float64
			if constraint == core.NearlyUnique {
				db2, t2, _ := loadGenerated(s, constraint, e)
				mv, err := matview.CreateFromTable(t2, 1)
				if err != nil {
					panic(err)
				}
				tMat = ms(timeIt(func() {
					if _, err := exec.Count(mv.Scan()); err != nil {
						panic(err)
					}
				}))
				_ = db2
			} else {
				_, t2, _ := loadGenerated(s, constraint, e)
				sk := sortkey.Create(t2.Store(), 1, false)
				tMat = ms(timeIt(func() {
					if _, err := exec.Count(sk.SortedScan()); err != nil {
						panic(err)
					}
				}))
			}

			// PatchIndex designs.
			var tPI [2]float64
			for di, design := range []core.Design{core.DesignBitmap, core.DesignIdentifier} {
				db3, t3, _ := loadGenerated(s, constraint, e)
				mustCreatePI(t3, constraint, design)
				tPI[di] = ms(timeIt(func() { runQuery(db3, constraint, engine.PlanPatchIndex) }))
			}
			fmt.Fprintf(w, "%-6.1f %16.2f %16.2f %14.2f %16.2f\n", e, ms(tRef), tMat, tPI[0], tPI[1])
		}
	}
}

// RunFig8 reproduces Fig. 8: creation time of the materialization vs the
// PatchIndex designs over the exception rate. Expected shape: PatchIndex
// creation slightly above the materialized view (NUC) and far below the
// SortKey (NSC); bitmap design cheaper than identifier design.
func RunFig8(w io.Writer, s Scale) {
	header(w, "Fig. 8", "materialization/index creation time vs exception rate")
	for _, constraint := range []core.Constraint{core.NearlyUnique, core.NearlySorted} {
		fmt.Fprintf(w, "\n[%s] creation runtimes in ms\n", constraint)
		fmt.Fprintf(w, "%-6s %16s %14s %16s\n", "e", "materialization", "PI_bitmap", "PI_identifier")
		for _, e := range figESweep {
			var tMat float64
			if constraint == core.NearlyUnique {
				_, t2, _ := loadGenerated(s, constraint, e)
				tMat = ms(timeIt(func() {
					if _, err := matview.CreateFromTable(t2, 1); err != nil {
						panic(err)
					}
				}))
			} else {
				_, t2, _ := loadGenerated(s, constraint, e)
				tMat = ms(timeIt(func() { sortkey.Create(t2.Store(), 1, false) }))
			}
			var tPI [2]float64
			for di, design := range []core.Design{core.DesignBitmap, core.DesignIdentifier} {
				_, t3, _ := loadGenerated(s, constraint, e)
				tPI[di] = ms(timeIt(func() { mustCreatePI(t3, constraint, design) }))
			}
			fmt.Fprintf(w, "%-6.1f %16.2f %14.2f %16.2f\n", e, tMat, tPI[0], tPI[1])
		}
	}
}

// RunTable3 reproduces Table 3: memory consumption of PI_bitmap,
// PI_identifier and the materialized view — the analytic formulas at the
// paper's 10^9-tuple scale plus measured values at this run's scale.
func RunTable3(w io.Writer, s Scale) {
	header(w, "Table 3", "memory consumption")
	const paperT = 1e9
	const dupValues = 100_000
	fmt.Fprintf(w, "analytic, t=1e9 (paper scale), 8B values:\n")
	fmt.Fprintf(w, "%-8s %14s %16s %16s\n", "e", "PI_bitmap", "PI_identifier", "mat.view (NUC)")
	for _, e := range []float64{0.01, 0.2} {
		bitmapB := paperT / 8 * 1.0039
		idB := e * paperT * 8
		mvB := (dupValues + (1-e)*paperT) * 8
		fmt.Fprintf(w, "%-8.2f %14s %16s %16s\n", e, human(bitmapB), human(idB), human(mvB))
	}

	fmt.Fprintf(w, "\nmeasured, t=%d (this run):\n", s.Rows)
	fmt.Fprintf(w, "%-8s %14s %16s %16s\n", "e", "PI_bitmap", "PI_identifier", "mat.view (NUC)")
	for _, e := range []float64{0.01, 0.2} {
		_, t1, _ := loadGenerated(s, core.NearlyUnique, e)
		mustCreatePI(t1, core.NearlyUnique, core.DesignBitmap)
		bmB := float64(t1.IndexMemoryBytes("val"))

		_, t2, _ := loadGenerated(s, core.NearlyUnique, e)
		mustCreatePI(t2, core.NearlyUnique, core.DesignIdentifier)
		idB := float64(t2.IndexMemoryBytes("val"))

		_, t3, _ := loadGenerated(s, core.NearlyUnique, e)
		mv, err := matview.CreateFromTable(t3, 1)
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(w, "%-8.2f %14s %16s %16s\n", e, human(bmB), human(idB), human(float64(mv.MemoryBytes())))
	}
}

func human(b float64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GB", b/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0f B", b)
	}
}

// RunFig9 reproduces Fig. 9: total runtime of inserting / modifying /
// deleting UpdateTuples tuples on the e=0.5 dataset at varying update
// granularities, for: no constraint, the specialized materialization
// (refreshed per update query), and both PatchIndex designs. Expected
// shape: materialization refresh dwarfs everything at fine granularity;
// PatchIndex overhead is small and vanishes at granularity >= 50;
// identifier design worse than bitmap; deletes nearly free for the
// PatchIndex. NUC MODIFY classifies the new values from the engine's
// per-partition collision counts instead of running the Fig. 5 join
// (NUC INSERT still runs it), so those cells measure this
// repository's modify handling, not the paper's query.
func RunFig9(w io.Writer, s Scale) {
	header(w, "Fig. 9", "update performance at e=0.5 for varying granularities")
	fmt.Fprintf(w, "rows=%d, update set=%d tuples; runtimes in ms\n", s.Rows, s.UpdateTuples)
	grans := []int{5, 10, 50, 100, 500, 1000}
	for _, constraint := range []core.Constraint{core.NearlyUnique, core.NearlySorted} {
		for _, op := range []string{"INSERT", "MODIFY", "DELETE"} {
			fmt.Fprintf(w, "\n[%s %s]\n", constraint, op)
			fmt.Fprintf(w, "%-6s %16s %16s %14s %16s\n", "gran", "w/o constraint", "materialization", "PI_bitmap", "PI_identifier")
			for _, g := range grans {
				if g > s.UpdateTuples {
					continue
				}
				ref := runUpdateExperiment(s, constraint, op, g, "none")
				mat := runUpdateExperiment(s, constraint, op, g, "mat")
				pib := runUpdateExperiment(s, constraint, op, g, "pi_bitmap")
				pii := runUpdateExperiment(s, constraint, op, g, "pi_identifier")
				fmt.Fprintf(w, "%-6d %16.2f %16.2f %14.2f %16.2f\n", g, ref, mat, pib, pii)
			}
		}
	}
}

// runUpdateExperiment measures one cell of Fig. 9: apply UpdateTuples
// updates in chunks of granularity g with the given approach.
func runUpdateExperiment(s Scale, constraint core.Constraint, op string, g int, approach string) float64 {
	db, t, _ := loadGenerated(s, constraint, 0.5)
	switch approach {
	case "pi_bitmap":
		mustCreatePI(t, constraint, core.DesignBitmap)
	case "pi_identifier":
		mustCreatePI(t, constraint, core.DesignIdentifier)
	}
	var mv *matview.View
	var sk *sortkey.SortKey
	if approach == "mat" {
		if constraint == core.NearlyUnique {
			var err error
			mv, err = matview.CreateFromTable(t, 1)
			if err != nil {
				panic(err)
			}
		} else {
			sk = sortkey.Create(t.Store(), 1, false)
		}
	}
	refresh := func() {
		if mv != nil {
			if err := mv.RefreshFromTable(t, 1); err != nil {
				panic(err)
			}
		}
		if sk != nil {
			sk.Rebuild()
		}
	}

	total := s.UpdateTuples
	nextKey := int64(s.Rows)
	elapsed := timeIt(func() {
		done := 0
		chunk := 0
		for done < total {
			n := g
			if done+n > total {
				n = total - done
			}
			switch op {
			case "INSERT":
				rows := datagen.InsertBatch(nextKey, n, 0.5, int64(chunk))
				nextKey += int64(n)
				if err := db.Insert("t", rows); err != nil {
					panic(err)
				}
			case "MODIFY":
				part := chunk % s.Partitions
				rowIDs := make([]uint64, n)
				values := make([]storage.Value, n)
				base := (chunk * 131) % (s.Rows/s.Partitions - total)
				for i := 0; i < n; i++ {
					rowIDs[i] = uint64(base + i)
					values[i] = storage.I64(int64(i * 7))
				}
				if err := db.Modify("t", part, rowIDs, "val", values); err != nil {
					panic(err)
				}
			case "DELETE":
				part := chunk % s.Partitions
				rowIDs := make([]uint64, n)
				for i := 0; i < n; i++ {
					rowIDs[i] = uint64(i * 2)
				}
				if err := db.DeleteRowIDs("t", part, rowIDs); err != nil {
					panic(err)
				}
			}
			if approach == "mat" {
				refresh()
			}
			done += n
			chunk++
		}
	})
	return ms(elapsed)
}
