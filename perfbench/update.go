package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"patchindex/internal/core"
	"patchindex/internal/datagen"
	"patchindex/internal/engine"
	"patchindex/internal/exec"
	"patchindex/internal/storage"
	"patchindex/internal/wal"
)

const streamTable = "stream"

// streamRow is one row of the update-stream table: key, the NUC column
// and the NSC column.
type streamRow [3]int64

var streamSchema = storage.Schema{
	{Name: "key", Kind: storage.KindInt64},
	{Name: "nuc", Kind: storage.KindInt64},
	{Name: "nsc", Kind: storage.KindInt64},
}

// updateRun drives update-stream: one client runs a fixed cycle of
// writes against a table with a NUC and an NSC PatchIndex, and keeps
// its own copy of the table to check the engine against.
type updateRun struct {
	*bench
	db  *engine.Database
	dir string
	rng *rand.Rand

	// model is the benchmark's copy of every partition, in row order.
	model                     [][]streamRow
	total                     int
	nextKey, nextNUC, nextNSC int64
	cycle                     int

	// Measured phase only.
	writeCalls  int
	userBytes   int64
	rowsWritten [2]int
	walAppended int64
	walBase     int64
	ckptBytes   int64
}

func runUpdate(b *bench) error {
	u := &updateRun{bench: b}
	s := b.cfg.sizes
	for i := 0; i < s.setups; i++ {
		if err := u.setup(filepath.Join(b.cfg.dir, fmt.Sprintf("setup-%d", i))); err != nil {
			return err
		}
	}
	u.initModel()
	b.note("sizes", fmt.Sprintf("rows=%d partitions=%d exception_rate=%g batch=%d modify_rows=%d checkpoint_every=%d_cycles",
		s.rows, s.parts, s.exceptionRate, s.batch, s.modifyRows, s.cyclesPerCkp), "")
	b.done(u.checkAll(u.db))

	// Recoveries start a tenth of the way from one checkpoint to the
	// next, so each replays the same number of WAL records.
	recoverAt := max(1, s.cyclesPerCkp/10)
	var lastRecover time.Time
	between := func() {
		if u.cycle%s.cyclesPerCkp == recoverAt && time.Since(lastRecover) >= s.recoverEvery {
			b.recoverProbe(u.dir, u.checkAll)
			lastRecover = time.Now()
		}
	}

	t := u.db.MustTable(streamTable)
	b.phase(s.warmup, false, u.step, nil)
	fast0, fall0 := t.InsertStats()
	joins0 := t.CollisionJoins()
	var err error
	u.walBase, err = walBytes(u.dir)
	b.done(err)
	b.phase(b.cfg.seconds, true, u.step, between)
	walEnd, err := walBytes(u.dir)
	b.done(err)
	u.walAppended += walEnd - u.walBase
	fast, fall := t.InsertStats()
	joins := t.CollisionJoins()
	// A phase too short to reach a recovery point runs on, untimed, to
	// one.
	if len(b.recoverS) == 0 {
		for u.cycle%s.cyclesPerCkp != recoverAt {
			u.step(-1)
		}
		b.recoverProbe(u.dir, u.checkAll)
	}

	b.done(u.checkAll(u.db))
	b.heapMB = liveHeapMB()
	u.report(float64(fast-fast0), float64(fall-fall0), float64(joins-joins0))
	u.db.Close()
	return nil
}

// setup builds the table in dir: generate with the paper's generator,
// load, create both PatchIndexes, and enable the WAL, which ends with a
// CheckpointToDisk. Earlier set-ups of the run are dropped first.
func (u *updateRun) setup(dir string) error {
	if u.db != nil {
		u.db.Close()
		u.db = nil
		if err := os.RemoveAll(u.dir); err != nil {
			return err
		}
	}
	u.calibrate("setup")
	s := u.cfg.sizes
	t0 := time.Now()
	nuc := datagen.NUCColumn(datagen.Config{Rows: s.rows, ExceptionRate: s.exceptionRate, Seed: u.cfg.seed})
	nsc := datagen.NSCColumn(datagen.Config{Rows: s.rows, ExceptionRate: s.exceptionRate, Seed: u.cfg.seed + 1})
	rows := make([]storage.Row, s.rows)
	for i := range rows {
		rows[i] = storage.Row{storage.I64(int64(i)), storage.I64(nuc[i]), storage.I64(nsc[i])}
	}
	db := engine.NewDatabase()
	t, err := db.CreateTable(streamTable, streamSchema, s.parts)
	if err != nil {
		return err
	}
	if err := t.Load(rows); err != nil {
		return err
	}
	if err := t.CreatePatchIndex("nuc", core.NearlyUnique, core.Options{}); err != nil {
		return err
	}
	if err := t.CreatePatchIndex("nsc", core.NearlySorted, core.Options{}); err != nil {
		return err
	}
	if err := db.EnableWAL(dir, wal.SyncNone); err != nil {
		return err
	}
	u.setupS = append(u.setupS, time.Since(t0).Seconds())
	u.db, u.dir = db, dir
	return nil
}

// initModel builds the benchmark's copy of the loaded table from the
// generator's output, splitting it into contiguous partition chunks
// the way a bulk load does, and seeds the write stream.
func (u *updateRun) initModel() {
	s := u.cfg.sizes
	nuc := datagen.NUCColumn(datagen.Config{Rows: s.rows, ExceptionRate: s.exceptionRate, Seed: u.cfg.seed})
	nsc := datagen.NSCColumn(datagen.Config{Rows: s.rows, ExceptionRate: s.exceptionRate, Seed: u.cfg.seed + 1})
	u.model = make([][]streamRow, s.parts)
	per := (s.rows + s.parts - 1) / s.parts
	for i := 0; i < s.rows; i++ {
		p := min(i/per, s.parts-1)
		u.model[p] = append(u.model[p], streamRow{int64(i), nuc[i], nsc[i]})
	}
	u.total = s.rows
	u.nextKey = int64(s.rows)
	u.nextNUC = slices.Max(nuc) + 1
	u.nextNSC = slices.Max(nsc) + 1
	u.rng = rand.New(rand.NewSource(u.cfg.seed + 2))
}

// perCycle is how many rows the two InsertRows batches of a cycle add
// to partition p (the engine deals each batch out round-robin).
func (u *updateRun) perCycle(p int) int {
	s := u.cfg.sizes
	return 2 * ((s.batch - p + s.parts - 1) / s.parts)
}

// step runs one cycle: InsertRows of two batches; DeleteRowIDs of the
// oldest rows of partition cycle%parts, as many as it gained over the
// last parts cycles, so the table keeps its size; and Modify of a few
// of the oldest rows of another partition in each indexed column.
// Those rows are deleted two cycles later, so the exception rates do
// not drift with run length. Every cyclesPerCkp cycles it
// checkpoints.
func (u *updateRun) step(k int) {
	s := u.cfg.sizes
	p := u.cycle % s.parts
	q := (u.cycle + 2) % s.parts

	u.insertBatch(k)
	u.insertBatch(k)

	del := min(s.parts*u.perCycle(p), len(u.model[p]))
	ids := make([]uint64, del)
	for i := range ids {
		ids[i] = uint64(i)
	}
	if u.write(k, "engine.delete", del, 8*del, func() error {
		return u.db.DeleteRowIDs(streamTable, p, ids)
	}) {
		u.model[p] = u.model[p][del:]
		u.total -= del
		u.done(u.checkCount())
	}

	window := min(s.parts*u.perCycle(q), len(u.model[q]))
	for col, name := range []string{"nuc", "nsc"} {
		m := min(s.modifyRows, window)
		ids := make([]uint64, m)
		for i, pos := range u.rng.Perm(window)[:m] {
			ids[i] = uint64(pos)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		vals := make([]storage.Value, m)
		for i := range vals {
			if name == "nuc" {
				vals[i] = storage.I64(u.nextNUC)
				u.nextNUC++
			} else {
				vals[i] = storage.I64(u.rng.Int63n(u.nextNSC))
			}
		}
		if u.write(k, "engine.modify_"+name, m, 16*m, func() error {
			return u.db.Modify(streamTable, q, ids, name, vals)
		}) {
			for i, id := range ids {
				u.model[q][id][1+col] = vals[i].I
			}
			u.done(u.checkCount())
		}
	}

	u.cycle++
	if u.cycle%s.cyclesPerCkp == 0 {
		u.checkpoint(k)
	}
}

// insertBatch generates one batch, the generator's way: keys continue,
// and each value continues its column's sequence except with the
// exception rate, when the NUC value repeats a live row's value and the
// NSC value is drawn at random.
func (u *updateRun) insertBatch(k int) {
	s := u.cfg.sizes
	rows := make([]storage.Row, s.batch)
	for i := range rows {
		nuc := u.nextNUC
		if u.rng.Float64() < s.exceptionRate {
			nuc = u.randomRow()[1]
		} else {
			u.nextNUC++
		}
		nsc := u.nextNSC
		if u.rng.Float64() < s.exceptionRate {
			nsc = u.rng.Int63n(u.nextNSC)
		} else {
			u.nextNSC++
		}
		rows[i] = storage.Row{storage.I64(u.nextKey), storage.I64(nuc), storage.I64(nsc)}
		u.nextKey++
	}
	if u.write(k, "engine.insert_rows", len(rows), 24*len(rows), func() error {
		return u.db.InsertRows(streamTable, rows)
	}) {
		for i, r := range rows {
			dst := i % s.parts
			u.model[dst] = append(u.model[dst], streamRow{r[0].I, r[1].I, r[2].I})
		}
		u.total += len(rows)
		u.done(u.checkCount())
	}
}

// write times one write call into bin k. It reports whether the call
// succeeded; a failure is counted here.
func (u *updateRun) write(k int, span string, rows, userBytes int, call func() error) bool {
	t0 := time.Now()
	err := call()
	t1 := time.Now()
	u.tr.record(span, t0, t1)
	if err != nil {
		u.done(fmt.Errorf("%s: %w", span, err))
		return false
	}
	u.sample(k, t1.Sub(t0))
	if k >= 0 {
		u.writeCalls++
		u.userBytes += int64(userBytes)
		u.rowsWritten[k] += rows
	}
	return true
}

func (u *updateRun) randomRow() streamRow {
	for {
		part := u.model[u.rng.Intn(len(u.model))]
		if len(part) > 0 {
			return part[u.rng.Intn(len(part))]
		}
	}
}

// checkpoint takes the periodic checkpoint and accounts the WAL bytes
// appended since the previous one, read just before it truncates them.
func (u *updateRun) checkpoint(k int) {
	before, err := walBytes(u.dir)
	if err != nil {
		u.done(err)
		return
	}
	if k >= 0 {
		u.calibrate("checkpoint")
	}
	d, err := u.timeCheckpoint(u.db, u.dir)
	u.done(err)
	after, err := walBytes(u.dir)
	u.done(err)
	if k >= 0 {
		u.walAppended += before - u.walBase
		u.checkpointMS = append(u.checkpointMS, ms(d))
		n, err := checkpointBytes(u.dir)
		u.done(err)
		u.ckptBytes += n
	}
	u.walBase = after
}

// checkCount compares the engine's row count with the model's.
func (u *updateRun) checkCount() error {
	want := u.total
	if u.cfg.wrongAnswer {
		want++
	}
	if n := u.db.MustTable(streamTable).NumRows(); n != want {
		return fmt.Errorf("table has %d rows, the model %d", n, want)
	}
	return nil
}

// checkAll compares db with the model: every partition's contents, the
// PatchIndex DISTINCT and sort plans, and the reference plans.
func (u *updateRun) checkAll(db *engine.Database) error {
	t, err := db.LookupTable(streamTable)
	if err != nil {
		return err
	}
	var nucs, nscs []int64
	for p, part := range u.model {
		for c, col := range []string{"key", "nuc", "nsc"} {
			got := t.ReadInt64Column(p, col)
			if len(got) != len(part) {
				return fmt.Errorf("partition %d has %d rows, the model %d", p, len(got), len(part))
			}
			for i, r := range part {
				if got[i] != r[c] {
					return fmt.Errorf("partition %d row %d %s = %d, the model %d", p, i, col, got[i], r[c])
				}
			}
		}
		for _, r := range part {
			nucs = append(nucs, r[1])
			nscs = append(nscs, r[2])
		}
	}
	slices.Sort(nscs)
	slices.Sort(nucs)
	wantDistinct := len(slices.Compact(nucs))
	if u.cfg.wrongAnswer {
		wantDistinct++
	}
	for _, mode := range []engine.PlanMode{engine.PlanPatchIndex, engine.PlanReference} {
		op, err := db.Distinct(streamTable, "nuc", engine.QueryOptions{Mode: mode})
		if err != nil {
			return err
		}
		n, err := exec.Count(op)
		if err != nil {
			return err
		}
		if n != wantDistinct {
			return fmt.Errorf("DISTINCT nuc (mode %d) returned %d values, the model %d", mode, n, wantDistinct)
		}
		op, err = db.SortQuery(streamTable, "nsc", false, engine.QueryOptions{Mode: mode})
		if err != nil {
			return err
		}
		sorted, err := engine.CollectInt64(op)
		if err != nil {
			return err
		}
		if !slices.Equal(sorted, nscs) {
			return fmt.Errorf("ORDER BY nsc (mode %d) differs from the model", mode)
		}
	}
	return nil
}

// report fills the per-layer metrics and the report lines.
func (u *updateRun) report(fast, fallback, joins float64) {
	w := &u.bins[0]
	u.note("write_p50_ms", w.p50(), "ms")
	u.note("write_p99_ms", w.p99(), "ms")
	u.note("rows_written_per_s", ratio(float64(u.rowsWritten[0]), w.wall.Seconds()), "1/s")
	u.note("wal_bytes_per_user_byte", ratio(float64(u.walAppended), float64(u.userBytes)), "ratio")
	u.note("insert_batches", fmt.Sprintf("fast=%d fallback=%d", int(fast), int(fallback)), "")

	us := func(names ...string) float64 {
		return 1000 * median(u.tr.durations(func(s, _ *span) bool { return slices.Contains(names, s.Name) }))
	}
	l := u.layer
	l["engine.insert_rows.p50_us"] = us("engine.insert_rows")
	l["engine.delete.p50_us"] = us("engine.delete")
	l["engine.modify.p50_us"] = us("engine.modify_nuc", "engine.modify_nsc")
	l["engine.modify_nuc.p50_us"] = us("engine.modify_nuc")
	l["engine.modify_nsc.p50_us"] = us("engine.modify_nsc")
	l["engine.insert.fast_ratio"] = ratio(fast, fast+fallback)
	l["engine.collision_joins"] = joins
	l["engine.checkpoint.p50_ms"] = median(u.tr.durations(named("engine.checkpoint")))
	l["engine.checkpoint.bytes_per_user_byte"] = ratio(float64(u.ckptBytes), float64(u.userBytes))
	l["wal.bytes_per_op"] = ratio(float64(u.walAppended), float64(u.writeCalls))
	l["wal.bytes_per_user_byte"] = ratio(float64(u.walAppended), float64(u.userBytes))
	t := u.db.MustTable(streamTable)
	l["core.index_bytes.nuc"] = float64(t.IndexMemoryBytes("nuc"))
	l["core.index_bytes.nsc"] = float64(t.IndexMemoryBytes("nsc"))
	l["core.exception_rate.nuc"] = t.ExceptionRate("nuc")
	l["core.exception_rate.nsc"] = t.ExceptionRate("nsc")
}
