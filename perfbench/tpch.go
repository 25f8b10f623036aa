package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"patchindex/internal/engine"
	"patchindex/internal/exec"
	"patchindex/internal/plan"
	"patchindex/internal/query"
	"patchindex/internal/storage"
	"patchindex/internal/tpch"
	"patchindex/internal/wal"
)

// tpchQueries is the query mix of tpch-read and htap-mixed, run in turn.
var tpchQueries = []struct {
	name string
	plan func() *query.Plan
}{
	{"q3", tpch.Q3Plan},
	{"q7", tpch.Q7Plan},
	{"q12", tpch.Q12Plan},
}

// tpchTables are the tables the queries read.
var tpchTables = []string{"customer", "lineitem", "orders", "supplier"}

// tpchRun drives tpch-read (one query client, no writes) and, with
// mixed set, htap-mixed (the query client in lockstep with one refresh
// client).
type tpchRun struct {
	*bench
	mixed   bool
	ds      *tpch.Dataset
	maint   *engine.Maintainer
	dir     string
	plans   []*query.Plan
	chooser *plan.Chooser
	// ref holds the ForceReference answers of tpch-read. Its data never
	// changes, so they are computed once, at the start-of-run check.
	ref [][]storage.Row

	// Traced queries only: MemStats deltas, access-path decisions, rows
	// visited by scans and returned, and pending delta rows seen.
	traced                 int
	allocBytes, gcs        uint64
	piDecisions, decisions int
	visited, rowsOut       int
	pending                int

	// WAL bytes appended in the measured phase, and the segments' size
	// at its start or after its last checkpoint.
	walAppended, walBase int64

	// Refresh client only, read after it has stopped: RF1/RF2 call
	// latencies and rows written, by bin.
	rfLat  [2][]float64
	rfRows [2]int
}

func runTPCH(b *bench, mixed bool) error {
	r := &tpchRun{bench: b, mixed: mixed}
	for _, q := range tpchQueries {
		r.plans = append(r.plans, q.plan())
	}
	s := b.cfg.sizes
	for i := 0; i < s.setups; i++ {
		if err := r.setup(filepath.Join(b.cfg.dir, fmt.Sprintf("setup-%d", i))); err != nil {
			return err
		}
	}
	ds := r.ds
	li := ds.DB.MustTable("lineitem")
	b.note("sizes", fmt.Sprintf("SF=%g orders=%d lineitem=%d lineitem_partitions=%d exception_rate=%g",
		s.tpchSF, ds.NumOrders, ds.NumLineitems, li.NumPartitions(), s.exceptionRate), "")
	if mixed {
		b.note("refresh", fmt.Sprintf("RF1(%d)+RF2(%d) per query, Sweep every %d pairs", s.rfOrders, s.rfOrders, s.sweepEvery), "")
	}

	refs, err := r.fullCheck(ds.DB, nil)
	b.done(err)
	if refs == nil {
		return fmt.Errorf("start-of-run check: %w", err)
	}
	if !mixed {
		r.ref = refs
	}

	var tick chan int
	var paired chan struct{}
	var wg sync.WaitGroup
	if mixed {
		tick, paired = make(chan int), make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.refresh(tick, paired)
		}()
	}
	// A round ends with the refresh client idle, so the calibration
	// between rounds runs alone.
	step := func(k int) {
		for qi := range r.plans {
			if mixed {
				tick <- k
			}
			r.query(qi, k)
			if mixed {
				<-paired
			}
		}
	}
	var lastCheckpoint, lastRecover time.Time
	between := func() {
		if time.Since(lastCheckpoint) >= s.checkpointEvery {
			r.checkpoint()
			lastCheckpoint = time.Now()
		}
		if time.Since(lastRecover) >= s.recoverEvery {
			r.recoverCheck()
			lastRecover = time.Now()
		}
	}
	b.phase(s.warmup, false, step, nil)
	r.walBase, err = walBytes(r.dir)
	b.done(err)
	var st0 engine.MaintainerStats
	if r.maint != nil {
		st0 = r.maint.Stats()
	}
	b.phase(b.cfg.seconds, true, step, between)
	if mixed {
		close(tick)
		wg.Wait()
	}
	walEnd, err := walBytes(r.dir)
	b.done(err)
	r.walAppended += walEnd - r.walBase

	_, err = r.fullCheck(ds.DB, r.ref)
	b.done(err)
	b.heapMB = liveHeapMB()
	r.report(st0)
	ds.DB.Close()
	return nil
}

// checkpoint takes one timed checkpoint and accounts the WAL bytes
// appended since the one before, read just before it truncates them.
func (r *tpchRun) checkpoint() {
	before, err := walBytes(r.dir)
	r.done(err)
	r.walAppended += before - r.walBase
	r.checkpointProbe(r.ds.DB, r.dir)
	r.walBase, err = walBytes(r.dir)
	r.done(err)
}

// recoverCheck times the Recover of a copy of the directory and checks
// that the recovered database answers every query as the live one.
func (r *tpchRun) recoverCheck() {
	want := r.ref
	if want == nil {
		// htap-mixed: the data move, so answer on the live database
		// first. The refresh client is idle between rounds.
		refs, err := r.fullCheck(r.ds.DB, nil)
		r.done(err)
		if refs == nil {
			return
		}
		want = refs
	}
	r.recoverProbe(r.dir, func(db *engine.Database) error {
		_, err := r.fullCheck(db, want)
		return err
	})
}

// setup builds the dataset in dir: generate and load, create the NSC
// PatchIndex, then enable the WAL, which checkpoints. Earlier
// set-ups of the run are dropped before the next one starts.
func (r *tpchRun) setup(dir string) error {
	if r.ds != nil {
		r.ds.DB.Close()
		r.ds, r.maint = nil, nil
		if err := os.RemoveAll(r.dir); err != nil {
			return err
		}
	}
	r.calibrate("setup")
	s := r.cfg.sizes
	t0 := time.Now()
	ds, err := tpch.Generate(tpch.Config{SF: s.tpchSF, ExceptionRate: s.exceptionRate,
		LineitemPartitions: s.tpchParts, Seed: r.cfg.seed})
	if err != nil {
		return fmt.Errorf("generating TPC-H: %w", err)
	}
	if err := ds.CreatePatchIndex(); err != nil {
		return fmt.Errorf("creating the PatchIndex: %w", err)
	}
	// EnableWAL ends with the first CheckpointToDisk.
	if err := ds.DB.EnableWAL(dir, wal.SyncNone); err != nil {
		return fmt.Errorf("enabling the WAL: %w", err)
	}
	if r.mixed {
		cfg := engine.DefaultMaintainerConfig()
		cfg.Interval = 0
		if r.maint, err = ds.DB.StartMaintainer(cfg); err != nil {
			return err
		}
	}
	r.setupS = append(r.setupS, time.Since(t0).Seconds())
	r.ds, r.dir, r.chooser = ds, dir, plan.NewChooser()
	return nil
}

// query runs one query the way query.Run does (snapshot, compile,
// drain), timing each half, and checks its answer on the same
// snapshot.
func (r *tpchRun) query(qi int, k int) {
	p := r.plans[qi]
	traced := r.tr.on.Load()
	var m0, m1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&m0)
	}
	t0 := time.Now()
	snap, err := r.ds.DB.Snapshot(p.Tables()...)
	if err != nil {
		r.done(fmt.Errorf("Snapshot: %w", err))
		return
	}
	t1 := time.Now()
	c, err := query.CompileSnapshot(p, snap, query.Options{Chooser: r.chooser})
	t2 := time.Now()
	var rows []storage.Row
	if err == nil {
		rows, err = exec.Collect(c.Root)
	}
	t3 := time.Now()
	if traced {
		runtime.ReadMemStats(&m1)
		r.tr.record("query."+tpchQueries[qi].name, t0, t3,
			part{"engine.snapshot", t0, t1}, part{"query.compile", t1, t2}, part{"exec.drain", t2, t3})
		r.traced++
		r.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		r.gcs += uint64(m1.NumGC - m0.NumGC)
		r.pending += pendingRows(snap)
		if c != nil {
			for _, d := range c.Decisions {
				if d.Access == plan.AccessPatchIndex {
					r.piDecisions++
				}
			}
			r.decisions += len(c.Decisions)
			for _, sc := range c.Scans {
				r.visited += sc.RowsVisited
			}
			r.rowsOut += len(rows)
		}
	}
	if err == nil {
		r.sample(k, t3.Sub(t0))
		err = r.check(qi, snap, rows)
	}
	snap.Close()
	if err != nil {
		err = fmt.Errorf("%s: %w", tpchQueries[qi].name, err)
	}
	r.done(err)
}

// check compares one answer with ForceReference: the cached answer on
// tpch-read, a compile on the same snapshot on htap-mixed.
func (r *tpchRun) check(qi int, snap *engine.DatabaseSnapshot, rows []storage.Row) error {
	var want []storage.Row
	if r.ref != nil {
		want = r.ref[qi]
	} else {
		var err error
		if want, err = r.answer(qi, snap, query.Options{Mode: query.ForceReference}); err != nil {
			return err
		}
	}
	if r.cfg.wrongAnswer {
		want = perturbRows(want)
	}
	return sameRows(rows, want)
}

func (r *tpchRun) answer(qi int, snap *engine.DatabaseSnapshot, opts query.Options) ([]storage.Row, error) {
	c, err := query.CompileSnapshot(r.plans[qi], snap, opts)
	if err != nil {
		return nil, err
	}
	return exec.Collect(c.Root)
}

// fullCheck answers every query on one snapshot of db in Auto mode and
// with ForceReference, and requires the Auto answers to match the
// reference ones, and those to match want when it is given. It returns
// the reference answers, nil when a query could not run, and the first
// mismatch.
func (r *tpchRun) fullCheck(db *engine.Database, want [][]storage.Row) ([][]storage.Row, error) {
	snap, err := db.Snapshot(tpchTables...)
	if err != nil {
		return nil, err
	}
	defer snap.Close()
	refs := make([][]storage.Row, len(r.plans))
	var mismatch error
	for qi := range r.plans {
		name := tpchQueries[qi].name
		ref, err := r.answer(qi, snap, query.Options{Mode: query.ForceReference})
		if err != nil {
			return nil, fmt.Errorf("%s reference: %w", name, err)
		}
		auto, err := r.answer(qi, snap, query.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		refs[qi] = ref
		expect := ref
		if want != nil {
			expect = want[qi]
		}
		if r.cfg.wrongAnswer {
			expect = perturbRows(expect)
		}
		if err := sameRows(auto, expect); err != nil && mismatch == nil {
			mismatch = fmt.Errorf("%s: %w", name, err)
		}
		if err := sameRows(ref, expect); err != nil && mismatch == nil {
			mismatch = fmt.Errorf("%s reference: %w", name, err)
		}
	}
	return refs, mismatch
}

// refresh is the refresh client of htap-mixed: one RF1+RF2 pair per
// tick, and a maintainer Sweep every sweepEvery pairs, until tick is
// closed. The tick carries the bin of the query it runs beside; paired
// gets a value when the pair and any sweep are done.
func (r *tpchRun) refresh(tick <-chan int, paired chan<- struct{}) {
	n := r.cfg.sizes.rfOrders
	pairs := 0
	for k := range tick {
		t0 := time.Now()
		ins, err1 := r.ds.RF1(n, nil)
		t1 := time.Now()
		r.tr.record("tpch.rf1", t0, t1)
		r.done(err1)
		del, err2 := r.ds.RF2(n, nil)
		t2 := time.Now()
		r.tr.record("tpch.rf2", t1, t2)
		r.done(err2)
		if k >= 0 && err1 == nil && err2 == nil {
			r.rfLat[k] = append(r.rfLat[k], ms(t1.Sub(t0)), ms(t2.Sub(t1)))
			r.rfRows[k] += n + ins + n + del
		}
		if pairs++; pairs%r.cfg.sizes.sweepEvery == 0 {
			t3 := time.Now()
			r.maint.Sweep()
			r.tr.record("engine.maintainer.sweep", t3, time.Now())
		}
		paired <- struct{}{}
	}
}

// pendingRows counts the delta rows (inserts and deletes not yet in
// base storage) a snapshot's views carry.
func pendingRows(snap *engine.DatabaseSnapshot) int {
	var n int
	for _, name := range tpchTables {
		t := snap.Table(name)
		if t == nil {
			continue
		}
		for _, v := range t.Views() {
			if v.Delta != nil {
				n += v.Delta.NumInserts() + v.Delta.NumDeletes()
			}
		}
	}
	return n
}

func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// report fills the per-layer metrics and the report lines.
func (r *tpchRun) report(st0 engine.MaintainerStats) {
	u := &r.bins[0]
	r.note("query_p50_ms", u.p50(), "ms")
	r.note("query_p99_ms", u.p99(), "ms")
	r.note("queries_per_s", u.opsPerS(), "1/s")
	if r.mixed {
		r.note("write_p50_ms", median(r.rfLat[0]), "ms")
		r.note("write_p99_ms", percentile(r.rfLat[0], 0.99), "ms")
		r.note("write_samples", len(r.rfLat[0]), "count")
		r.note("rows_written_per_s", ratio(float64(r.rfRows[0]), u.wall.Seconds()), "1/s")
	}

	l := r.layer
	for _, q := range tpchQueries {
		parent := "query." + q.name
		l["exec.drain."+q.name+"_ms"] = median(r.tr.durations(func(s, p *span) bool {
			return s.Name == "exec.drain" && p != nil && p.Name == parent
		}))
	}
	tq := float64(r.traced)
	l["exec.alloc_mb_per_query"] = ratio(float64(r.allocBytes)/1e6, tq)
	l["go.gc_per_query"] = ratio(float64(r.gcs), tq)
	l["query.compile.p50_us"] = 1000 * median(r.tr.durations(named("query.compile")))
	var queryMS float64
	for _, d := range r.tr.durations(func(s, _ *span) bool { return strings.HasPrefix(s.Name, "query.q") }) {
		queryMS += d
	}
	self := r.tr.selfTimes()
	l["query.share.snapshot"] = ratio(self["engine.snapshot"], queryMS)
	l["query.share.compile"] = ratio(self["query.compile"], queryMS)
	l["query.share.drain"] = ratio(self["exec.drain"], queryMS)
	l["query.pi_decision_share"] = ratio(float64(r.piDecisions), float64(r.decisions))
	l["storage.scan.visited_per_row_out"] = ratio(float64(r.visited), float64(r.rowsOut))
	l["engine.snapshot.p50_us"] = 1000 * median(r.tr.durations(named("engine.snapshot")))
	l["pdt.pending_rows_per_query"] = ratio(float64(r.pending), tq)
	l["tpch.rf1.p50_ms"] = median(r.tr.durations(named("tpch.rf1")))
	l["tpch.rf2.p50_ms"] = median(r.tr.durations(named("tpch.rf2")))
	l["engine.checkpoint.p50_ms"] = median(r.tr.durations(named("engine.checkpoint")))
	rfCalls := float64(len(r.rfLat[0]) + len(r.rfLat[1]))
	l["wal.bytes_per_op"] = ratio(float64(r.walAppended), rfCalls)
	li := r.ds.DB.MustTable("lineitem")
	l["core.index_bytes.nsc"] = float64(li.IndexMemoryBytes("l_orderkey"))
	l["core.exception_rate.nsc"] = li.ExceptionRate("l_orderkey")
	if r.maint != nil {
		st := r.maint.Stats()
		l["engine.maintainer.sweep.p50_ms"] = median(r.tr.durations(named("engine.maintainer.sweep")))
		l["engine.maintainer.actions"] = float64(st.Actions - st0.Actions)
		l["engine.maintainer.refusals"] = float64(st.Refusals - st0.Refusals)
	}
}
