package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// sizes fixes the scale of every workload. fullSizes is what the
// command runs; the tests use quickSizes.
type sizes struct {
	// tpch-read and htap-mixed: TPC-H scale factor, lineitem partitions,
	// and the share of lineitem rows displaced from l_orderkey order.
	tpchSF        float64
	tpchParts     int
	exceptionRate float64
	// update-stream: generated rows and partitions, InsertRows batch
	// size, rows per Modify call, and a CheckpointToDisk every
	// cyclesPerCkp cycles.
	rows         int
	parts        int
	batch        int
	modifyRows   int
	cyclesPerCkp int
	// htap-mixed: orders per RF1/RF2 call, and a maintainer Sweep every
	// sweepEvery refresh pairs.
	rfOrders   int
	sweepEvery int
	// Every workload: set-ups per run (setup_s is their median), the
	// untimed warm-up, the spacing of the timed recoveries of the
	// measured phase and, on the query workloads, of its timed
	// checkpoints, and the length of the alternating untraced and traced
	// blocks of a traced run.
	setups          int
	warmup          time.Duration
	checkpointEvery time.Duration
	recoverEvery    time.Duration
	traceBlock      time.Duration
}

var fullSizes = sizes{
	tpchSF: 0.03, tpchParts: 4, exceptionRate: 0.05,
	rows: 200_000, parts: 4, batch: 50, modifyRows: 5, cyclesPerCkp: 100,
	rfOrders: 15, sweepEvery: 8,
	setups: 9, warmup: 1500 * time.Millisecond, checkpointEvery: time.Second, recoverEvery: 3 * time.Second,
	traceBlock: 500 * time.Millisecond,
}

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// dir holds the WAL and checkpoints; spans, when set, is the file a
	// traced run writes its spans to.
	dir   string
	spans string
	sizes sizes
	// wrongAnswer perturbs every expected answer, so every correctness
	// check must fail. Only the tests set it.
	wrongAnswer bool
}

// bin collects the client operations of one kind of block: untraced
// (index 0) or traced (index 1). A round is one pass of the client's
// fixed mix of operations; its latency is the sum of theirs.
type bin struct {
	lat    []float64 // ms per client operation
	rounds []float64 // ms per round
	wall   time.Duration
}

func (b *bin) p50() float64 { return percentile(b.lat, 0.5) }
func (b *bin) p90() float64 { return percentile(b.lat, 0.9) }
func (b *bin) p99() float64 { return percentile(b.lat, 0.99) }

func (b *bin) opsPerS() float64 {
	if b.wall <= 0 {
		return 0
	}
	return float64(len(b.lat)) / b.wall.Seconds()
}

// bench is the state every workload shares: the tracer, the counters
// of the correctness gate, the latency bins, and the timings taken
// outside the measured phase.
type bench struct {
	cfg  config
	out  io.Writer
	tr   *tracer
	bins [2]bin

	attempted, failed atomic.Int64

	setupS       []float64
	checkpointMS []float64
	recoverS     []float64
	heapMB       float64
	// cal holds the calibration kernel's times, by the group of timings
	// they were taken next to: "setup", "op", "checkpoint", "recover".
	cal map[string][]float64

	// layer holds the per-layer metrics a workload measured; names
	// missing here are reported as 0 (the workload does not use that
	// layer).
	layer map[string]float64
	// notes are extra report lines: run metadata and the workload's own
	// end-to-end figures.
	notes [][3]string
}

func newBench(cfg config, out io.Writer) *bench {
	return &bench{cfg: cfg, out: out, tr: newTracer(), layer: map[string]float64{}, cal: map[string][]float64{}}
}

// done counts one attempted operation or check; a non-nil err counts
// it as failed.
func (b *bench) done(err error) {
	b.attempted.Add(1)
	if err == nil {
		return
	}
	if n := b.failed.Add(1); n <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.cfg.workload, err)
	}
}

func (b *bench) note(name string, value any, unit string) {
	b.notes = append(b.notes, [3]string{name, fmt.Sprint(value), unit})
}

// phase calls step, which runs one round, until d has passed. step
// gets the bin its samples belong in: -1 during warm-up (nothing is
// kept), 0 for untraced and 1 for traced blocks of the measured phase.
// A traced run alternates the two kinds of block, so both sides of the
// overhead comparison see the same state. After each round of the
// measured phase, and outside its time, phase calls between, and it
// calibrates every calEvery.
func (b *bench) phase(d time.Duration, measured bool, step func(k int), between func()) {
	start := time.Now()
	var lastCal time.Time
	for {
		el := time.Since(start)
		if el >= d {
			break
		}
		k := -1
		if measured {
			k = 0
			if b.cfg.trace && (el/b.cfg.sizes.traceBlock)%2 == 1 {
				k = 1
			}
			if time.Since(lastCal) >= calEvery {
				b.calibrate("op")
				lastCal = time.Now()
			}
		}
		b.tr.on.Store(k == 1)
		t0 := time.Now()
		if k < 0 {
			step(k)
			continue
		}
		bn := &b.bins[k]
		first := len(bn.lat)
		step(k)
		bn.wall += time.Since(t0)
		var round float64
		for _, l := range bn.lat[first:] {
			round += l
		}
		bn.rounds = append(bn.rounds, round)
		if between != nil {
			// A traced run traces all of it, in either kind of block.
			b.tr.on.Store(b.cfg.trace)
			between()
		}
	}
	b.tr.on.Store(false)
}

// sample keeps the latency of one client operation in bin k.
func (b *bench) sample(k int, d time.Duration) {
	if k >= 0 {
		b.bins[k].lat = append(b.bins[k].lat, ms(d))
	}
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// percentile returns the q-quantile of xs by nearest rank (0 when xs
// is empty). xs is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
