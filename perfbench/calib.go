package main

import (
	"runtime"
	"sync"
	"time"
)

// Host-speed calibration.
//
// The benchmark runs on a few cores of a shared host, whose speed for
// memory-bound work drifts by 5-35% over seconds to minutes as other
// tenants come and go. The figures of a memory-bound workload therefore
// move with the host as much as with the program. To take the host out,
// the benchmark interleaves a fixed memory-bound kernel, a scan of a
// column larger than a core's caches, with the work it times, and
// reports each time multiplied by calRefMS / (the kernel's median time
// next to it): the time it would take on a host where the kernel takes
// calRefMS. The kernel lives in
// this file and uses no repository code, so a change to the program
// does not change it. Raw times are printed in the report beside the
// scaled ones.

const (
	// calColumn is the kernel's column: 4 MB of int64, more than a
	// core's private caches hold, like the columns the engine scans.
	calColumn = 1 << 19
	// calRefMS is the kernel's median time on the reference host
	// (2 vCPU, Go 1.24). It only sets the scale of the scaled figures.
	calRefMS = 1.1
	// calRuns kernel runs make one calibration; a measured phase
	// calibrates every calEvery.
	calRuns  = 5
	calEvery = time.Second
)

// The kernel's column is a package array, outside the Go heap, so it
// neither adds to heap_mb nor gives the collector work.
var (
	calOnce sync.Once
	calCol  [calColumn]int64
	calSink int64
)

func calInit() {
	x := uint64(1)
	for i := range calCol {
		x = x*6364136223846793005 + 1442695040888963407
		calCol[i] = int64(x>>33) % 1000
	}
}

// calKernel runs the kernel, a filtered sum over calCol, once and
// returns its time in ms.
func calKernel() float64 {
	calOnce.Do(calInit)
	t0 := time.Now()
	var sum int64
	for _, v := range calCol {
		if v < 500 {
			sum += v
		}
	}
	calSink += sum
	return ms(time.Since(t0))
}

// calibrate collects garbage and runs the kernel calRuns times, filing
// the times under group. The collection first means the kernel always
// runs with the process quiet: the collector would otherwise share the
// host with it at times and rates that depend on the program.
func (b *bench) calibrate(group string) {
	runtime.GC()
	for i := 0; i < calRuns; i++ {
		b.cal[group] = append(b.cal[group], calKernel())
	}
}

// speed is how much faster than the reference host this host ran the
// kernel next to group's timings: scaled time = raw time × speed.
func (b *bench) speed(group string) float64 {
	m := median(b.cal[group])
	if m <= 0 {
		return 1
	}
	return calRefMS / m
}
