// Command perfbench is the repository benchmark. It builds one of three
// workloads from a seed, drives it through the engine's public entry
// points for a fixed time, checks every answer against an independent
// one, and prints a report followed by one JSON result line.
//
//	go run . --workload tpch-read --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a traced run and the tracing
// overhead. README.md describes the workloads and the metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

var workloads = map[string]func(*bench) error{
	"tpch-read":     func(b *bench) error { return runTPCH(b, false) },
	"htap-mixed":    func(b *bench) error { return runTPCH(b, true) },
	"update-stream": runUpdate,
}

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

// runMain runs the command and returns its exit code: 0 when every
// operation and check passed, 1 otherwise.
func runMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "tpch-read, update-stream or htap-mixed")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	dir := fs.String("dir", "", "directory for the WAL and checkpoints (default: a new temporary directory)")
	spans := fs.String("spans", "", "file a traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		dir:      *dir,
		spans:    *spans,
		sizes:    fullSizes,
	}
	res, err := run(cfg, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// run runs one workload and prints its report; the caller prints the
// result line.
func run(cfg config, out io.Writer) (result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return result{}, errors.New("--seconds must be positive")
	}
	if cfg.dir == "" {
		d, err := os.MkdirTemp("", "perfbench-")
		if err != nil {
			return result{}, err
		}
		cfg.dir = d
	} else if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(cfg.dir)

	b := newBench(cfg, out)
	if err := w(b); err != nil {
		return result{}, err
	}
	if cfg.trace && cfg.spans != "" {
		if err := b.tr.writeFile(cfg.spans); err != nil {
			return result{}, err
		}
	}
	res := b.result()
	b.printReport(res)
	return res, nil
}

func (b *bench) printReport(res result) {
	c := b.cfg
	fmt.Fprintf(b.out, "# workload %s seed %d seconds %g trace %v\n", c.workload, c.seed, c.seconds.Seconds(), c.trace)
	fmt.Fprintf(b.out, "# go %s nproc %d GOMAXPROCS %d wal SyncNone\n", runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	u := &b.bins[0]
	fmt.Fprintf(b.out, "# op samples %d (%d beyond p99), rounds %d, set-ups %d, checkpoints %d, recoveries %d\n",
		len(u.lat), len(u.lat)-int(0.99*float64(len(u.lat))), len(u.rounds), len(b.setupS), len(b.checkpointMS), len(b.recoverS))
	for _, n := range b.notes {
		fmt.Fprintln(b.out, strings.TrimSpace("# "+n[0]+" "+n[1]+" "+n[2]))
	}
	fmt.Fprintf(b.out, "# error_rate %g ratio (%d failed of %d attempted)\n",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	if !c.trace {
		for _, g := range []string{"setup", "op", "checkpoint", "recover"} {
			fmt.Fprintf(b.out, "# host speed %s %g (calibration kernel median %g ms of %d runs)\n",
				g, b.speed(g), median(b.cal[g]), len(b.cal[g]))
		}
		raw, scaled := b.endToEndValues(false), b.endToEndValues(true)
		for _, list := range [][]metricDef{defs, reported} {
			for _, d := range list {
				fmt.Fprintf(b.out, "# raw %s %g %s\n", d.name, raw[d.name], d.unit)
			}
		}
		for _, d := range reported {
			fmt.Fprintf(b.out, "# %s %g %s\n", d.name, scaled[d.name], d.unit)
		}
	}
	for _, d := range defs {
		fmt.Fprintf(b.out, "# %s %g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
}
