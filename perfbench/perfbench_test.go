package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
	"time"

	"patchindex/internal/storage"
)

// quickSizes shrinks every workload so a run takes a few seconds.
var quickSizes = sizes{
	tpchSF: 0.002, tpchParts: 4, exceptionRate: 0.05,
	rows: 20_000, parts: 4, batch: 50, modifyRows: 5, cyclesPerCkp: 10,
	rfOrders: 3, sweepEvery: 2,
	setups: 2, warmup: 50 * time.Millisecond, checkpointEvery: 300 * time.Millisecond, recoverEvery: 500 * time.Millisecond,
	traceBlock: 200 * time.Millisecond,
}

func quickRun(t *testing.T, workload string, trace, wrong bool) result {
	t.Helper()
	cfg := config{
		workload:    workload,
		seed:        7,
		seconds:     1200 * time.Millisecond,
		trace:       trace,
		dir:         t.TempDir(),
		sizes:       quickSizes,
		wrongAnswer: wrong,
	}
	res, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// usedLayers lists, per workload, the per-layer metrics that must read
// above 0 because the workload calls into that layer.
var usedLayers = map[string][]string{
	"tpch-read": {"exec.drain.q3_ms", "exec.drain.q7_ms", "exec.drain.q12_ms", "exec.alloc_mb_per_query",
		"query.compile.p50_us", "query.share.drain", "storage.scan.visited_per_row_out", "engine.snapshot.p50_us",
		"engine.checkpoint.p50_ms", "engine.recover.p50_ms", "core.index_bytes.nsc", "op.samples", "trace.spans",
		"trace.overhead.op_p50"},
	"update-stream": {"engine.insert_rows.p50_us", "engine.delete.p50_us", "engine.modify.p50_us",
		"engine.checkpoint.p50_ms", "engine.checkpoint.bytes_per_user_byte", "wal.bytes_per_op",
		"wal.bytes_per_user_byte", "engine.recover.records_applied", "engine.recover.records_per_s", "engine.recover.p50_ms",
		"core.index_bytes.nuc", "core.index_bytes.nsc", "core.exception_rate.nuc", "core.exception_rate.nsc",
		"op.samples", "trace.overhead.ops_per_s"},
	"htap-mixed": {"exec.drain.q3_ms", "query.compile.p50_us", "tpch.rf1.p50_ms", "tpch.rf2.p50_ms",
		"wal.bytes_per_op", "engine.maintainer.sweep.p50_ms", "core.index_bytes.nsc", "op.samples"},
}

func TestQuickRunsEmitEveryMetric(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			res := quickRun(t, w, trace, false)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w, trace, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, trace, d.name, m, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w, d.name, m.Value)
				}
			}
			if trace {
				for _, name := range usedLayers[w] {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: per-layer metric %s = %g, want > 0", w, name, res.Metrics[name].Value)
					}
				}
			}
		}
	}
}

func TestGateRejectsWrongAnswer(t *testing.T) {
	for _, w := range workloadNames() {
		res := quickRun(t, w, false, true)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a wrong expected answer passed the gate: correct=%v failed=%d of %d",
				w, res.Correct, res.Failed, res.Attempted)
		}
	}
}

func TestSameRows(t *testing.T) {
	rows := []storage.Row{
		{storage.I64(1), storage.F64(0.5), storage.Str("a")},
		{storage.I64(2), storage.F64(1e6), storage.Str("b")},
	}
	shuffled := []storage.Row{
		{storage.I64(2), storage.F64(1e6 * (1 + 1e-12)), storage.Str("b")},
		{storage.I64(1), storage.F64(0.5), storage.Str("a")},
	}
	if err := sameRows(shuffled, rows); err != nil {
		t.Errorf("same rows in another order: %v", err)
	}
	if err := sameRows(perturbRows(rows), rows); err == nil {
		t.Error("perturbed rows matched")
	}
	changed := []storage.Row{rows[0], {storage.I64(2), storage.F64(1.01e6), storage.Str("b")}}
	if err := sameRows(changed, rows); err == nil {
		t.Error("a changed value matched")
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if got := percentile(xs, 0.5); got != 500 {
		t.Errorf("p50 = %g, want 500", got)
	}
	if got := percentile(xs, 0.99); got != 990 {
		t.Errorf("p99 = %g, want 990", got)
	}
	if xs[0] != 1000 {
		t.Error("percentile sorted its input")
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the workloads the command
// runs (it also runs htap-mixed, which BENCHMARK.json leaves out) and
// the metrics it reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) == 0 {
		t.Error("BENCHMARK.json lists no workloads")
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s: the command runs only %v", w.Name, workloadNames())
		}
	}
	for _, c := range []struct {
		kind string
		spec []entry
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command reports %d", c.kind, len(c.spec), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.spec[i].Name != d.name || c.spec[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s, the command %s %s", c.kind, i, c.spec[i].Name, c.spec[i].Unit, d.name, d.unit)
			}
		}
	}
}
