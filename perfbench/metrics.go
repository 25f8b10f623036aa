package main

// metricDef names one reported metric and its unit. The lists below are
// the ones BENCHMARK.json declares; the tests hold the two in step.
type metricDef struct{ name, unit string }

// endToEnd is what an untraced run reports. A round is one pass of the
// client's fixed mix: Q3, Q7 and Q12 on tpch-read and htap-mixed, one
// write cycle on update-stream. Times are scaled to the reference host
// (calib.go); the report prints the raw times too.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"round_p50_ms", "ms"},
	{"rounds_per_s", "1/s"},
	{"heap_mb", "MB"},
}

// reported are end-to-end figures an untraced run prints in its report
// but not in its result: other tenants of the host move them between
// runs by more than a regression gate can allow. The tail takes the
// slow spells of the host, and checkpoints and recoveries wait on its
// shared disk as well.
var reported = []metricDef{
	{"round_p90_ms", "ms"},
	{"checkpoint_ms", "ms"},
	{"recover_s", "s"},
}

// perLayer is what a traced run reports. A layer the workload does not
// use reads 0.
var perLayer = []metricDef{
	{"exec.drain.q3_ms", "ms"},
	{"exec.drain.q7_ms", "ms"},
	{"exec.drain.q12_ms", "ms"},
	{"exec.alloc_mb_per_query", "MB"},
	{"go.gc_per_query", "count"},
	{"query.compile.p50_us", "us"},
	{"query.share.snapshot", "ratio"},
	{"query.share.compile", "ratio"},
	{"query.share.drain", "ratio"},
	{"query.pi_decision_share", "ratio"},
	{"storage.scan.visited_per_row_out", "ratio"},
	{"engine.snapshot.p50_us", "us"},
	{"pdt.pending_rows_per_query", "count"},
	{"engine.insert_rows.p50_us", "us"},
	{"engine.delete.p50_us", "us"},
	{"engine.modify.p50_us", "us"},
	{"engine.modify_nuc.p50_us", "us"},
	{"engine.modify_nsc.p50_us", "us"},
	{"engine.insert.fast_ratio", "ratio"},
	{"engine.collision_joins", "count"},
	{"tpch.rf1.p50_ms", "ms"},
	{"tpch.rf2.p50_ms", "ms"},
	{"engine.checkpoint.p50_ms", "ms"},
	{"engine.checkpoint.bytes_per_user_byte", "ratio"},
	{"wal.bytes_per_op", "B/op"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"engine.recover.records_applied", "count"},
	{"engine.recover.records_per_s", "1/s"},
	{"engine.recover.p50_ms", "ms"},
	{"core.index_bytes.nuc", "B"},
	{"core.index_bytes.nsc", "B"},
	{"core.exception_rate.nuc", "ratio"},
	{"core.exception_rate.nsc", "ratio"},
	{"engine.maintainer.sweep.p50_ms", "ms"},
	{"engine.maintainer.actions", "count"},
	{"engine.maintainer.refusals", "count"},
	{"op.samples", "count"},
	{"trace.spans", "count"},
	{"trace.untraced.op_p50_ms", "ms"},
	{"trace.traced.op_p50_ms", "ms"},
	{"trace.overhead.op_p50", "ratio"},
	{"trace.untraced.ops_per_s", "1/s"},
	{"trace.traced.ops_per_s", "1/s"},
	{"trace.overhead.ops_per_s", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the command prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndValues derives the untraced metrics from the untraced bin,
// raw or scaled to the reference host.
func (b *bench) endToEndValues(scaled bool) map[string]float64 {
	sp := func(group string) float64 {
		if !scaled {
			return 1
		}
		return b.speed(group)
	}
	u := &b.bins[0]
	var roundMS float64
	for _, r := range u.rounds {
		roundMS += r
	}
	op := sp("op")
	return map[string]float64{
		"setup_s":       median(b.setupS) * sp("setup"),
		"round_p50_ms":  percentile(u.rounds, 0.5) * op,
		"round_p90_ms":  percentile(u.rounds, 0.9) * op,
		"rounds_per_s":  ratio(1000*float64(len(u.rounds)), roundMS) / op,
		"checkpoint_ms": median(b.checkpointMS) * sp("checkpoint"),
		"recover_s":     median(b.recoverS) * sp("recover"),
		"heap_mb":       b.heapMB,
	}
}

// overhead fills the per-layer figures that compare the traced blocks
// with the untraced ones of the same run.
func (b *bench) overhead() {
	u, t := &b.bins[0], &b.bins[1]
	b.layer["op.samples"] = float64(len(t.lat))
	b.layer["trace.spans"] = float64(b.tr.count())
	b.layer["trace.untraced.op_p50_ms"] = u.p50()
	b.layer["trace.traced.op_p50_ms"] = t.p50()
	b.layer["trace.overhead.op_p50"] = ratio(t.p50(), u.p50())
	b.layer["trace.untraced.ops_per_s"] = u.opsPerS()
	b.layer["trace.traced.ops_per_s"] = t.opsPerS()
	b.layer["trace.overhead.ops_per_s"] = ratio(u.opsPerS(), t.opsPerS())
}

func (b *bench) result() result {
	defs, values := endToEnd, b.endToEndValues(true)
	if b.cfg.trace {
		b.overhead()
		b.layer["engine.recover.records_per_s"] = ratio(b.layer["engine.recover.records_applied"], median(b.recoverS))
		b.layer["engine.recover.p50_ms"] = median(b.tr.durations(named("engine.recover")))
		defs, values = perLayer, b.layer
	}
	r := result{
		Attempted: b.attempted.Load(),
		Failed:    b.failed.Load(),
		Metrics:   make(map[string]metric, len(defs)),
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return r
}
