// Package query is the engine's general query layer: composable logical
// plans, a cost-driven optimizer choosing between the paper's access
// paths per plan node, and the lowering onto internal/exec operators.
//
// # Logical plans
//
// A *Plan is built fluently and is pure description — table and column
// names, predicate trees, join keys — with no engine state attached:
//
//	p := query.From("lineitem", "l_orderkey", "l_extendedprice").
//		Where(query.Lt(query.Col("l_orderkey"), query.Int(1000))).
//		Join(query.From("orders", "o_orderkey", "o_custkey"),
//			"l_orderkey", "o_orderkey").
//		Aggregate([]string{"o_custkey"},
//			query.Sum(query.Col("l_extendedprice"), "revenue"))
//
// The same Plan may be compiled any number of times, against different
// snapshots and in different modes; builder methods never mutate the
// receiver.
//
// # Lifecycle: capture, execute, release
//
// Run captures an atomic engine.DatabaseSnapshot of the plan's tables,
// compiles against it, and transfers snapshot ownership to the returned
// operator tree (exec.OnClose): the snapshot is released when the root
// reaches end of stream or is Closed. The contract is the engine-wide
// Close discipline — Close the root on every path, exactly the property
// pilint's snapclose analyzer enforces:
//
//	c, err := query.Run(db, p, query.Options{})
//	if err != nil { ... }
//	defer c.Root.Close()
//	for { b, err := c.Root.Next(); ... }
//
// CompileSnapshot instead compiles against a caller-held snapshot and
// takes no ownership: the caller must keep the snapshot open until the
// operator is drained, and close it afterwards. Use it to run several
// queries against one consistent capture (as the TPC-H harness does).
// Never close a snapshot while an operator compiled against it may
// still be read — the frozen views' validity ends at Close.
//
// # The optimizer
//
// Compilation lowers most nodes mechanically (Filter, HashJoin,
// HashAggregate, Sort, ...). Three node shapes are choosable, and there
// the compiler consults the cost model (internal/plan) with live
// statistics from the captured snapshot:
//
//   - fact ⋈ dim joins whose probe side bottoms out in a scan of a
//     NSC-indexed join key: reference hash join vs the paper's split
//     patch plan (plan.Join) vs a precomputed joinindex offered via
//     Options.JoinIndexes;
//   - ORDER BY over a one-column scan, which takes the patch plan only
//     when the column's NSC index is sorted in the requested direction;
//   - DISTINCT over a one-column scan, which takes the patch plan only
//     for a NUC index.
//
// The last two go through plan.LowerUnary, the lowering the engine's
// Distinct/SortQuery entry points use too.
//
// Inputs are partition row counts, live patch counts (exception rates),
// and dimension-side cardinality estimates. Estimates start from
// textbook selectivities; when Options.Chooser is set and Mode is Auto,
// dimension subtrees are metered at execution time (exec.NewMeter) and
// the actual row counts feed plan.Chooser.Observe, so later
// compilations of structurally identical subtrees (matched by
// fingerprint) run with corrected estimates — cardinality feedback in
// the style of adaptive reoptimization. Decisions are recorded on the
// Compiled result for tests and EXPLAIN-style inspection.
//
// Predicates pushed against a scan additionally enable minmax block
// pruning (storage.MinMax): the ranges a predicate implies for an int64
// scan column skip non-intersecting storage blocks, while the predicate
// itself stays in the tree and re-filters.
package query
