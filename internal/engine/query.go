package engine

import (
	"fmt"

	"patchindex/internal/exec"
	"patchindex/internal/plan"
	"patchindex/internal/storage"
)

// PlanMode selects how a query entry point plans; it is plan.Mode, the
// one mode type shared with internal/query.
type PlanMode = plan.Mode

const (
	// PlanAuto applies the PatchIndex rewrite when the cost model favors
	// it (Section 3.5) and a fitting index exists.
	PlanAuto = plan.ModeAuto
	// PlanReference forces the unoptimized plan.
	PlanReference = plan.ModeReference
	// PlanPatchIndex forces the PatchIndex plan (requires a NUC index
	// for Distinct, a NSC index in the requested direction for
	// SortQuery).
	PlanPatchIndex = plan.ModePatchIndex
)

// QueryOptions tune the query entry points.
type QueryOptions struct {
	Mode PlanMode
	// ZeroBranchPruning drops provably empty patch subtrees (Sec. 6.3).
	ZeroBranchPruning bool
	// Parallel runs per-partition subtrees concurrently.
	Parallel bool
}

// Distinct returns an operator computing DISTINCT(column). The operator
// runs against an ephemeral snapshot captured here: the capture locks
// are released before the call returns, and concurrent updates do not
// affect the result. The snapshot's generation refcounts are released
// automatically when the operator is drained or closed; until then the
// snapshot gates checkpoint copy-on-write and physical reorders like an
// explicitly held one.
func (db *Database) Distinct(table, column string, opts QueryOptions) (exec.Operator, error) {
	t, err := db.LookupTable(table)
	if err != nil {
		return nil, err
	}
	// Validate before capturing: a rejected query must not retain
	// generation refs nobody would ever release.
	if t.Schema().ColumnIndex(column) < 0 {
		return nil, fmt.Errorf("engine: unknown column %q", column)
	}
	s := t.snapshotColumn(column)
	op, err := s.Distinct(column, opts)
	if err != nil {
		s.Close()
		return nil, err
	}
	return exec.OnClose(op, s.Close), nil
}

// snapshotColumn captures an ephemeral query snapshot carrying only
// column's PatchIndex, registered in the snapshot registry; the query
// entry points release it at query end via exec.OnClose.
func (t *Table) snapshotColumn(column string) *TableSnapshot {
	t.lockAllPartitions()
	defer t.unlockAllPartitions()
	s := t.snapshotColumnLocked(column)
	s.ref = t.store.Retain()
	return s
}

// Distinct returns an operator computing DISTINCT(column) over the
// snapshot.
func (s *TableSnapshot) Distinct(column string, opts QueryOptions) (exec.Operator, error) {
	return s.lowerUnary(column, plan.Unary{}, opts)
}

// SortQuery returns an operator producing column fully sorted. Like
// Distinct, it executes against an ephemeral snapshot captured at call
// time (validated before capturing, released at query end).
func (db *Database) SortQuery(table, column string, desc bool, opts QueryOptions) (exec.Operator, error) {
	t, err := db.LookupTable(table)
	if err != nil {
		return nil, err
	}
	if t.Schema().ColumnIndex(column) < 0 {
		return nil, fmt.Errorf("engine: unknown column %q", column)
	}
	s := t.snapshotColumn(column)
	op, err := s.SortQuery(column, desc, opts)
	if err != nil {
		s.Close()
		return nil, err
	}
	return exec.OnClose(op, s.Close), nil
}

// SortQuery returns an operator producing column fully sorted over the
// snapshot.
func (s *TableSnapshot) SortQuery(column string, desc bool, opts QueryOptions) (exec.Operator, error) {
	return s.lowerUnary(column, plan.Unary{Sort: true, Desc: desc}, opts)
}

// lowerUnary plans u, a DISTINCT or ORDER BY over column, through
// plan.LowerUnary.
func (s *TableSnapshot) lowerUnary(column string, u plan.Unary, opts QueryOptions) (exec.Operator, error) {
	if u.Col = s.schema.ColumnIndex(column); u.Col < 0 {
		return nil, fmt.Errorf("engine: unknown column %q", column)
	}
	popts := plan.Options{ZeroBranchPruning: opts.ZeroBranchPruning, Parallel: opts.Parallel}
	op, _, err := plan.LowerUnary(s.Inputs(column), u, opts.Mode, popts)
	if err != nil {
		return nil, fmt.Errorf("engine: %s.%s: %w", s.name, column, err)
	}
	return op, nil
}

// ScanAll returns an operator scanning the given columns of every
// partition (unioned), against an ephemeral snapshot captured at call
// time and released when the operator is drained or closed. Scans never
// consult PatchIndexes, so only the storage views are captured. Unknown
// columns return an error — before the capture, so the rejected call
// retains no generation refs nobody would ever release.
func (t *Table) ScanAll(columns ...string) (exec.Operator, error) {
	cols, err := columnPositions(t.Schema(), columns)
	if err != nil {
		return nil, err
	}
	t.lockAllPartitions()
	s := t.snapshotViewsLocked()
	s.ref = t.store.Retain()
	t.unlockAllPartitions()
	return exec.OnClose(s.scan(cols), s.Close), nil
}

// columnPositions resolves column names against schema.
func columnPositions(schema storage.Schema, columns []string) ([]int, error) {
	cols := make([]int, len(columns))
	for i, c := range columns {
		if cols[i] = schema.ColumnIndex(c); cols[i] < 0 {
			return nil, fmt.Errorf("engine: unknown column %q", c)
		}
	}
	return cols, nil
}

// ScanPartition returns an operator scanning the given columns of just
// partition p, against an ephemeral partition-scoped snapshot: only
// partition p's lock is taken for the capture, and only p's current
// generation is retained in the snapshot registry. While the scan
// drains, checkpoints of partition p clone-and-swap and a
// partition-granular reorder of p refuses — but sibling partitions owe
// the scan nothing: their checkpoints mutate in place and their
// rebuilds (ExclusivePartition) proceed. The ref is released when the
// operator is drained or closed, like every query entry point. Unknown
// columns and out-of-range partitions return an error — before the
// capture, so the aborted call retains no generation refs.
func (t *Table) ScanPartition(p int, columns ...string) (exec.Operator, error) {
	cols, err := columnPositions(t.Schema(), columns)
	if err != nil {
		return nil, err
	}
	if p < 0 || p >= len(t.pmu) {
		return nil, fmt.Errorf("engine: table %q has no partition %d", t.name, p)
	}
	t.lockPartition(p)
	view := t.snapshotViewLocked(p)
	ref := t.store.RetainPartitions(p)
	t.unlockPartition(p)
	return exec.OnClose(exec.NewScan(view, cols), ref.Release), nil
}

// CollectInt64 drains a single-column BIGINT operator into a slice.
func CollectInt64(op exec.Operator) ([]int64, error) {
	batches, err := exec.Drain(op)
	if err != nil {
		return nil, err
	}
	var out []int64
	for _, b := range batches {
		out = append(out, b.Cols[0].I64...)
	}
	return out, nil
}

// MustKind returns the kind of the named column.
func (t *Table) MustKind(column string) storage.Kind {
	return t.Schema()[t.Schema().MustColumnIndex(column)].Kind
}
