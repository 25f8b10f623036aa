// Package patchindex is a from-scratch Go implementation of the
// PatchIndex system from "Updatable Materialization of Approximate
// Constraints" (Kläbe, Sattler, Baumann — ICDE 2021, arXiv:2102.06557):
// updatable materialization of approximate constraints ("nearly unique
// columns" and "nearly sorted columns") on top of an update-conscious
// sharded bitmap, integrated into a vectorized columnar query engine.
//
// This package is the public facade. The building blocks live in
// internal packages:
//
//   - internal/bitmap: ordinary + sharded bitmap (Section 4)
//   - internal/core: the PatchIndex itself (Sections 3, 5)
//   - internal/exec, internal/plan: vectorized executor and the
//     PatchIndex query optimizations (Section 3.3)
//   - internal/storage, internal/pdt: columnar storage, minmax
//     summaries, positional delta updates
//   - internal/engine: the database tying everything together, with
//     snapshot-isolated queries running concurrently with update
//     queries (Section 5.4). Updates lock at partition granularity:
//     Database.InsertRows / InsertRowsPartition append through the
//     partition-parallel insert path (sharded NUC collision state;
//     cross-partition candidate collisions fall back to an
//     exclusive-lock exact check against its counts), NUC-column
//     Modify classifies from the same counts, and Database.Insert
//     keeps the paper's exclusive-lock insert handling (the Fig. 5
//     collision join) verbatim
//   - internal/matview, internal/sortkey, internal/joinindex: the
//     comparator materialization approaches of the evaluation
//   - internal/datagen, internal/tpch: the paper's data generator and
//     the TPC-H subset of Section 6.3
//
// Quickstart:
//
//	db := patchindex.NewDatabase()
//	t, _ := db.CreateTable("events", patchindex.Schema{
//		{Name: "id", Kind: patchindex.KindInt64},
//		{Name: "ts", Kind: patchindex.KindInt64},
//	}, 4)
//	t.Load(rows)
//	t.CreatePatchIndex("ts", patchindex.NearlySorted, patchindex.IndexOptions{})
//	op, _ := db.SortQuery("events", "ts", false, patchindex.QueryOptions{})
//	rows, _ := patchindex.Collect(op)
package patchindex

import (
	"patchindex/internal/core"
	"patchindex/internal/engine"
	"patchindex/internal/exec"
	"patchindex/internal/storage"
	"patchindex/internal/wal"
)

// Re-exported core types. See the internal packages for full
// documentation.
type (
	// Database is a collection of partitioned tables with PatchIndex
	// support.
	Database = engine.Database
	// Table is one partitioned table.
	Table = engine.Table
	// TableSnapshot is an immutable point-in-time view of one table;
	// queries built on it run lock-free while updates proceed.
	TableSnapshot = engine.TableSnapshot
	// QueryOptions tune the query entry points (plan mode, zero-branch
	// pruning, partition parallelism).
	QueryOptions = engine.QueryOptions
	// PlanMode selects reference / PatchIndex / cost-based planning for
	// Distinct and SortQuery. It is the same mode type the general query
	// layer uses. The PatchIndex plan needs a NUC index for Distinct and
	// a NSC index sorted in the requested direction for SortQuery:
	// PlanAuto falls back to the reference plan without one, and
	// PlanPatchIndex returns an error.
	PlanMode = engine.PlanMode

	// Schema describes a table's columns.
	Schema = storage.Schema
	// ColumnDef is one column of a Schema.
	ColumnDef = storage.ColumnDef
	// Row is one tuple.
	Row = storage.Row
	// Value is a dynamically typed cell.
	Value = storage.Value
	// Kind is a column type.
	Kind = storage.Kind

	// Constraint identifies an approximate constraint (NUC or NSC).
	Constraint = core.Constraint
	// Design selects the patch representation (bitmap or identifier).
	Design = core.Design
	// IndexOptions configure a PatchIndex.
	IndexOptions = core.Options
	// Index is a PatchIndex over one column of one partition.
	Index = core.Index

	// Operator is a pull-based query operator.
	Operator = exec.Operator
	// Batch is a vector of tuples flowing between operators.
	Batch = exec.Batch

	// SyncPolicy selects when WAL appends reach stable storage; see
	// Database.EnableWAL and the engine package's Durability docs.
	SyncPolicy = wal.SyncPolicy
	// RecoverStats reports what Database.Recover restored and replayed.
	RecoverStats = engine.RecoverStats
)

// Re-exported constants.
const (
	KindInt64   = storage.KindInt64
	KindFloat64 = storage.KindFloat64
	KindString  = storage.KindString

	NearlyUnique = core.NearlyUnique
	NearlySorted = core.NearlySorted

	DesignBitmap     = core.DesignBitmap
	DesignIdentifier = core.DesignIdentifier

	PlanAuto       = engine.PlanAuto
	PlanReference  = engine.PlanReference
	PlanPatchIndex = engine.PlanPatchIndex

	// SyncNone: WAL appends are plain writes — durable against process
	// death (kill -9), not power loss. SyncEach fsyncs every append.
	SyncNone = wal.SyncNone
	SyncEach = wal.SyncEach
)

// NewDatabase returns an empty database.
func NewDatabase() *Database { return engine.NewDatabase() }

// I64 boxes an int64 value.
func I64(v int64) Value { return storage.I64(v) }

// F64 boxes a float64 value.
func F64(v float64) Value { return storage.F64(v) }

// Str boxes a string value.
func Str(v string) Value { return storage.Str(v) }

// Collect drains an operator into boxed rows.
func Collect(op Operator) ([]Row, error) { return exec.Collect(op) }

// CollectInt64 drains a single-column BIGINT operator into a slice.
func CollectInt64(op Operator) ([]int64, error) { return engine.CollectInt64(op) }

// Count drains an operator and returns its tuple count.
func Count(op Operator) (int, error) { return exec.Count(op) }
