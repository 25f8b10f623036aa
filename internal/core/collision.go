package core

import (
	"sync"
	"sync/atomic"

	"patchindex/internal/bloom"
)

// Sharded NUC collision state. The paper makes uniqueness a GLOBAL
// property with per-partition exceptions (Section 5.1), which forces the
// insert-handling collision join to probe every partition — the last
// per-table serialization point on the update path. NUCState shards
// that collision knowledge by partition so an insert into partition p
// can usually decide "does this value collide?" from p-local state plus
// two read-only global digests:
//
//   - localInt/localStr[p]: value → occurrence count within partition p.
//     Owned by whoever owns partition p under the engine's locking
//     protocol (partition lock, or the exclusive structure lock). A
//     local hit means the collision is entirely p-local: the existing
//     occurrences and the new tuple all become patches of partition p's
//     index.
//   - sealed: an immutable snapshot of the global exception set — the
//     values found duplicated, for which the engine maintains the
//     invariant that every LIVE occurrence is a patch: discovery and
//     collision handling patch all occurrences at sealing time, patch
//     marks are never removed from surviving rows, and the engine's
//     exclusive insert/modify paths force-patch any fresh occurrence
//     of a sealed value (deletes may have eroded the value back to
//     uniqueness, so a collision check alone would leave it
//     unpatched). Colliding with a sealed value therefore needs no
//     cross-partition write: only the NEW tuple becomes a patch,
//     locally. The snapshot is a base set plus a small overlay of
//     recent seals, swapped copy-on-write (a seal copies the overlay,
//     not the base) and read lock-free through an atomic pointer.
//     Every value occurring twice or more is sealed; a sealed value
//     occurs less often only because deletes or modifies removed
//     occurrences after it was sealed. Once
//     the set has doubled since its last rebuild, PruneSealed drops
//     the values with no live occurrence — only from a caller that
//     owns every partition, so pruning never races a lock-free sealer
//     or a batch classifying against an older snapshot.
//   - blooms[p]: an add-only Bloom filter over partition p's values.
//     Probing the filters of the OTHER partitions answers "may this
//     value exist elsewhere as a unique occurrence?" — a hit is a
//     cross-partition candidate collision, on which the caller falls
//     back to the exclusive-lock collision join. False positives cost a
//     redundant fallback; false negatives cannot occur (the filter only
//     ever grows), so no violation is missed.
//
// # The in-flight pre-publication ledger
//
// A filter is not purely add-only: when its add count outgrows its
// sizing, it is REBUILT from the live value counts (RebuildBloomPartition
// / RebuildOverfullBlooms). That rebuild races the insert fast path's
// optimistic pre-publication: a batch adds its values to the target
// partition's filter BEFORE committing them to the count maps, so a
// rebuild sourced from the counts alone would drop the pre-published
// bits — and a batch racing the pre-publisher could miss the collision
// the ordering protocol promises it will see. Every pre-published value
// therefore also enters the partition's in-flight ledger (a small
// mutex-guarded refcount map) and leaves it only after its count-map
// commit; a rebuild re-applies the ledgered values into the fresh
// filter under the ledger mutex before atomically swapping the filter
// pointer in. The ordering makes the window airtight: PrePublish
// ledgers first (under the mutex), then loads the filter pointer —
// so a pre-publisher either lands its bit in the filter a rebuild
// keeps, or its ledger entry is visible to the rebuild's re-apply
// scan, or it loads the already-swapped fresh filter.
//
// Synchronization is the caller's job and mirrors the engine's insert
// protocol: local maps follow partition ownership; seals happen
// lock-free from anywhere, PruneSealed only where the caller owns
// every partition; filter probes, pre-publication, and Unpublish are
// safe from any context; plain AddBloom and the filter
// rebuilds require owning the target partition (rebuilds additionally
// rely on partition ownership to serialize against each other).
// Sealed() alone is safe from anywhere.
type NUCState struct {
	localInt []map[int64]uint32
	localStr []map[string]uint32
	isString bool

	blooms   []atomic.Pointer[partitionBloom]
	inflight []inflightLedger

	sealed atomic.Pointer[NUCExceptions]
}

// partitionBloom bundles one partition's filter with the
// expected-element sizing it was built for, so the pair swaps
// atomically on rebuild.
type partitionBloom struct {
	f   *bloom.Filter
	cap int
}

// inflightLedger tracks one partition's pre-published-but-uncommitted
// filter keys: bloom key → number of in-flight batches carrying it. The
// mutex is leaf-level: nothing is acquired under it.
type inflightLedger struct {
	mu   sync.Mutex // lock-rank: none leaf lock, nothing is acquired under it
	keys map[int64]int
}

// NUCExceptions is one immutable snapshot of the sealed global exception
// set. It is never mutated after publication; NUCState swaps in a fresh
// snapshot to change it. A snapshot is a large base set plus a small
// overlay of the values sealed since the base was last rebuilt, so a
// seal copies only the overlay (see sealedSet).
type NUCExceptions struct {
	ints sealedSet[int64]
	strs sealedSet[string]
	// pruneAt is the size at which PruneSealed next rebuilds the set
	// from the live values: twice the size the last rebuild left, and
	// never below pruneFloor.
	pruneAt int
}

// pruneFloor is the smallest sealed set PruneSealed rebuilds; below it
// a rebuild would save less than it costs.
const pruneFloor = 256

// overlayFloor is the overlay size a seal may always reach before it
// folds the overlay into the base; past it the overlay may grow to
// √|base|.
const overlayFloor = 16

// sealedSet is one column kind's sealed values: an immutable base and
// an immutable overlay, disjoint. A seal copies the overlay and adds
// the new values; once the overlay outgrows max(overlayFloor, √|base|)
// the seal folds it into a fresh base instead. Folding every √|base|
// values makes a seal cost O(√|base|) amortized, not O(|base|).
type sealedSet[T comparable] struct {
	base, overlay map[T]struct{}
}

func (s sealedSet[T]) contains(v T) bool {
	if _, ok := s.overlay[v]; ok {
		return true
	}
	_, ok := s.base[v]
	return ok
}

func (s sealedSet[T]) len() int { return len(s.base) + len(s.overlay) }

// with returns s plus those of vals it lacks, and false (with s itself)
// when it lacks none.
func (s sealedSet[T]) with(vals []T) (sealedSet[T], bool) {
	var overlay map[T]struct{}
	for _, v := range vals {
		if s.contains(v) {
			continue
		}
		if overlay == nil {
			overlay = make(map[T]struct{}, len(s.overlay)+len(vals))
			for k := range s.overlay {
				overlay[k] = struct{}{}
			}
		}
		overlay[v] = struct{}{}
	}
	if overlay == nil {
		return s, false
	}
	if n := len(overlay); n <= overlayFloor || n*n <= len(s.base) {
		return sealedSet[T]{base: s.base, overlay: overlay}, true
	}
	base := make(map[T]struct{}, len(s.base)+len(overlay))
	for k := range s.base {
		base[k] = struct{}{}
	}
	for k := range overlay {
		base[k] = struct{}{}
	}
	return sealedSet[T]{base: base}, true
}

// live returns the values of s for which keep holds, folded into one
// base.
func (s sealedSet[T]) live(keep func(T) bool) sealedSet[T] {
	base := make(map[T]struct{})
	for _, m := range []map[T]struct{}{s.base, s.overlay} {
		for k := range m {
			if keep(k) {
				base[k] = struct{}{}
			}
		}
	}
	return sealedSet[T]{base: base}
}

// newExceptions is the snapshot a freshly built state starts from.
func newExceptions(ints map[int64]struct{}, strs map[string]struct{}) *NUCExceptions {
	e := &NUCExceptions{ints: sealedSet[int64]{base: ints}, strs: sealedSet[string]{base: strs}}
	e.pruneAt = max(pruneFloor, 2*e.Len())
	return e
}

// ContainsInt64 reports whether v is a sealed duplicated value.
func (e *NUCExceptions) ContainsInt64(v int64) bool { return e.ints.contains(v) }

// ContainsString reports whether v is a sealed duplicated value.
func (e *NUCExceptions) ContainsString(v string) bool { return e.strs.contains(v) }

// Len returns the number of sealed duplicated values.
func (e *NUCExceptions) Len() int { return e.ints.len() + e.strs.len() }

// hashString folds a string value into the int64 key space of the Bloom
// filters (inline FNV-1a — the hasher object and []byte conversion of
// the stdlib version would allocate twice per probe on the lock-free
// hot path). Collisions only produce false positives (redundant
// fallbacks), never missed violations.
func hashString(v string) int64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(v); i++ {
		h ^= uint64(v[i])
		h *= 1099511628211 // FNV-1a prime
	}
	return int64(h)
}

// bloomFor sizes a fresh partition filter: four times the live value
// count, floored so small partitions leave growth headroom. The target
// false-positive rate is far tighter than the user-facing join-skip
// filters' 1% because a batch probes every foreign partition for every
// inserted value — at 1% a 64-row batch would fall back almost always,
// while at ~24 bits/value (still a fraction of the count maps' memory)
// the per-batch fallback probability stays in the low percents even at
// full load and becomes negligible right after a rebuild. The 4x
// headroom halves the number of saturation→rebuild cycles an insert
// stream goes through relative to 2x.
func bloomFor(n int) *partitionBloom {
	capn := 4 * n
	if capn < 1024 {
		capn = 1024
	}
	return &partitionBloom{f: bloom.New(capn, 1e-5), cap: capn}
}

// NewNUCStateInt64 builds the collision state of an int64 column from
// its per-partition value counts (as produced by CountNUCValuesInt64 —
// index discovery and state construction share the counting pass).
func NewNUCStateInt64(counts []map[int64]uint32) *NUCState {
	st := &NUCState{
		localInt: make([]map[int64]uint32, len(counts)),
		blooms:   make([]atomic.Pointer[partitionBloom], len(counts)),
		inflight: make([]inflightLedger, len(counts)),
	}
	for p, c := range counts {
		cp := make(map[int64]uint32, len(c))
		var n int
		for v, k := range c {
			cp[v] = k
			n += int(k)
		}
		st.localInt[p] = cp
		pb := bloomFor(n)
		for v := range cp {
			pb.f.Add(v)
		}
		st.blooms[p].Store(pb)
		st.inflight[p].keys = make(map[int64]int)
	}
	st.sealed.Store(newExceptions(MergeNUCDuplicatesInt64(counts), nil))
	return st
}

// NewNUCStateString is NewNUCStateInt64 for string columns.
func NewNUCStateString(counts []map[string]uint32) *NUCState {
	st := &NUCState{
		localStr: make([]map[string]uint32, len(counts)),
		isString: true,
		blooms:   make([]atomic.Pointer[partitionBloom], len(counts)),
		inflight: make([]inflightLedger, len(counts)),
	}
	for p, c := range counts {
		cp := make(map[string]uint32, len(c))
		var n int
		for v, k := range c {
			cp[v] = k
			n += int(k)
		}
		st.localStr[p] = cp
		pb := bloomFor(n)
		for v := range cp {
			pb.f.Add(hashString(v))
		}
		st.blooms[p].Store(pb)
		st.inflight[p].keys = make(map[int64]int)
	}
	st.sealed.Store(newExceptions(nil, MergeNUCDuplicatesString(counts)))
	return st
}

// NumPartitions returns the partition count the state is sharded over.
func (st *NUCState) NumPartitions() int { return len(st.blooms) }

// IsString reports whether the state tracks a string column.
func (st *NUCState) IsString() bool { return st.isString }

// Sealed returns the current immutable exception-set snapshot. Safe to
// call from any context; the snapshot stays valid (and conservatively
// correct) forever.
func (st *NUCState) Sealed() *NUCExceptions { return st.sealed.Load() }

// LocalCountInt64 returns partition p's occurrence count of v. The
// caller owns partition p.
func (st *NUCState) LocalCountInt64(p int, v int64) uint32 { return st.localInt[p][v] }

// LocalCountString is LocalCountInt64 for string columns.
func (st *NUCState) LocalCountString(p int, v string) uint32 { return st.localStr[p][v] }

// AddLocalInt64 records one inserted occurrence of v in partition p. The
// caller owns partition p.
func (st *NUCState) AddLocalInt64(p int, v int64) { st.localInt[p][v]++ }

// AddLocalString is AddLocalInt64 for string columns.
func (st *NUCState) AddLocalString(p int, v string) { st.localStr[p][v]++ }

// RemoveLocalInt64 records one deleted (or modified-away) occurrence of
// v in partition p, dropping the entry at zero so bloom rebuilds see
// only live values. The caller owns partition p.
func (st *NUCState) RemoveLocalInt64(p int, v int64) {
	if n := st.localInt[p][v]; n <= 1 {
		delete(st.localInt[p], v)
	} else {
		st.localInt[p][v] = n - 1
	}
}

// RemoveLocalString is RemoveLocalInt64 for string columns.
func (st *NUCState) RemoveLocalString(p int, v string) {
	if n := st.localStr[p][v]; n <= 1 {
		delete(st.localStr[p], v)
	} else {
		st.localStr[p][v] = n - 1
	}
}

// GlobalCountInt64 sums v's occurrence count across all partitions. The
// caller owns every partition (exclusive-lock contexts).
func (st *NUCState) GlobalCountInt64(v int64) uint64 {
	var n uint64
	for p := range st.localInt {
		n += uint64(st.localInt[p][v])
	}
	return n
}

// GlobalCountString is GlobalCountInt64 for string columns.
func (st *NUCState) GlobalCountString(v string) uint64 {
	var n uint64
	for p := range st.localStr {
		n += uint64(st.localStr[p][v])
	}
	return n
}

// PartitionMayContainInt64 probes partition q's Bloom filter for v with
// a lock-free atomic read. A false answer is definitive for values
// whose adds happened-before the probe; for adds racing the probe, the
// insert protocol's pre-publication ordering (ledger and add your own
// values before probing for foreign ones — sync/atomic's sequential
// consistency forbids two racing batches from both missing each other)
// supplies the guarantee.
func (st *NUCState) PartitionMayContainInt64(q int, v int64) bool {
	return st.blooms[q].Load().f.MayContainConcurrent(v)
}

// PartitionMayContainString is PartitionMayContainInt64 for string
// columns.
func (st *NUCState) PartitionMayContainString(q int, v string) bool {
	return st.blooms[q].Load().f.MayContainConcurrent(hashString(v))
}

// ForeignMayContainInt64 probes the Bloom filters of every partition
// except p for v: true means v may exist in another partition — a
// cross-partition candidate collision.
func (st *NUCState) ForeignMayContainInt64(p int, v int64) bool {
	for q := range st.blooms {
		if q != p && st.blooms[q].Load().f.MayContainConcurrent(v) {
			return true
		}
	}
	return false
}

// ForeignMayContainString is ForeignMayContainInt64 for string columns.
func (st *NUCState) ForeignMayContainString(p int, v string) bool {
	h := hashString(v)
	for q := range st.blooms {
		if q != p && st.blooms[q].Load().f.MayContainConcurrent(h) {
			return true
		}
	}
	return false
}

// AddBloomInt64 registers an inserted occurrence of v in partition p's
// filter, with atomic word updates — safe concurrently with probes. The
// caller owns partition p (which excludes a concurrent rebuild of p's
// filter); values added before their count-map commit must use
// PrePublish instead, or a rebuild may drop them.
func (st *NUCState) AddBloomInt64(p int, v int64) { st.blooms[p].Load().f.AddConcurrent(v) }

// AddBloomString is AddBloomInt64 for string columns.
func (st *NUCState) AddBloomString(p int, v string) {
	st.blooms[p].Load().f.AddConcurrent(hashString(v))
}

// prePublish ledgers one in-flight occurrence of key in partition p and
// sets its filter bits. The ledger entry precedes the filter load, so a
// concurrent rebuild either keeps the bits (re-applying the ledger) or
// this publisher lands them in the rebuilt filter itself.
func (st *NUCState) prePublish(p int, key int64) {
	led := &st.inflight[p]
	led.mu.Lock()
	led.keys[key]++
	led.mu.Unlock()
	st.blooms[p].Load().f.AddConcurrent(key)
}

// unpublish retires one in-flight occurrence of key in partition p. The
// filter bits stay (the filter is a superset structure); only the
// rebuild protection lapses, which is correct once the occurrence is
// committed to the count maps.
func (st *NUCState) unpublish(p int, key int64) {
	led := &st.inflight[p]
	led.mu.Lock()
	if n := led.keys[key]; n <= 1 {
		delete(led.keys, key)
	} else {
		led.keys[key] = n - 1
	}
	led.mu.Unlock()
}

// PrePublishInt64 registers an in-flight occurrence of v in partition
// p's filter AND its pre-publication ledger — the fast-path insert's
// publication primitive. Safe from any context (no partition ownership
// needed). The caller must pair it with exactly one UnpublishInt64
// after v's count-map commit (or after abandoning the batch under a
// lock that excludes rebuilds of p).
func (st *NUCState) PrePublishInt64(p int, v int64) { st.prePublish(p, v) }

// PrePublishString is PrePublishInt64 for string columns.
func (st *NUCState) PrePublishString(p int, v string) { st.prePublish(p, hashString(v)) }

// UnpublishInt64 retires one PrePublishInt64 registration.
func (st *NUCState) UnpublishInt64(p int, v int64) { st.unpublish(p, v) }

// UnpublishString retires one PrePublishString registration.
func (st *NUCState) UnpublishString(p int, v string) { st.unpublish(p, hashString(v)) }

// PendingPublications returns the number of distinct ledgered keys of
// partition p — a diagnostic for tests asserting the ledger drains.
func (st *NUCState) PendingPublications(p int) int {
	led := &st.inflight[p]
	led.mu.Lock()
	defer led.mu.Unlock()
	return len(led.keys)
}

// SealDuplicatesInt64 publishes newly duplicated values into a fresh
// exception-set snapshot; values already sealed are skipped, and a
// call that adds nothing swaps nothing. The snapshot shares its base
// with its predecessor and copies only the overlay, except when the
// overlay folds (sealedSet.with). The swap is a compare-and-swap loop,
// so concurrent sealers (parallel insert batches publishing at once)
// compose without a lock and without losing each other's values;
// concurrent Sealed() readers keep their older, still-correct snapshot.
func (st *NUCState) SealDuplicatesInt64(vals []int64) {
	st.seal(func(e *NUCExceptions) (*NUCExceptions, bool) {
		ints, ok := e.ints.with(vals)
		return &NUCExceptions{ints: ints, strs: e.strs, pruneAt: e.pruneAt}, ok
	})
}

// SealDuplicatesString is SealDuplicatesInt64 for string columns.
func (st *NUCState) SealDuplicatesString(vals []string) {
	st.seal(func(e *NUCExceptions) (*NUCExceptions, bool) {
		strs, ok := e.strs.with(vals)
		return &NUCExceptions{ints: e.ints, strs: strs, pruneAt: e.pruneAt}, ok
	})
}

func (st *NUCState) seal(add func(*NUCExceptions) (*NUCExceptions, bool)) {
	for {
		old := st.sealed.Load()
		next, ok := add(old)
		if !ok || st.sealed.CompareAndSwap(old, next) {
			return
		}
	}
}

// PruneDue reports whether the sealed set has reached the size at which
// PruneSealed rebuilds it. Safe from any context.
func (st *NUCState) PruneDue() bool {
	e := st.sealed.Load()
	return e.Len() >= e.pruneAt
}

// PruneSealed rebuilds the sealed set from its values that still have a
// live occurrence, once PruneDue: a value whose occurrences were all
// deleted or modified away drops out, which bounds the set by the live
// duplicates instead of by every value ever duplicated. Dropping such a
// value keeps the invariant that every live occurrence of a sealed
// value is a patch (it has none), and every value occurring twice or
// more stays sealed. The rebuild costs O(|set| · partitions) and runs
// only after the set doubled, so it adds O(partitions) per sealed
// value. Returns whether it pruned.
//
// The caller owns EVERY partition (the exclusive structure lock): the
// global counts must hold still, and no lock-free sealer may run, since
// a batch that classified a value as sealed may not see it unsealed
// before it commits. The trigger depends only on the set's contents,
// so two tables driven through the same operations prune at the same
// operation whichever insert path each one takes.
func (st *NUCState) PruneSealed() bool {
	old := st.sealed.Load()
	if old.Len() < old.pruneAt {
		return false
	}
	next := &NUCExceptions{
		ints: old.ints.live(func(v int64) bool { return st.GlobalCountInt64(v) > 0 }),
		strs: old.strs.live(func(v string) bool { return st.GlobalCountString(v) > 0 }),
	}
	next.pruneAt = max(pruneFloor, 2*next.Len())
	st.sealed.Store(next)
	return true
}

// RebuildBloomPartition rebuilds partition p's filter when its add
// count outgrew its sizing, sourcing the fresh filter from the live
// value set of p's count map PLUS the in-flight pre-publication ledger,
// and swapping it in atomically. The caller owns partition p (partition
// lock, or the exclusive structure lock) — that ownership serializes
// rebuilds of p against each other and against count-map writers, so
// any occurrence missing from the counts still holds its ledger entry
// when the re-apply scan runs. Concurrent probes and pre-publications
// need no lock at all. Returns whether a rebuild happened.
func (st *NUCState) RebuildBloomPartition(p int) bool {
	cur := st.blooms[p].Load()
	if int(cur.f.Added()) <= cur.cap {
		return false
	}
	var n int
	if st.isString {
		for _, k := range st.localStr[p] {
			n += int(k)
		}
	} else {
		for _, k := range st.localInt[p] {
			n += int(k)
		}
	}
	pb := bloomFor(n)
	if st.isString {
		for v := range st.localStr[p] {
			pb.f.Add(hashString(v))
		}
	} else {
		for v := range st.localInt[p] {
			pb.f.Add(v)
		}
	}
	led := &st.inflight[p]
	led.mu.Lock()
	defer led.mu.Unlock()
	for k := range led.keys {
		pb.f.Add(k)
	}
	st.blooms[p].Store(pb)
	return true
}

// RebuildOverfullBlooms rebuilds every partition filter whose add count
// outgrew its sizing. Safe only where the caller owns EVERY partition
// (the exclusive structure lock); partition-scoped maintenance uses
// RebuildBloomPartition under one partition's lock instead.
func (st *NUCState) RebuildOverfullBlooms() {
	for p := range st.blooms {
		st.RebuildBloomPartition(p)
	}
}
