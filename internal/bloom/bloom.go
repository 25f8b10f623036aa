// Package bloom provides a small blocked Bloom filter over int64 keys.
// It implements the paper's future-work suggestion (Section 7): "further
// data structures like bloom filters ... could enhance the discovery of
// exceptions to approximate constraints caused by update operations".
// Its only user is core.NUCState, which keeps one filter per partition
// of a NUC column; the partition-parallel insert path probes the
// foreign partitions' filters for cross-partition collision candidates.
package bloom

import (
	"math"
	"sync/atomic"
)

// Filter is a standard Bloom filter with k hash functions derived from
// one 64-bit mix (Kirsch-Mitzenmacher double hashing). Values are only
// ever added, so a filter built over a column stays a superset of the
// column's values under deletes — tests can produce false positives but
// never false negatives, which is exactly what a collision pre-check
// needs.
type Filter struct {
	bits []uint64
	m    uint64 // number of bits
	k    uint64 // hash functions
	n    uint64 // added elements
}

// New returns a filter sized for expectedN elements at the given target
// false-positive rate.
func New(expectedN int, fpRate float64) *Filter {
	if expectedN < 1 {
		expectedN = 1
	}
	if fpRate <= 0 || fpRate >= 1 {
		fpRate = 0.01
	}
	m := uint64(math.Ceil(-float64(expectedN) * math.Log(fpRate) / (math.Ln2 * math.Ln2)))
	if m < 64 {
		m = 64
	}
	m = (m + 63) &^ 63 // round to whole words
	k := uint64(math.Round(float64(m) / float64(expectedN) * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > 8 {
		k = 8
	}
	return &Filter{bits: make([]uint64, m/64), m: m, k: k}
}

// mix64 is SplitMix64's finalizer, a strong 64-bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add inserts v.
func (f *Filter) Add(v int64) {
	h1 := mix64(uint64(v))
	h2 := mix64(h1 ^ 0x9e3779b97f4a7c15)
	for i := uint64(0); i < f.k; i++ {
		pos := (h1 + i*h2) % f.m
		//pilint:ignore atomicmix single-writer API; concurrent callers use AddConcurrent
		f.bits[pos/64] |= 1 << (pos % 64)
	}
	//pilint:ignore atomicmix single-writer API; concurrent callers use AddConcurrent
	f.n++
}

// AddConcurrent inserts v with atomic word updates, safe against
// concurrent AddConcurrent and MayContainConcurrent calls. A concurrent
// reader may observe the value partially added (some bits set) and
// report false for it; callers that must not miss in-flight values need
// an external ordering protocol (the engine's insert gate provides one:
// adds complete before the adder deregisters, probes start after the
// prober registers).
func (f *Filter) AddConcurrent(v int64) {
	h1 := mix64(uint64(v))
	h2 := mix64(h1 ^ 0x9e3779b97f4a7c15)
	for i := uint64(0); i < f.k; i++ {
		pos := (h1 + i*h2) % f.m
		w, bit := &f.bits[pos/64], uint64(1)<<(pos%64)
		for {
			old := atomic.LoadUint64(w)
			if old&bit != 0 || atomic.CompareAndSwapUint64(w, old, old|bit) {
				break
			}
		}
	}
	atomic.AddUint64(&f.n, 1)
}

// MayContainConcurrent reports whether v may have been added, reading
// words atomically so it is safe against concurrent AddConcurrent
// calls. False positives are possible; false negatives are not, except
// against in-flight concurrent adds — see AddConcurrent for the
// ordering contract that rules that out.
func (f *Filter) MayContainConcurrent(v int64) bool {
	h1 := mix64(uint64(v))
	h2 := mix64(h1 ^ 0x9e3779b97f4a7c15)
	for i := uint64(0); i < f.k; i++ {
		pos := (h1 + i*h2) % f.m
		if atomic.LoadUint64(&f.bits[pos/64])&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// Added returns the number of Add calls. Concurrent with AddConcurrent
// it is a snapshot (atomic read).
func (f *Filter) Added() uint64 { return atomic.LoadUint64(&f.n) }

// SizeBytes returns the filter's bit-array size.
func (f *Filter) SizeBytes() uint64 { return uint64(len(f.bits)) * 8 }

// FillRatio returns the fraction of set bits (diagnostic; beyond ~0.5
// the false-positive rate degrades and the filter should be resized).
func (f *Filter) FillRatio() float64 {
	var set int
	//pilint:ignore atomicmix diagnostic read; callers quiesce writers first
	for _, w := range f.bits {
		set += popcount(w)
	}
	return float64(set) / float64(f.m)
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
