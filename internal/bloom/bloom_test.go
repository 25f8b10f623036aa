package bloom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNoFalseNegatives(t *testing.T) {
	f := New(1000, 0.01)
	for i := int64(0); i < 1000; i++ {
		f.Add(i * 7)
	}
	for i := int64(0); i < 1000; i++ {
		if !f.MayContainConcurrent(i * 7) {
			t.Fatalf("false negative for %d", i*7)
		}
	}
	if f.Added() != 1000 {
		t.Fatalf("Added = %d", f.Added())
	}
}

func TestFalsePositiveRateReasonable(t *testing.T) {
	f := New(10_000, 0.01)
	rng := rand.New(rand.NewSource(1))
	present := make(map[int64]bool, 10_000)
	for len(present) < 10_000 {
		v := rng.Int63()
		present[v] = true
	}
	for v := range present {
		f.Add(v)
	}
	fp := 0
	const probes = 20_000
	for i := 0; i < probes; i++ {
		v := rng.Int63()
		if present[v] {
			continue
		}
		if f.MayContainConcurrent(v) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.05 {
		t.Fatalf("false positive rate %.4f, want <= 0.05 (target 0.01)", rate)
	}
	if f.FillRatio() > 0.6 {
		t.Fatalf("fill ratio %.2f too high", f.FillRatio())
	}
}

func TestDegenerateParams(t *testing.T) {
	f := New(0, -1)
	f.Add(42)
	if !f.MayContainConcurrent(42) {
		t.Fatal("degenerate filter lost value")
	}
	if f.SizeBytes() == 0 {
		t.Fatal("filter has no storage")
	}
}

func TestQuickMembership(t *testing.T) {
	fn := func(vals []int64, probe int64) bool {
		f := New(len(vals)+1, 0.01)
		for _, v := range vals {
			f.Add(v)
		}
		for _, v := range vals {
			if !f.MayContainConcurrent(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
