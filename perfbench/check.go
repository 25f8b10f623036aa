package main

import (
	"fmt"
	"math"
	"sort"

	"patchindex/internal/storage"
)

// sameRows reports whether got and want hold the same rows in any
// order. Floats match to a relative 1e-9: plans that sum in a
// different order may differ in the last bits.
func sameRows(got, want []storage.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	g, w := sortedRows(got), sortedRows(want)
	for i := range g {
		if len(g[i]) != len(w[i]) {
			return fmt.Errorf("row %d has %d columns, want %d", i, len(g[i]), len(w[i]))
		}
		for c := range g[i] {
			if !sameValue(g[i][c], w[i][c]) {
				return fmt.Errorf("row %d column %d: %v, want %v", i, c, g[i][c], w[i][c])
			}
		}
	}
	return nil
}

func sameValue(a, b storage.Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case storage.KindFloat64:
		return math.Abs(a.F-b.F) <= 1e-9*math.Max(1, math.Max(math.Abs(a.F), math.Abs(b.F)))
	case storage.KindString:
		return a.S == b.S
	default:
		return a.I == b.I
	}
}

func sortedRows(rows []storage.Row) []storage.Row {
	s := append([]storage.Row(nil), rows...)
	sort.Slice(s, func(i, j int) bool { return lessRow(s[i], s[j]) })
	return s
}

// lessRow orders rows column by column. Floats compare after rounding
// to the tolerance of sameValue, so rows that match also sort alike.
func lessRow(a, b storage.Row) bool {
	for c := range a {
		if c >= len(b) {
			return false
		}
		x, y := a[c], b[c]
		switch x.Kind {
		case storage.KindFloat64:
			xf, yf := roundSig(x.F), roundSig(y.F)
			if xf != yf {
				return xf < yf
			}
		case storage.KindString:
			if x.S != y.S {
				return x.S < y.S
			}
		default:
			if x.I != y.I {
				return x.I < y.I
			}
		}
	}
	return len(a) < len(b)
}

func roundSig(f float64) float64 {
	if f == 0 || math.IsInf(f, 0) || math.IsNaN(f) {
		return f
	}
	scale := math.Pow(10, 8-math.Floor(math.Log10(math.Abs(f))))
	return math.Round(f*scale) / scale
}

// perturbRows returns a copy of rows that no correct answer equals:
// one row fewer, or a row when there were none.
func perturbRows(rows []storage.Row) []storage.Row {
	if len(rows) == 0 {
		return []storage.Row{{storage.I64(-1)}}
	}
	return append([]storage.Row(nil), rows[1:]...)
}
