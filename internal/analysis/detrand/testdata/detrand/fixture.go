// Package fixture seeds detrand violations and allowed patterns.
package fixture

import (
	"math/rand" // want "nondeterministic RNG import"
	"sort"
	"time"

	"repro/internal/rng"
)

var _ = rand.Int

// SeedFromClock derives a seed from the wall clock — the canonical
// reproducibility bug.
func SeedFromClock() uint64 {
	return uint64(time.Now().UnixNano()) // want "wall-clock read time.Now()"
}

// SumWeights folds map iteration order into a float accumulator.
func SumWeights(weights map[string]float64) float64 {
	total := 0.0
	for _, w := range weights {
		total += w // want "order-dependent float accumulation"
	}
	return total
}

// DrawPerEntry draws inside map iteration, so the stream position each
// entry sees depends on the randomized order.
func DrawPerEntry(rates map[string]float64, src *rng.Source) map[string]float64 {
	out := make(map[string]float64, len(rates))
	for k, rate := range rates {
		out[k] = src.Exponential(rate) // want "sample draw"
	}
	return out
}

// CountEntries accumulates an integer over a map: integer addition is
// exact, so iteration order cannot change the result. Must not be
// flagged.
func CountEntries(hist map[string]int) int {
	n := 0
	for _, c := range hist {
		n += c
	}
	return n
}

// SumSorted is the sanctioned pattern: collect keys, sort, then fold in
// deterministic order. Must not be flagged.
func SumSorted(weights map[string]float64, src *rng.Source) float64 {
	keys := make([]string, 0, len(weights))
	for k := range weights {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	total := 0.0
	for _, k := range keys {
		total += weights[k] * src.Float64()
	}
	return total
}
