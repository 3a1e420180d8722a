package rsu

import "math"

// TTFTimer models the time-to-fluorescence measurement of the RET
// Sampling pipeline stage (paper §5.2): "The time to the first photon
// detection (TTF) is recorded using an 8-bit shift register that is
// clocked 8x faster than the system clock."
type TTFTimer struct {
	// ClockHz is the system clock frequency; the register ticks at
	// 8 × ClockHz.
	ClockHz float64
	// Bits is the register width (8 in the paper). Max count is
	// 2^Bits - 1, at which the measurement saturates.
	Bits int
}

// NewTTFTimer returns the paper's 8-bit, 8x-overclocked timer for the
// given system clock. It panics on a non-positive clock.
func NewTTFTimer(clockHz float64) TTFTimer {
	if clockHz <= 0 {
		panic("rsu: TTF timer clock must be positive")
	}
	return TTFTimer{ClockHz: clockHz, Bits: 8}
}

// Resolution returns the tick duration in seconds (125 ps at 1 GHz).
func (t TTFTimer) Resolution() float64 { return 1 / (8 * t.ClockHz) }

// MaxCount returns the saturation count (255 for 8 bits).
func (t TTFTimer) MaxCount() uint32 { return 1<<t.Bits - 1 }

// Window returns the full-scale measurement window in seconds
// (31.875 ns at 1 GHz with 8 bits).
func (t TTFTimer) Window() float64 { return float64(t.MaxCount()) * t.Resolution() }

// Quantize converts a continuous TTF in seconds to a register count,
// saturating at MaxCount. Infinite TTF (a dark channel) saturates.
//
// The saturation compare happens in the float domain *before* any
// integer conversion: converting a float64 ≥ 2^63 (or NaN) to an
// unsigned integer is implementation-specific in Go, so the previous
// `uint64(ttf/res) >= uint64(max)` form silently depended on the
// platform for extreme TTFs. In the physical register the comparison
// is a carry-out of the 8-bit counter — it can only ever saturate, not
// wrap (wrap is modeled as an injectable fault; see internal/fault).
// Results are bit-identical to the old code for all in-range TTFs.
func (t TTFTimer) Quantize(ttf float64) uint32 {
	return quantize(ttf, t.Resolution(), t.MaxCount())
}

// quantize is Quantize with the tick and saturation count supplied by
// the caller (the unit precomputes both).
func quantize(ttf, res float64, maxCount uint32) uint32 {
	if ttf < 0 {
		return 0
	}
	ticks := ttf / res
	if math.IsNaN(ticks) || ticks >= float64(maxCount) {
		return maxCount
	}
	return uint32(ticks)
}

// QuantizeSat is Quantize plus the saturation flag of the selection
// stage. The flag feeds the fault monitors' saturation counters
// (fault.Obs.Saturated): silent saturation was previously invisible
// upstream, which is exactly how a dead SPAD hides.
func (t TTFTimer) QuantizeSat(ttf float64) (count uint32, saturated bool) {
	c := t.Quantize(ttf)
	return c, c >= t.MaxCount()
}

// ExpectedCount returns the expected quantized TTF count of an
// exponential channel with the given detected-photon rate, accounting
// for register saturation: E[min(T, W)]/res = µ·(1 − e^(−max/µ)) ticks
// with µ the mean TTF in ticks. This is the reference statistic the
// fault monitors' fire-rate EWMA compares observed counts against; a
// zero (dark) rate expects exactly the saturation count.
func (t TTFTimer) ExpectedCount(rate float64) float64 {
	max := float64(t.MaxCount())
	if rate <= 0 {
		return max
	}
	mu := 1 / (rate * t.Resolution())
	return mu * (1 - math.Exp(-max/mu))
}
