package rsu

import (
	"fmt"
	"math"

	"repro/internal/fixed"
)

// IntensityMap is the 256-entry × 4-bit lookup table of the RSU-G's
// third pipeline stage (paper §5.2, Intensity Mapping): it maps an 8-bit
// clique-potential energy to the QD-LED code whose optical intensity
// best realizes the Boltzmann rate exp(-E/T). The paper sizes it at 128
// bytes (256 entries × 4 bits) and initializes it per-application
// through two RSU instructions (§6.1).
type IntensityMap [256]fixed.Intensity

// BuildIntensityMap constructs the LUT for a given LED intensity ladder
// and quantized temperature.
//
// levels[c] is the effective sampling rate of LED code c (from
// ret.LEDBank.Levels scaled by circuit losses; only relative magnitudes
// matter). temperature is in 8-bit energy units per e-fold: the target
// rate for energy E is max(levels) * exp(-E/temperature).
//
// For each energy the builder picks the code minimizing the relative
// error |log(level) - log(target)| among the positive levels. When the
// target rate falls below half the dimmest positive level — beyond the
// ladder's dynamic range — the builder maps the energy to a dark code
// (all LEDs off, rate 0) if the ladder has one. This matters for
// fidelity: without a dark rung, every improbable label is floored at
// dimmest/brightest relative probability, and with many labels (M=49
// motion) those floors sum to a fat tail the exact Gibbs conditional
// does not have. A dark channel simply never fires, which is the
// correct limit. If every channel of a variable ends up dark, no
// circuit fires and Sample keeps the variable's current label
// (Input.Current explains why that, not a fixed tie-break label, is
// the right no-fire result).
func BuildIntensityMap(levels [16]float64, temperature float64) (IntensityMap, error) {
	var m IntensityMap
	if temperature <= 0 {
		return m, fmt.Errorf("rsu: LUT temperature must be positive, got %v", temperature)
	}
	maxLevel := 0.0
	minPositive := math.Inf(1)
	darkCode := -1
	for c, l := range levels {
		if l < 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			return m, fmt.Errorf("rsu: invalid LED level %v", l)
		}
		if l > maxLevel {
			maxLevel = l
		}
		if l == 0 && darkCode < 0 {
			darkCode = c
		}
		if l > 0 && l < minPositive {
			minPositive = l
		}
	}
	if maxLevel <= 0 {
		return m, fmt.Errorf("rsu: all LED levels are dark")
	}
	for e := 0; e < 256; e++ {
		target := math.Log(maxLevel) - float64(e)/temperature
		if darkCode >= 0 && target < math.Log(minPositive/2) {
			m[e] = fixed.NewIntensity(darkCode)
			continue
		}
		bestCode, bestErr := -1, math.Inf(1)
		for c := 0; c < 16; c++ {
			if levels[c] <= 0 {
				continue
			}
			if err := math.Abs(math.Log(levels[c]) - target); err < bestErr {
				bestCode, bestErr = c, err
			}
		}
		m[e] = fixed.NewIntensity(bestCode)
	}
	return m, nil
}

// Pack64 serializes the LUT into four 64-bit words exactly as the §6.1
// initialization protocol ships it ("map table hi, map table low" via
// two RSU instructions each writing packed values): 128 bytes of 4-bit
// entries → 16 words, but the control interface models the two logical
// halves. Entry e occupies bits [4*(e%16), 4*(e%16)+4) of word e/16.
func (m IntensityMap) Pack64() [16]uint64 {
	var words [16]uint64
	for e, code := range m {
		words[e/16] |= uint64(code&0xF) << (4 * (e % 16))
	}
	return words
}

// UnpackIntensityMap reverses Pack64.
func UnpackIntensityMap(words [16]uint64) IntensityMap {
	var m IntensityMap
	for e := range m {
		m[e] = fixed.Intensity((words[e/16] >> (4 * (e % 16))) & fixed.MaxIntensity)
	}
	return m
}
