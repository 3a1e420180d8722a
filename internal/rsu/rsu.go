// Package rsu implements the paper's primary contribution: RSU-G, a
// RET-based Gibbs sampling functional unit for first-order MRF inference
// (paper §4–§6).
//
// An RSU-G draws a new label for one MRF random variable by racing M
// exponential samplers ("first to fire", §4.3): each candidate label's
// clique-potential energy parameterizes a RET circuit through an
// intensity LUT; the label whose circuit fluoresces first is the sample.
// The five pipeline components (§5.1) are:
//
//  1. label decrement/input   — down counter iterating M-1 … 0
//  2. energy computation      — singleton + four doubletons, 8-bit saturating
//  3. energy→intensity map    — 256×4-bit LUT (IntensityMap)
//  4. RET circuits            — exponential TTF samplers (internal/ret)
//  5. selection               — compare-and-update on quantized TTFs
//
// A unit of width K (RSU-Gk) evaluates K labels per cycle using K lanes
// of replicated RET circuits; RSU-G1 takes 7+(M−1) cycles per variable,
// RSU-G64 takes 12 (§5).
package rsu

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/fixed"
	"repro/internal/ret"
	"repro/internal/rng"
)

// SamplingMode selects how RET TTFs are generated.
type SamplingMode int

const (
	// Ideal draws TTFs directly from Exp(EffectiveRate(code)): the
	// asymptotic behavior of the RET circuit without photon-level
	// simulation. Fast enough for whole-image inference.
	Ideal SamplingMode = iota
	// Physical runs the full photon-level simulation in internal/ret
	// (Poisson absorption, network relaxation, SPAD noise). Slow;
	// used for fidelity studies.
	Physical
)

// String implements fmt.Stringer.
func (m SamplingMode) String() string {
	switch m {
	case Ideal:
		return "ideal"
	case Physical:
		return "physical"
	default:
		return fmt.Sprintf("SamplingMode(%d)", int(m))
	}
}

// QuiescenceCycles is the recovery time of a RET circuit after a
// sampling operation (§5.3): "The RSU-G1 design presented here requires
// four 1ns cycles for the RET circuits to reach a quiescent state."
const QuiescenceCycles = 4

// DefaultReplicas is the number of replicated RET circuits per lane
// needed to hide the quiescence hazard and sustain one evaluation per
// cycle (§5.3).
const DefaultReplicas = 4

// Config describes one RSU-G unit.
type Config struct {
	// M is the number of labels per random variable, 2..64 (6-bit).
	M int
	// Width K is the number of labels evaluated per step: 1 for RSU-G1,
	// 4 for RSU-G4, up to 64 for RSU-G64.
	Width int
	// Vector selects 2-D vector label interpretation (two 3-bit
	// components) for the doubleton distance; scalar otherwise.
	Vector bool
	// DoubletonWeight and SingletonWeight are the integer fixed-point
	// clique weights (w in Eq. 2).
	DoubletonWeight, SingletonWeight uint8
	// Diagonal enables the RSU-G8 extension (§9 "other MRF problems"):
	// four additional diagonal-neighbor registers and doubleton adders
	// for second-order MRFs, weighted by DiagonalWeight. Costs one extra
	// pipeline stage for the wider adder tree.
	Diagonal       bool
	DiagonalWeight uint8
	// ClockHz is the system clock (1 GHz at 15 nm, §8).
	ClockHz float64
	// Replicas is the number of RET circuits per lane (default 4).
	Replicas int
	// Mode selects Ideal or Physical TTF generation.
	Mode SamplingMode
	// Circuit is the RET circuit design replicated across lanes.
	Circuit *ret.Circuit
	// Map is the energy→intensity LUT (loaded per application, §6.1).
	Map IntensityMap
	// Labels optionally maps application label indices 0..M-1 to 6-bit
	// datapath codes (a small label-decode ROM in front of the energy
	// stage). Needed when the label space does not pack contiguously:
	// e.g. a 7×7 motion window (M=49) whose vectors occupy the 3+3-bit
	// code space sparsely. Nil means the identity mapping. Neighbor
	// labels in Input are always datapath codes.
	Labels []fixed.Label
}

// Unit is an RSU-G instance.
type Unit struct {
	cfg      Config
	timer    TTFTimer
	levels   [16]float64 // EffectiveRate per LED code
	expCount [16]float64 // TTFTimer.ExpectedCount per LED code
	maxLevel float64     // brightest rung (full-on rate), for fault models

	// Tables of the energy and intensity stages, built once by New (rate
	// and lit again by SetMap); energies explains how the sampling loops
	// use them, race how it uses lit and beat.
	rate    [256]float64                       // levels[Map[e]] per 8-bit energy
	lit     [256]uint8                         // 1 where rate[e] draws: !(rate <= 0)
	beat    [256][16]uint64                    // per count n and LED code: every k below it counts ≥ n
	sing    [2*fixed.MaxLabel + 1]fixed.Energy // singleton by 63+Data1-Data2 (6-bit values)
	dbl     *doubletonTable                    // axial neighbor registers
	dblDiag *doubletonTable                    // diagonal registers; nil unless Diagonal

	// Per-unit constants of the TTF register and the timing model.
	res      float64 // TTF tick in seconds
	window   float64 // full-scale TTF window in seconds
	maxCount uint32  // saturation count
	timing   Timing  // EvalTiming result
}

// The energy stage works on packed lanes: label index idx occupies the
// 16-bit lane idx%laneLabels of word idx/laneLabels, so one uint64 add
// sums four labels' terms at once.
const (
	laneBits   = 16
	laneLabels = 64 / laneBits
	laneWords  = fixed.MaxLabels / laneLabels
)

// doubletonTable holds the weighted doubleton potential of every
// (neighbor code, candidate label index) pair in packed lanes: one row
// per 6-bit neighbor code, so a site's energy stage adds one row per
// neighbor register.
type doubletonTable [fixed.MaxLabels][laneWords]uint64

// New validates cfg and constructs the unit.
func New(cfg Config) (*Unit, error) {
	switch {
	case cfg.M < 2 || cfg.M > fixed.MaxLabels:
		return nil, fmt.Errorf("rsu: M=%d outside [2,%d]", cfg.M, fixed.MaxLabels)
	case cfg.Width < 1 || cfg.Width > fixed.MaxLabels:
		return nil, fmt.Errorf("rsu: width %d outside [1,%d]", cfg.Width, fixed.MaxLabels)
	case cfg.ClockHz <= 0:
		return nil, fmt.Errorf("rsu: clock must be positive")
	case cfg.Circuit == nil:
		return nil, fmt.Errorf("rsu: nil RET circuit")
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = DefaultReplicas
	}
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("rsu: replicas %d < 1", cfg.Replicas)
	}
	if cfg.Labels != nil && len(cfg.Labels) != cfg.M {
		return nil, fmt.Errorf("rsu: label table has %d entries, need M=%d", len(cfg.Labels), cfg.M)
	}
	u := &Unit{cfg: cfg, timer: NewTTFTimer(cfg.ClockHz)}
	for c := 0; c < 16; c++ {
		u.levels[c] = cfg.Circuit.EffectiveRate(uint8(c))
		u.expCount[c] = u.timer.ExpectedCount(u.levels[c])
		if u.levels[c] > u.maxLevel {
			u.maxLevel = u.levels[c]
		}
	}
	u.res, u.window, u.maxCount = u.timer.Resolution(), u.timer.Window(), u.timer.MaxCount()
	u.timing = evalTiming(cfg)
	u.buildBeats()
	for d := 0; d <= fixed.MaxLabel; d++ {
		e := fixed.SingletonEnergy(uint8(d), 0, cfg.SingletonWeight)
		u.sing[fixed.MaxLabel+d], u.sing[fixed.MaxLabel-d] = e, e
	}
	u.dbl = u.doubletons(cfg.DoubletonWeight)
	if cfg.Diagonal {
		u.dblDiag = u.doubletons(cfg.DiagonalWeight)
	}
	u.buildRates()
	return u, nil
}

// doubletons tabulates fixed.DoubletonEnergy(LabelCode(idx), nbr,
// Vector, w) for every neighbor code and label index.
func (u *Unit) doubletons(w uint8) *doubletonTable {
	t := new(doubletonTable)
	for nbr := range t {
		for idx := 0; idx < u.cfg.M; idx++ {
			e := fixed.DoubletonEnergy(u.LabelCode(idx), fixed.NewLabel(nbr), u.cfg.Vector, w)
			t[nbr][idx/laneLabels] |= uint64(e) << (laneBits * (idx % laneLabels))
		}
	}
	return t
}

// buildRates folds the intensity map and the LED ladder into one
// energy→rate lookup, and marks the energies whose channel draws. A NaN
// rung draws, as src.Exponential would.
func (u *Unit) buildRates() {
	for e, code := range u.cfg.Map {
		u.rate[e] = u.levels[code]
		u.lit[e] = 0
		if !(u.rate[e] <= 0) {
			u.lit[e] = 1
		}
	}
}

// buildBeats fills the beat table from the LED ladder and the TTF tick.
// It depends on neither the intensity map nor the energies, so SetMap
// leaves it alone.
func (u *Unit) buildBeats() {
	for n := range u.beat {
		for code, rate := range u.levels {
			u.beat[n][code] = beatBound(n, rate, u.res)
		}
	}
}

// beatBound returns the beat-table entry of count n on a rung of the
// given rate: an integer b such that every draw k < b (the 53-bit
// integer behind Float64, k·2⁻⁵³) quantizes to a count ≥ n, computed as
// floor(2⁵³·exp(−n·res·rate)·(1−2⁻³⁰)).
//
// Why every k < b counts ≥ n. Let x = rate·res, so the exact tick value
// of k is t = −ln(k·2⁻⁵³)/x, and t ≥ n exactly when k·2⁻⁵³ ≤ exp(−n·x).
//   - b ≥ 1 only if n·x ≤ 53·ln 2 < 37. The argument −n·res·rate then
//     carries an absolute error ≤ 37·2⁻⁵², math.Exp one ulp and the
//     final products half an ulp each, so b < 2⁵³·exp(−n·x)·(1−2⁻³¹).
//     Hence for k < b, t > n − ln(1−2⁻³¹)/x > n + 2⁻³¹/x ≥ n·(1 + 2⁻³⁷).
//   - race computes the ticks as −math.Log(k·2⁻⁵³)/rate/res: math.Log
//     is within one ulp and each division within half an ulp, a
//     relative error ≤ 2⁻⁵⁰ in all. The computed ticks are therefore
//     > n·(1 + 2⁻³⁷)·(1 − 2⁻⁵⁰) > n for every n ≤ 255 and every rate·res,
//     and quantize floors them to ≥ n or saturates at 255 ≥ n.
//
// The argument needs no monotonicity of the float pipeline in k. The
// margin 2⁻³⁰ keeps b within about 2⁻³⁰ of the true boundary, so the
// skip still fires on nearly every losing draw.
//
// Special values: n = 0 and a NaN rung give MaxUint64 (every count is
// ≥ 0, and a NaN rung always saturates), a dark rung (≤ 0) too (it is
// never raced), and a bound below 1 gives 0 (an infinite rate does so).
func beatBound(n int, rate, res float64) uint64 {
	if n == 0 || !(rate > 0) {
		return math.MaxUint64
	}
	b := math.Exp(-float64(n)*res*rate) * 0x1p53 * (1 - 0x1p-30)
	if !(b >= 1) {
		return 0
	}
	return uint64(b)
}

// Config returns the unit's configuration.
func (u *Unit) Config() Config { return u.cfg }

// SetMap installs a new energy→intensity LUT (the §6.1 map-table load).
func (u *Unit) SetMap(m IntensityMap) {
	u.cfg.Map = m
	u.buildRates()
}

// Timer returns the TTF quantizer.
func (u *Unit) Timer() TTFTimer { return u.timer }

// Levels returns the effective sampling rate of each LED code — the
// input needed to build an IntensityMap matched to this unit.
func (u *Unit) Levels() [16]float64 { return u.levels }

// Input carries the per-variable operands of §6: the four neighbor
// labels (doubleton terms) and the data values (singleton term).
type Input struct {
	// Neighbors are the current labels of the four adjacent variables.
	Neighbors [4]fixed.Label
	// NeighborsDiag are the four diagonal neighbors, used only when the
	// unit is configured with Diagonal (RSU-G8).
	NeighborsDiag [4]fixed.Label
	// Data1 is the variable's own 6-bit data value (e.g. pixel
	// intensity), "singleton A" in the control-register set.
	Data1 uint8
	// Data2 is the constant second data value ("singleton D").
	Data2 uint8
	// Data2PerLabel optionally supplies a per-label second data value —
	// the §6 case where "the singleton calculation may also need
	// information from a target location" (motion estimation's candidate
	// pixel). When non-nil it must have length >= M and overrides Data2.
	Data2PerLabel []uint8
	// SingletonPerLabel optionally supplies externally precomputed
	// singleton energies (§4.3: "extendable to other applications by
	// precomputing their singleton energy externally"). When non-nil it
	// overrides the squared-difference singleton entirely.
	SingletonPerLabel []fixed.Energy
	// Current is the variable's current label index, returned unchanged
	// when no RET circuit fires within the TTF window (every channel
	// dark or saturated). Keeping the current value on a no-fire —
	// rather than a fixed tie-break label — matters for chain dynamics:
	// a deterministic tie-break label acts as an absorbing contagion
	// under the smoothness prior. Hardware-wise this is a saturation
	// flag on the selection register that tells software to skip the
	// update, equivalent to a rejected Metropolis move.
	Current fixed.Label
}

// LabelCode returns the 6-bit datapath code of application label index
// idx (identity unless Config.Labels is set).
func (u *Unit) LabelCode(idx int) fixed.Label {
	if u.cfg.Labels != nil {
		return u.cfg.Labels[idx]
	}
	return fixed.NewLabel(idx)
}

// Energy runs the energy-calculation pipeline stage (§5.2) for the
// candidate label with index idx: the 8-bit saturating sum of the
// singleton and the four doubleton clique potentials. Per-label input
// slices are indexed by idx; the doubleton distance operates on the
// label's datapath code against the neighbor codes.
func (u *Unit) Energy(in Input, idx int) fixed.Energy {
	var e fixed.Energy
	if in.SingletonPerLabel != nil {
		e = in.SingletonPerLabel[idx]
	} else {
		d2 := in.Data2
		if in.Data2PerLabel != nil {
			d2 = in.Data2PerLabel[idx]
		}
		e = fixed.SingletonEnergy(in.Data1, d2, u.cfg.SingletonWeight)
	}
	code := u.LabelCode(idx)
	for _, nbr := range in.Neighbors {
		e = fixed.SatAddEnergy(e, fixed.DoubletonEnergy(code, nbr, u.cfg.Vector, u.cfg.DoubletonWeight))
	}
	if u.cfg.Diagonal {
		for _, nbr := range in.NeighborsDiag {
			e = fixed.SatAddEnergy(e, fixed.DoubletonEnergy(code, nbr, u.cfg.Vector, u.cfg.DiagonalWeight))
		}
	}
	return e
}

// energies is the energy stage Sample, SampleFaulty and
// IdealConditional run: it fills out[0:M] with Energy(*in, idx) for
// every label at once, from the tables New builds. The doubleton rows
// of the neighbor registers are summed in packed 16-bit lanes, each
// label's singleton is added to its lane, and the total is clamped to
// 255 once. That equals Energy's chain of 8-bit saturating adds
// exactly, because every term is non-negative: a partial sum that
// reaches 255 can only grow, so the chain pins at 255 precisely when
// the exact sum is ≥ 255. (Each table entry is itself the saturated
// term Energy would add.) At most nine terms of ≤ 255 meet in a lane,
// so no sum carries into the next lane. The caller must have checked
// the per-label slice lengths (checkInput).
//
//rsulint:hot
func (u *Unit) energies(in *Input, out *[fixed.MaxLabels]fixed.Energy) {
	m := u.cfg.M
	var acc [laneWords]uint64
	words := acc[:(m+laneLabels-1)/laneLabels]
	addRows(words, u.dbl, &in.Neighbors)
	if u.dblDiag != nil {
		addRows(words, u.dblDiag, &in.NeighborsDiag)
	}
	switch {
	case in.SingletonPerLabel != nil:
		for idx, e := range in.SingletonPerLabel[:m] {
			out[idx] = clampEnergy(lane(&acc, idx) + uint16(e))
		}
	case in.Data2PerLabel != nil:
		for idx, d2 := range in.Data2PerLabel[:m] {
			out[idx] = clampEnergy(lane(&acc, idx) + u.singleton(in.Data1, d2))
		}
	default:
		s := u.singleton(in.Data1, in.Data2)
		for idx := 0; idx < m; idx++ {
			out[idx] = clampEnergy(lane(&acc, idx) + s)
		}
	}
}

// addRows adds the doubleton row of each of the four neighbor codes to
// the packed accumulator words.
func addRows(acc []uint64, t *doubletonTable, nbrs *[4]fixed.Label) {
	r0, r1 := &t[nbrs[0]&fixed.MaxLabel], &t[nbrs[1]&fixed.MaxLabel]
	r2, r3 := &t[nbrs[2]&fixed.MaxLabel], &t[nbrs[3]&fixed.MaxLabel]
	for w := range acc {
		acc[w] += r0[w] + r1[w] + r2[w] + r3[w]
	}
}

// singleton looks up the weighted squared difference of two 6-bit data
// values (SingletonEnergy) by their signed difference.
func (u *Unit) singleton(d1, d2 uint8) uint16 {
	return uint16(u.sing[fixed.MaxLabel+int(d1&fixed.MaxLabel)-int(d2&fixed.MaxLabel)])
}

// lane extracts label idx's 16-bit doubleton sum from the packed words.
func lane(acc *[laneWords]uint64, idx int) uint16 {
	i := uint(idx)
	return uint16(acc[i/laneLabels] >> (laneBits * (i % laneLabels)))
}

// clampEnergy is the stage's single saturation to the 8-bit energy.
func clampEnergy(s uint16) fixed.Energy {
	return fixed.Energy(min(s, fixed.MaxEnergy) & fixed.MaxEnergy) // the mask only documents the width
}

// checkInput panics when a per-label operand slice is shorter than M.
// It stays out of the hot sampling loops so their panic path does not
// box its arguments there.
func (u *Unit) checkInput(in *Input) {
	if in.Data2PerLabel != nil && len(in.Data2PerLabel) < u.cfg.M {
		panic(fmt.Sprintf("rsu: Data2PerLabel has %d entries, need %d", len(in.Data2PerLabel), u.cfg.M))
	}
	if in.SingletonPerLabel != nil && len(in.SingletonPerLabel) < u.cfg.M {
		panic(fmt.Sprintf("rsu: SingletonPerLabel has %d entries, need %d", len(in.SingletonPerLabel), u.cfg.M))
	}
}

// Timing reports the cycle cost of one variable evaluation.
type Timing struct {
	// Cycles is the steady-state latency in system clock cycles.
	Cycles int
	// Steps is the number of label-evaluation steps (ceil(M/K)).
	Steps int
}

// EvalTiming returns the pipeline timing for this configuration:
//
//	cycles = depth(K) + (steps-1) × interval
//
// where steps = ceil(M/K), depth(1) = 7 (the paper's 7+(M−1) for
// RSU-G1), depth grows with the selection-tree depth for wider units
// (depth(64) = 12, matching "up to 64 labels in 12 cycles"), and the
// initiation interval is 1 when enough RET-circuit replicas hide the
// 4-cycle quiescence hazard (§5.3), else ceil(Quiescence/Replicas).
// The result is constant per unit; New computes it once.
func (u *Unit) EvalTiming() Timing { return u.timing }

func evalTiming(cfg Config) Timing {
	k := cfg.Width
	steps := (cfg.M + k - 1) / k
	depth := 7
	if k > 1 {
		// Extra compare stages for the K-wide selection tree.
		depth += ceilLog2(k) - 1
	}
	if cfg.Diagonal {
		// RSU-G8: the eight-input energy adder tree is one level deeper.
		depth++
	}
	interval := 1
	if cfg.Replicas < QuiescenceCycles {
		interval = (QuiescenceCycles + cfg.Replicas - 1) / cfg.Replicas
	}
	return Timing{Cycles: depth + (steps-1)*interval, Steps: steps}
}

func ceilLog2(n int) int {
	l := 0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	return l
}

// Sample draws a new label index for one random variable: the full
// first-to-fire race over all M candidate labels with hardware
// quantization (16-level intensity ladder, 8-bit TTF register). The
// down counter iterates label indices M-1 … 0, and the selection stage
// keeps the strictly shortest quantized TTF — on ties the earlier-
// evaluated (higher) index wins, matching a compare-and-update register
// that only updates on '<'. The returned value is the winning label
// *index* (the down-counter value latched by the selection stage);
// use LabelCode for its datapath code.
func (u *Unit) Sample(in Input, src *rng.Source) (fixed.Label, Timing) {
	u.checkInput(&in)
	return u.race(&in, src), u.timing
}

// race is Sample's pipeline from the energy stage on: M channel draws
// in down-counter order, the strictly smallest count winning. If every
// channel saturates the current label is kept.
//
// An ideal channel draws exactly what src.Exponential(rate) would and
// quantizes it as TTFTimer.Quantize does; a dark rate (≤ 0) saturates
// without drawing, so the race visits only the lit channels: the set
// bits of a mask built from the lit table, highest index first, which
// is the down-counter order over the channels that consume RNG. Each
// visited channel draws one Uint64 with Float64Open's k = 0 rejection,
// whatever the race stands at. The count of k = Uint64()>>11 matters
// only when it could beat the best so far; the beat table (beatBound)
// proves that every k below beat[best][code] counts ≥ best, so the
// logarithm runs only for the draws at or above it, through exactly the
// expression src.Exponential and quantize evaluate.
//
//rsulint:hot
func (u *Unit) race(in *Input, src *rng.Source) fixed.Label {
	var es [fixed.MaxLabels]fixed.Energy
	u.energies(in, &es)
	if u.cfg.Mode == Physical {
		return u.racePhysical(&es, in.Current, src)
	}
	var lit uint64 // bit idx set when channel idx draws
	for idx := u.cfg.M - 1; idx >= 0; idx-- {
		lit = lit<<1 | uint64(u.lit[es[idx]])
	}
	bestIdx, best := 0, u.maxCount
	for lit != 0 {
		idx := bits.Len64(lit) - 1
		lit &^= 1 << idx
		x := src.Uint64()
		for x>>11 == 0 {
			x = src.Uint64()
		}
		k, e := x>>11, es[idx]
		if k < u.beat[best][u.cfg.Map[e]&15] {
			continue
		}
		if count := quantize(-math.Log(float64(k)*0x1p-53)/u.rate[e], u.res, u.maxCount); count < best {
			bestIdx, best = idx, count
		}
	}
	if best >= u.maxCount {
		// No circuit fired within the window: saturation flag set,
		// software keeps the current value (see Input.Current).
		return in.Current
	}
	return fixed.Label(bestIdx & fixed.MaxLabel)
}

// racePhysical is race in Physical mode: every channel runs the
// photon-level RET simulation, in down-counter order.
func (u *Unit) racePhysical(es *[fixed.MaxLabels]fixed.Energy, current fixed.Label, src *rng.Source) fixed.Label {
	bestIdx, bestCount := u.cfg.M-1, u.maxCount
	for idx := u.cfg.M - 1; idx >= 0; idx-- {
		ttf := u.cfg.Circuit.SampleTTF(uint8(u.cfg.Map[es[idx]]), u.window, src)
		if count := quantize(ttf, u.res, u.maxCount); count < bestCount {
			bestIdx, bestCount = idx, count
		}
	}
	if bestCount >= u.maxCount {
		return current
	}
	return fixed.Label(bestIdx & fixed.MaxLabel)
}

// SampleDistribution estimates by repeated sampling the label
// distribution the unit realizes for a fixed input — the quantity
// compared against the exact softmax in fidelity tests.
func (u *Unit) SampleDistribution(in Input, trials int, src *rng.Source) []float64 {
	counts := make([]int, u.cfg.M)
	for i := 0; i < trials; i++ {
		l, _ := u.Sample(in, src)
		counts[l]++
	}
	probs := make([]float64, u.cfg.M)
	for i, c := range counts {
		probs[i] = float64(c) / float64(trials)
	}
	return probs
}

// IdealConditional returns the exact distribution implied by the
// unit's quantized energies and LED ladder with *continuous* (ideal)
// first-to-fire: p(l) = rate(l) / Σ rate — i.e. everything but the TTF
// register quantization. Useful to separate the two quantization
// effects in ablations.
func (u *Unit) IdealConditional(in Input) []float64 {
	u.checkInput(&in)
	var es [fixed.MaxLabels]fixed.Energy
	u.energies(&in, &es)
	rates := make([]float64, u.cfg.M)
	sum := 0.0
	for idx := range rates {
		rates[idx] = u.rate[es[idx]]
		sum += rates[idx]
	}
	if sum == 0 {
		// All channels dark: the no-fire path keeps the current label.
		rates[in.Current] = 1
		return rates
	}
	for l := range rates {
		rates[l] /= sum
	}
	return rates
}
