package rsu

import (
	"math"
	"testing"

	"repro/internal/fixed"
	"repro/internal/ret"
	"repro/internal/rng"
)

// referenceSample is Sample as it stood before the table-driven energy
// stage: per label, one Energy call, one map lookup, one
// src.Exponential (or photon-level SampleTTF) draw and the TTF-register
// quantization, in down-counter order. It is frozen here as the oracle
// of TestSampleMatchesReferenceStream; do not route it through the
// unit's tables.
func referenceSample(u *Unit, in Input, src *rng.Source) fixed.Label {
	quantize := func(ttf float64) uint32 {
		if ttf < 0 {
			return 0
		}
		ticks := ttf / u.timer.Resolution()
		if math.IsNaN(ticks) || ticks >= float64(u.timer.MaxCount()) {
			return u.timer.MaxCount()
		}
		return uint32(ticks)
	}
	window := u.timer.Window()
	bestIdx := u.cfg.M - 1
	bestCount := u.timer.MaxCount()
	first := true
	for idx := u.cfg.M - 1; idx >= 0; idx-- {
		e := u.Energy(in, idx)
		code := u.cfg.Map[e]
		var ttf float64
		switch u.cfg.Mode {
		case Physical:
			ttf = u.cfg.Circuit.SampleTTF(uint8(code), window, src)
		default:
			rate := u.levels[code]
			if rate <= 0 {
				ttf = math.Inf(1)
			} else {
				ttf = src.Exponential(rate)
			}
		}
		count := quantize(ttf)
		if first || count < bestCount {
			bestIdx, bestCount = idx, count
			first = false
		}
	}
	if bestCount >= u.timer.MaxCount() {
		return in.Current
	}
	return fixed.NewLabel(bestIdx)
}

// motionCodes is the 7×7 motion window's label-decode ROM: index l maps
// to the packed (dy+3, dx+3) vector code, 49 of the 64 codes.
func motionCodes() []fixed.Label {
	codes := make([]fixed.Label, 0, 49)
	for dy := uint8(0); dy < 7; dy++ {
		for dx := uint8(0); dx < 7; dx++ {
			codes = append(codes, fixed.PackVec(dy, dx))
		}
	}
	return codes
}

// stageShape is one energy-stage configuration under test.
type stageShape struct {
	name     string
	m        int
	vector   bool
	diagonal bool
	labels   []fixed.Label
}

var stageShapes = []stageShape{
	{name: "scalar", m: 8},
	{name: "scalar-m64", m: 64},
	{name: "scalar-diag", m: 8, diagonal: true},
	{name: "vector", m: 64, vector: true},
	{name: "vector-diag", m: 64, vector: true, diagonal: true},
	{name: "vector-rom", m: 49, vector: true, labels: motionCodes()},
	{name: "vector-rom-diag", m: 49, vector: true, diagonal: true, labels: motionCodes()},
}

func stageUnit(t testing.TB, sh stageShape, wd, ws, wg uint8, mode SamplingMode, width int, circuit *ret.Circuit) *Unit {
	t.Helper()
	u, err := New(Config{
		M: sh.m, Width: width, Vector: sh.vector,
		DoubletonWeight: wd, SingletonWeight: ws,
		Diagonal: sh.diagonal, DiagonalWeight: wg,
		ClockHz: 1e9, Mode: mode, Circuit: circuit, Labels: sh.labels,
	})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// singletonForms returns one input per singleton form (constant Data2,
// Data2PerLabel, SingletonPerLabel) around the given neighbor registers.
// Data values run past 6 bits so the datapath masking is exercised.
func singletonForms(m int, n int, src *rng.Source) []Input {
	nbrs := [4]fixed.Label{
		fixed.Label(n & fixed.MaxLabel), fixed.Label((n*5 + 1) & fixed.MaxLabel),
		fixed.Label((63 - n) & fixed.MaxLabel), fixed.Label((n*11 + 7) & fixed.MaxLabel),
	}
	diag := [4]fixed.Label{
		fixed.Label((n + 32) & fixed.MaxLabel), fixed.Label((n*3 + 2) & fixed.MaxLabel),
		fixed.Label((n*7 + 5) & fixed.MaxLabel), fixed.Label((n * 13) & fixed.MaxLabel),
	}
	d2 := make([]uint8, m)
	sing := make([]fixed.Energy, m)
	for i := range d2 {
		d2[i] = uint8(src.Intn(256))
		sing[i] = fixed.Energy(src.Intn(256) & fixed.MaxEnergy)
	}
	base := Input{Neighbors: nbrs, NeighborsDiag: diag, Data1: uint8(n*4 + 3), Data2: uint8(n * 9)}
	perLabel, external := base, base
	perLabel.Data2PerLabel = d2
	external.SingletonPerLabel = sing
	return []Input{base, perLabel, external}
}

// checkStage asserts energies == Energy for every label of every input
// form and every neighbor code in every register slot, and that the
// rate table matches the installed map.
func checkStage(t *testing.T, u *Unit, src *rng.Source) {
	t.Helper()
	for e, code := range u.cfg.Map {
		//lint:ignore rsulint/floateq the rate table must be a bit-exact copy of the ladder rung
		if u.rate[e] != u.levels[code] {
			t.Fatalf("rate[%d] = %v, want levels[%d] = %v", e, u.rate[e], code, u.levels[code])
		}
	}
	var es [fixed.MaxLabels]fixed.Energy
	for n := 0; n <= fixed.MaxLabel; n++ {
		for _, in := range singletonForms(u.cfg.M, n, src) {
			u.energies(&in, &es)
			for idx := 0; idx < u.cfg.M; idx++ {
				if want := u.Energy(in, idx); es[idx] != want {
					t.Fatalf("code %d label %d input %+v: table stage %d, Energy %d", n, idx, in, es[idx], want)
				}
			}
		}
	}
}

// TestEnergyStageMatchesEnergy: the table-driven stage equals the
// per-label §5.2 description for scalar and vector labels, with and
// without the diagonal registers and the label-decode ROM, for every
// singleton form and weights that drive both the per-term multiply and
// the final clamp into saturation — before and after map reloads
// through SetMap and the Driver's ThresholdMap path.
func TestEnergyStageMatchesEnergy(t *testing.T) {
	circuit := ret.DefaultLadderCircuit(rng.New(5))
	src := rng.New(6)
	weights := []uint8{0, 1, 8, 255}
	for _, sh := range stageShapes {
		for _, wd := range weights {
			for _, ws := range weights {
				wg := weights[(int(wd)+int(ws))%len(weights)]
				u := stageUnit(t, sh, wd, ws, wg, Ideal, 1, circuit)
				checkStage(t, u, src)
			}
		}
		u := stageUnit(t, sh, 8, 1, 255, Ideal, 1, circuit)
		lut, err := BuildIntensityMap(u.Levels(), 12)
		if err != nil {
			t.Fatal(err)
		}
		u.SetMap(lut)
		checkStage(t, u, src)

		hot, err := BuildIntensityMap(u.Levels(), 90)
		if err != nil {
			t.Fatal(err)
		}
		tm, err := CompressMap(hot)
		if err != nil {
			t.Fatal(err)
		}
		d := NewDriver(u)
		if err := d.Init(tm); err != nil {
			t.Fatal(err)
		}
		if u.cfg.Map == lut {
			t.Fatal("Driver.Init did not load a new map")
		}
		checkStage(t, u, src)
	}
}

// darkCodes returns the LED codes whose rung is dark.
func darkCodes(t *testing.T, u *Unit) []fixed.Intensity {
	t.Helper()
	var dark []fixed.Intensity
	for c, l := range u.levels {
		if l <= 0 {
			dark = append(dark, fixed.NewIntensity(c))
		}
	}
	if len(dark) == 0 {
		t.Fatal("ladder has no dark rung to test")
	}
	return dark
}

// testMaps returns the maps the stream test cycles through: a tuned
// LUT (which maps high energies to the dark rung), a hot LUT (T=90,
// which lights most energies, so many channels race and the beat table
// skips most of them), a random map mixing dark and lit codes, and an
// all-dark map.
func testMaps(t *testing.T, u *Unit, src *rng.Source) []IntensityMap {
	t.Helper()
	lut, err := BuildIntensityMap(u.Levels(), 6)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := BuildIntensityMap(u.Levels(), 90)
	if err != nil {
		t.Fatal(err)
	}
	dark := darkCodes(t, u)
	var mixed, allDark IntensityMap
	for e := range mixed {
		if src.Bernoulli(0.4) {
			mixed[e] = dark[src.Intn(len(dark))]
		} else {
			mixed[e] = fixed.NewIntensity(src.Intn(16))
		}
		allDark[e] = dark[0]
	}
	return []IntensityMap{lut, hot, mixed, allDark}
}

// TestSampleMatchesReferenceStream: Sample returns the same label as
// the frozen pre-table loop and leaves the RNG in the same state, for
// random inputs in Ideal and Physical mode, widths 1/4/64, maps with
// dark rungs and all-dark sites.
func TestSampleMatchesReferenceStream(t *testing.T) {
	gen := rng.New(21)
	for _, mode := range []SamplingMode{Ideal, Physical} {
		trials := 300
		if mode == Physical {
			trials = 12
		}
		for _, width := range []int{1, 4, 64} {
			for _, sh := range stageShapes {
				circuit := ret.DefaultLadderCircuit(rng.New(uint64(width)))
				u := stageUnit(t, sh, uint8(1+gen.Intn(4)), 1, 1, mode, width, circuit)
				for mi, m := range testMaps(t, u, gen) {
					u.SetMap(m)
					for i := 0; i < trials; i++ {
						forms := singletonForms(sh.m, gen.Intn(64), gen)
						in := forms[gen.Intn(len(forms))]
						in.Current = fixed.NewLabel(gen.Intn(sh.m))
						seed := gen.Uint64()
						a, b := rng.New(seed), rng.New(seed)
						got, timing := u.Sample(in, a)
						want := referenceSample(u, in, b)
						if got != want || a.State() != b.State() {
							t.Fatalf("%v w=%d %s map %d trial %d: label %d vs reference %d (state equal: %v)",
								mode, width, sh.name, mi, i, got, want, a.State() == b.State())
						}
						if timing != u.EvalTiming() || timing != evalTiming(u.cfg) {
							t.Fatalf("timing %+v, want %+v", timing, evalTiming(u.cfg))
						}
					}
				}
			}
		}
	}
}

// drawCount is the count expression race evaluates for the draw
// k = Uint64()>>11 on a rung of the given rate: Float64Open's value
// k·2⁻⁵³ through src.Exponential's logarithm and the TTF register.
func drawCount(u *Unit, k uint64, rate float64) uint32 {
	return u.timer.Quantize(-math.Log(float64(k)*0x1p-53) / rate)
}

// oddRungUnit returns a unit whose ladder holds the rungs the beat
// table's special cases cover: +Inf, NaN, a vanishing 1e-300 and an
// overwhelming 1e15 rate, beside ordinary lit and dark rungs.
func oddRungUnit(t testing.TB) *Unit {
	t.Helper()
	u := stageUnit(t, stageShape{m: 8}, 1, 1, 1, Ideal, 1, ret.DefaultLadderCircuit(rng.New(3)))
	u.levels[3] = math.Inf(1)
	u.levels[5] = math.NaN()
	u.levels[7] = 1e-300
	u.levels[9] = 1e15
	u.levels[11] = -1
	u.buildBeats()
	u.buildRates()
	return u
}

// TestBeatTableIsSafeAndTight: for every lit rung and every count n in
// 1..255, each draw k below beat[n][code] — at beat−1, on the 2¹²
// values below it, and on random k — counts ≥ n under the original
// expression, so race skips only draws that cannot win. The bound also
// sits within 2⁻²⁰ (or one draw) of the bisected true boundary, so the
// skip really fires.
func TestBeatTableIsSafeAndTight(t *testing.T) {
	units := []struct {
		name string
		u    *Unit
	}{
		{"ladder", stageUnit(t, stageShape{m: 8}, 1, 1, 1, Ideal, 1, ret.DefaultLadderCircuit(rng.New(1)))},
		{"binary", stageUnit(t, stageShape{m: 8}, 1, 1, 1, Ideal, 1, ret.DefaultCircuit(rng.New(2)))},
		{"odd", oddRungUnit(t)},
	}
	const top = uint64(1) << 53 // draws k lie in [1, 2⁵³)
	src := rng.New(77)
	for _, tu := range units {
		name, u := tu.name, tu.u
		for code, rate := range u.levels {
			if rate <= 0 {
				continue // dark: never raced
			}
			for n := 0; n < len(u.beat); n++ {
				if n == 0 || math.IsNaN(rate) {
					if u.beat[n][code] != math.MaxUint64 {
						t.Fatalf("%s code %d n=%d: beat %d, want MaxUint64", name, code, n, u.beat[n][code])
					}
					if math.IsNaN(rate) && drawCount(u, 1+src.Uint64()%(top-1), rate) != u.maxCount {
						t.Fatalf("%s code %d: NaN rung did not saturate", name, code)
					}
					continue
				}
				b := min(u.beat[n][code], top)
				for k := b - 1; b > 1 && k >= 1 && b-k <= 1+1<<12; k-- { // beat−1 and the 2¹² below it
					if c := drawCount(u, k, rate); c < uint32(n) {
						t.Fatalf("%s code %d (rate %v) n=%d: k=%d below beat %d counts %d", name, code, rate, n, k, b, c)
					}
				}
				// The true boundary: the smallest k whose count is
				// below n (top when none is).
				lo, hi := uint64(1), top
				for lo < hi {
					if mid := lo + (hi-lo)/2; drawCount(u, mid, rate) >= uint32(n) {
						lo = mid + 1
					} else {
						hi = mid
					}
				}
				if b > lo || float64(lo-b) > float64(lo)*0x1p-20+1 {
					t.Fatalf("%s code %d (rate %v) n=%d: beat %d, true boundary %d", name, code, rate, n, b, lo)
				}
			}
			for i := 0; i < 100000; i++ {
				n := 1 + src.Intn(len(u.beat)-1)
				b := min(u.beat[n][code], top)
				if b <= 1 {
					continue
				}
				k := 1 + src.Uint64()%(b-1)
				if c := drawCount(u, k, rate); c < uint32(n) {
					t.Fatalf("%s code %d (rate %v) n=%d: random k=%d below beat %d counts %d", name, code, rate, n, k, b, c)
				}
			}
		}
	}
}

// TestOddRungsMatchReferenceStream: Sample on a ladder with +Inf, NaN,
// vanishing, overwhelming and negative rungs returns the frozen
// reference loop's label and leaves the RNG in the same state, under
// random maps that reach every rung.
func TestOddRungsMatchReferenceStream(t *testing.T) {
	u := oddRungUnit(t)
	gen := rng.New(88)
	for mi := 0; mi < 8; mi++ {
		var m IntensityMap
		for e := range m {
			m[e] = fixed.NewIntensity(gen.Intn(16))
		}
		u.SetMap(m)
		for i := 0; i < 2000; i++ {
			forms := singletonForms(u.cfg.M, gen.Intn(64), gen)
			in := forms[gen.Intn(len(forms))]
			in.Current = fixed.NewLabel(gen.Intn(u.cfg.M))
			seed := gen.Uint64()
			a, b := rng.New(seed), rng.New(seed)
			got, _ := u.Sample(in, a)
			if want := referenceSample(u, in, b); got != want || a.State() != b.State() {
				t.Fatalf("map %d trial %d: label %d vs reference %d (state equal: %v)", mi, i, got, want, a.State() == b.State())
			}
		}
	}
}
