package gibbs

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/img"
	"repro/internal/mrf"
	"repro/internal/rng"
)

// engineModel builds an M-label segmentation-like model with a
// non-trivial data term, optionally second-order.
func engineModel(w, h, m int, hood mrf.Neighborhood) *mrf.Model {
	means := make([]int, m)
	for l := range means {
		means[l] = l * 63 / (m - 1)
	}
	return &mrf.Model{
		W: w, H: h, M: m,
		T:       9,
		LambdaS: 1, LambdaD: 2,
		Hood: hood, LambdaDiag: 1,
		Singleton: func(x, y, label int) float64 {
			obs := (x*7 + y*13) % 64
			d := float64(obs - means[label])
			return d * d
		},
		Doubleton: mrf.SquaredDiff,
	}
}

func mustRun(t *testing.T, m *mrf.Model, factory Factory, opt Options, seed uint64) *Result {
	t.Helper()
	init := img.NewLabelMap(m.W, m.H)
	res, err := Run(context.Background(), m, init, factory, opt, seed)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sameLabels(a, b *img.LabelMap) bool {
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			return false
		}
	}
	return true
}

// engineShape is one grid of the engine equivalence tests. The wide
// M=64 shape is sized so tileRowsFor splits it into several row-band
// tiles: that is the only shape on which a multi-worker color pass
// actually spreads work over the pool and leans on the color barrier.
// Subtests of a one-tile shape are unprefixed; the multi-tile shape's
// are prefixed with its name.
type engineShape struct {
	name               string
	w, h, m            int
	iterations, burnIn int
	multiTile          bool
}

var multiTileShape = engineShape{name: "341x20M64/", w: 341, h: 20, m: 64, iterations: 4, burnIn: 1, multiTile: true}

// shapeModel builds the shape's model and, for the multi-tile shape,
// checks that the tiling really yields more than one tile.
func shapeModel(t *testing.T, sh engineShape, hood mrf.Neighborhood) *mrf.Model {
	t.Helper()
	m := engineModel(sh.w, sh.h, sh.m, hood)
	if sh.multiTile && tileRowsFor(m) >= m.H {
		t.Fatalf("%dx%d M=%d: tileRowsFor=%d covers the grid in one tile", sh.w, sh.h, sh.m, tileRowsFor(m))
	}
	return m
}

// requireSameResult fails unless two runs agree byte for byte on the
// final labels, the MAP estimate and the energy trace.
func requireSameResult(t *testing.T, a, b *Result) {
	t.Helper()
	if !sameLabels(a.Final, b.Final) {
		t.Fatal("final labels diverged")
	}
	if !sameLabels(a.MAP, b.MAP) {
		t.Fatal("MAP diverged")
	}
	if len(a.EnergyTrace) != len(b.EnergyTrace) {
		t.Fatalf("energy trace lengths differ: %d vs %d", len(a.EnergyTrace), len(b.EnergyTrace))
	}
	for i := range a.EnergyTrace {
		if a.EnergyTrace[i] != b.EnergyTrace[i] {
			t.Fatalf("energy trace diverged at %d: %v vs %v", i, a.EnergyTrace[i], b.EnergyTrace[i])
		}
	}
}

var softwareFactories = map[string]Factory{
	"exact-gibbs":   NewExactGibbs(),
	"first-to-fire": NewFirstToFire(),
	"metropolis":    NewMetropolis(),
}

// TestCompiledPathByteIdentical: the compiled table path must reproduce
// the closure path's label maps byte for byte — for every software
// sampler kernel, both neighborhood orders, both schedules, and a grid
// that the engine splits into several tiles. (The RSU backend's leg of
// this equivalence lives in internal/core, which can import the
// application layer.)
func TestCompiledPathByteIdentical(t *testing.T) {
	for _, sh := range []engineShape{{w: 19, h: 17, m: 4, iterations: 12, burnIn: 4}, multiTileShape} {
		for _, hood := range []mrf.Neighborhood{mrf.FirstOrder, mrf.SecondOrder} {
			for _, sched := range []Schedule{Raster, Checkerboard} {
				for name, factory := range softwareFactories {
					t.Run(sh.name+fmt.Sprintf("%v/%v/%s", hood, sched, name), func(t *testing.T) {
						opt := Options{Iterations: sh.iterations, BurnIn: sh.burnIn, Schedule: sched, Workers: 3, TrackMode: true, RecordEnergyEvery: 1}
						slow := shapeModel(t, sh, hood)
						fast := shapeModel(t, sh, hood)
						if err := fast.Compile(); err != nil {
							t.Fatal(err)
						}
						requireSameResult(t, mustRun(t, slow, factory, opt, 99), mustRun(t, fast, factory, opt, 99))
					})
				}
			}
		}
	}
}

// TestNonIntegerModelsMatchClosurePath pins the models the integer gate
// rejects: a non-integral premultiplied singleton, and integral entries
// whose summed energy span is too wide for the rate LUT. Compiling such
// a model must leave the fused kernel off and change no sampled label,
// MAP estimate or energy-trace entry, for every software sampler and
// both schedules.
func TestNonIntegerModelsMatchClosurePath(t *testing.T) {
	models := map[string]func(hood mrf.Neighborhood) *mrf.Model{
		// Odd squared distances times 0.5 are not integers.
		"half-lambda": func(hood mrf.Neighborhood) *mrf.Model {
			m := engineModel(19, 17, 6, hood)
			m.LambdaS = 0.5
			return m
		},
		// Each doubleton entry is at most 3000·25 = 75000, but a site
		// sums four (or eight) of them: a span far above the LUT cap.
		"wide-span": func(hood mrf.Neighborhood) *mrf.Model {
			m := engineModel(19, 17, 6, hood)
			m.LambdaD, m.LambdaDiag, m.T = 3000, 3000, 20000
			return m
		},
	}
	for name, build := range models {
		for _, hood := range []mrf.Neighborhood{mrf.FirstOrder, mrf.SecondOrder} {
			for _, sched := range []Schedule{Raster, Checkerboard} {
				for fname, factory := range softwareFactories {
					t.Run(fmt.Sprintf("%s/%v/%v/%s", name, hood, sched, fname), func(t *testing.T) {
						opt := Options{Iterations: 10, BurnIn: 3, Schedule: sched, Workers: 3, TrackMode: true, RecordEnergyEvery: 1}
						slow, fast := build(hood), build(hood)
						if err := fast.Compile(); err != nil {
							t.Fatal(err)
						}
						if fast.Kernel() != nil {
							t.Fatal("fused kernel engaged on a model that fails the integer gate")
						}
						requireSameResult(t, mustRun(t, slow, factory, opt, 7), mustRun(t, fast, factory, opt, 7))
					})
				}
			}
		}
	}
}

// TestWorkerCountInvariance: with row-attached RNG streams, a seeded
// checkerboard chain must produce identical label maps for W=1 and
// W=NumCPU (and an awkward in-between count), compiled or not, on a
// one-tile grid and on a grid split into several tiles.
func TestWorkerCountInvariance(t *testing.T) {
	for _, sh := range []engineShape{{w: 33, h: 29, m: 5, iterations: 15, burnIn: 5}, multiTileShape} {
		for _, compiled := range []bool{false, true} {
			for _, hood := range []mrf.Neighborhood{mrf.FirstOrder, mrf.SecondOrder} {
				t.Run(sh.name+fmt.Sprintf("compiled=%v/%v", compiled, hood), func(t *testing.T) {
					m := shapeModel(t, sh, hood)
					if compiled {
						if err := m.Compile(); err != nil {
							t.Fatal(err)
						}
					}
					opt := Options{Iterations: sh.iterations, BurnIn: sh.burnIn, Schedule: Checkerboard, TrackMode: true}
					opt.Workers = 1
					serial := mustRun(t, m, NewExactGibbs(), opt, 4242)
					for _, w := range []int{3, runtime.NumCPU(), 64} {
						opt.Workers = w
						par := mustRun(t, m, NewExactGibbs(), opt, 4242)
						if !sameLabels(serial.Final, par.Final) {
							t.Fatalf("Workers=%d final labels differ from serial", w)
						}
						if !sameLabels(serial.MAP, par.MAP) {
							t.Fatalf("Workers=%d MAP differs from serial", w)
						}
					}
				})
			}
		}
	}
}

// TestEngineStridedCoverage: one engine sweep must update exactly the
// sites the schedule owns — the strided loop may not miss or duplicate
// a site of either color class.
func TestEngineStridedCoverage(t *testing.T) {
	for _, hood := range []mrf.Neighborhood{mrf.FirstOrder, mrf.SecondOrder} {
		m := engineModel(11, 7, 3, hood)
		visited := img.NewLabelMap(m.W, m.H)
		counter := &countingSampler{hits: visited}
		eng := newEngine(m, img.NewLabelMap(m.W, m.H), []Sampler{counter}, rowRepeat(m.H))
		eng.sweep()
		for y := 0; y < m.H; y++ {
			for x := 0; x < m.W; x++ {
				if got := visited.At(x, y); got != 1 {
					t.Fatalf("%v: site (%d,%d) visited %d times", hood, x, y, got)
				}
			}
		}
	}
}

// TestRowStrideMatchesColorOf: the strided iteration must enumerate
// exactly the ColorOf classes.
func TestRowStrideMatchesColorOf(t *testing.T) {
	for _, hood := range []mrf.Neighborhood{mrf.FirstOrder, mrf.SecondOrder} {
		for color := 0; color < hood.Colors(); color++ {
			for y := 0; y < 6; y++ {
				inRow := map[int]bool{}
				if x0, ok := hood.RowStride(color, y); ok {
					for x := x0; x < 9; x += 2 {
						inRow[x] = true
					}
				}
				for x := 0; x < 9; x++ {
					want := hood.ColorOf(x, y) == color
					if inRow[x] != want {
						t.Fatalf("%v color %d row %d x %d: strided=%v colorOf=%v",
							hood, color, y, x, inRow[x], want)
					}
				}
			}
		}
	}
}

// countingSampler records site visits instead of sampling.
type countingSampler struct{ hits *img.LabelMap }

func (c *countingSampler) Name() string { return "counting" }

func (c *countingSampler) SampleSite(m *mrf.Model, lm *img.LabelMap, x, y int, src *rng.Source) int {
	c.hits.Labels[y*m.W+x]++
	return lm.At(x, y)
}

func rowRepeat(h int) []*rng.Source {
	srcs := make([]*rng.Source, h)
	for i := range srcs {
		srcs[i] = rng.New(uint64(i))
	}
	return srcs
}
