package gibbs

import (
	"sync"

	"repro/internal/img"
	"repro/internal/mrf"
	"repro/internal/obs"
	"repro/internal/rng"
)

// engine is the high-throughput sweep machinery behind Run: a persistent
// worker pool plus color-strided site iteration for checkerboard sweeps.
//
// Three properties distinguish it from a naive per-iteration fan-out:
//
//   - Workers are goroutines created once per Run and fed row-span work
//     items over per-worker channels, instead of spawning
//     Colors()×Iterations×Workers goroutines over a chain's lifetime.
//     Each worker owns one Sampler (scratch buffers are per-worker).
//   - RNG streams are attached to *rows*, not workers: row y always
//     draws from rowSrc[y] regardless of which worker sweeps it, so a
//     seeded checkerboard chain produces byte-identical label maps for
//     any worker count (samplers hold only scratch state; the work
//     partition is deterministic either way).
//   - Within a row, the sites of the active color are visited by a
//     strided x += 2 loop derived from mrf.Neighborhood.RowStride
//     instead of testing ColorOf on all W pixels and skipping half.
//
// Writing site (x, y) during color c's pass never races with the reads
// of other sites of color c: every clique neighbor of a site has a
// different color, and only color-c sites are written during the pass.
type engine struct {
	m        *mrf.Model
	lm       *img.LabelMap
	samplers []Sampler
	rowSrc   []*rng.Source // len m.H; rowSrc[y] drives row y

	work []chan span    // one channel per worker; nil until start
	wg   sync.WaitGroup // open spans in the current color pass

	// kernel, when non-nil, is the fused packed-label fast path for
	// exact-Gibbs sweeps over a compiled integer-energy model. Checked
	// per span via Ready() so an annealing step whose LUT has not been
	// retuned falls back to the per-site path instead of serving stale
	// rates. Bit-identical to the per-site path by construction (see
	// mrf.Kernel), so engaging it changes no sampled label.
	kernel *mrf.Kernel

	// tileRows is the height of one work tile: enough rows that the
	// unary-table slice a tile touches stays inside an L2-sized budget,
	// so a worker's color pass streams each table row once instead of
	// thrashing. Tiles are whole-row bands — the tiling never splits a
	// row, so the row↔RNG-stream attachment (and with it worker-count
	// invariance) is untouched, and two workers never write label cache
	// lines of the same row. Tile i always goes to worker i%workers,
	// a partition that depends only on the grid, never on scheduling.
	tileRows int

	// rec receives color-phase timings; recorded only on the
	// coordinating goroutine (never inside sweepSpan) so workers stay
	// free of instrumentation on the per-site hot path.
	rec obs.Recorder
}

// span is one work item: sweep rows [y0, y1) for the given color.
type span struct {
	color, y0, y1 int
}

// newEngine wires an engine over chain state lm. len(samplers) sets the
// worker count; rowSrc must have one entry per row (entries may repeat
// a single source when len(samplers) == 1, e.g. to drive all rows from
// one sequential stream in tests).
func newEngine(m *mrf.Model, lm *img.LabelMap, samplers []Sampler, rowSrc []*rng.Source) *engine {
	e := &engine{m: m, lm: lm, samplers: samplers, rowSrc: rowSrc}
	// The fused kernel implements exactly the ExactGibbs update; any
	// other sampler (first-to-fire, Metropolis, fault-injection
	// wrappers) keeps the per-site dispatch path.
	if _, ok := samplers[0].(*ExactGibbs); ok {
		e.kernel = m.Kernel()
	}
	e.tileRows = tileRowsFor(m)
	return e
}

// tileL2Budget is the per-tile working-set budget. 256 KiB keeps the
// dominant stream — the unary energy table, M entries per site — plus
// three label rows and the doubleton tables resident in a typical
// 0.5–1 MiB L2 slice with room for the other streams.
const tileL2Budget = 256 << 10

// tileRowsFor sizes a row-band tile for the model: the largest row
// count whose unary-table footprint (W·M int32 entries, 4 bytes each,
// per row) fits the L2 budget, clamped to [1, H]. The tiling is a
// cache-locality choice only: RNG streams belong to rows, so any tile
// height samples the same labels.
func tileRowsFor(m *mrf.Model) int {
	rowBytes := m.W * m.M * 4
	rows := tileL2Budget / rowBytes
	if rows < 1 {
		return 1
	}
	if rows > m.H {
		return m.H
	}
	return rows
}

// start launches the persistent worker pool. It is a no-op for a single
// worker (sweeps then run on the calling goroutine).
func (e *engine) start() {
	if len(e.samplers) <= 1 {
		return
	}
	e.work = make([]chan span, len(e.samplers))
	// Buffer a full color pass worth of tiles per worker so the
	// coordinator never blocks feeding a busy worker while others idle.
	tiles := (e.m.H + e.tileRows - 1) / e.tileRows
	capPer := (tiles + len(e.samplers) - 1) / len(e.samplers)
	for w := range e.work {
		ch := make(chan span, capPer)
		e.work[w] = ch
		go func(w int, ch <-chan span) {
			for sp := range ch {
				e.sweepSpan(w, sp)
				e.wg.Done()
			}
		}(w, ch)
	}
}

// stop shuts the worker pool down. Safe to call when start spawned no
// workers; must not be called with a color pass in flight.
func (e *engine) stop() {
	for _, ch := range e.work {
		close(ch)
	}
	e.work = nil
}

// sweep performs one checkerboard iteration: every conditional-
// independence color class in turn, each class swept tile by tile in
// parallel by the pool (or inline for one worker).
//
// The color barrier (wg.Wait) is global, never per tile: a tile-local
// color0+color1 pass would read neighbor labels a W=1 chain has not
// produced yet and break worker-count invariance. Within a color the
// tile partition is a pure function of the grid — tile i covers rows
// [i*tileRows, ...) and runs on worker i%workers — so the labels are
// identical for every worker count (RNG streams belong to rows), and
// workers write disjoint whole-row bands.
func (e *engine) sweep() {
	colors := e.m.Hood.Colors()
	workers := len(e.samplers)
	H := e.m.H
	tile := e.tileRows
	for color := 0; color < colors; color++ {
		endPhase := obs.Span(e.rec, "gibbs.color_phase")
		if workers <= 1 {
			for y0 := 0; y0 < H; y0 += tile {
				e.sweepSpan(0, span{color, y0, min(y0+tile, H)})
			}
		} else {
			t := 0
			for y0 := 0; y0 < H; y0 += tile {
				e.wg.Add(1)
				e.work[t%workers] <- span{color, y0, min(y0+tile, H)}
				t++
			}
			e.wg.Wait()
		}
		endPhase()
	}
}

// sweepSpan updates every site of sp's color in rows [y0, y1) using
// worker w's sampler and the rows' own RNG streams.
//
//rsulint:hot
func (e *engine) sweepSpan(w int, sp span) {
	m, lm := e.m, e.lm
	if k := e.kernel; k != nil && k.Ready() {
		sc := mrf.GetScratch(m.M)
		for y := sp.y0; y < sp.y1; y++ {
			if x0, ok := m.Hood.RowStride(sp.color, y); ok {
				k.SweepRow(lm, y, x0, 2, e.rowSrc[y], sc)
			}
		}
		mrf.PutScratch(sc)
		return
	}
	s := e.samplers[w]
	for y := sp.y0; y < sp.y1; y++ {
		x0, ok := m.Hood.RowStride(sp.color, y)
		if !ok {
			continue
		}
		src := e.rowSrc[y]
		base := y * m.W
		for x := x0; x < m.W; x += 2 {
			lm.Labels[base+x] = uint8(s.SampleSite(m, lm, x, y, src))
		}
	}
}
