package mrf

import (
	"fmt"
	"math"

	"repro/internal/img"
)

// tables is the compiled fast path of a Model: the iteration-invariant
// parts of the conditional-energy computation, materialized once so the
// per-site inner loop is pure slice arithmetic with zero closure calls.
//
//   - U caches the premultiplied unary (data) term
//     U[(y*W+x)*M + l] = LambdaS * Singleton(x, y, l).
//     It depends only on the observation, not the chain state, so one
//     table serves every sweep of a run. Memory cost: W*H*M*8 bytes.
//   - D caches the premultiplied doubleton term indexed by the
//     *neighbor* label first, D[nl*M + l] = LambdaD * Doubleton(l, nl),
//     so accumulating one neighbor touches one contiguous M-row.
//   - DDiag is the diagonal-clique analogue for second-order models,
//     DDiag[nl*M + l] = LambdaDiag * Doubleton(l, nl).
//
// Every cached entry is the exact product the closure path computes, and
// the table path accumulates them in the same order, so compiled and
// uncompiled evaluation are bit-identical — a property the equivalence
// tests in internal/gibbs and internal/core rely on.
type tables struct {
	u     []float64
	d     []float64
	dDiag []float64

	// expLUT caches exp(-k/expT) for integer energy gaps k. All the
	// paper's applications define their potentials in the RSU's integer
	// fixed-point domain, so every conditional-energy gap (E(l) - minE)
	// is an exact small integer float and the Boltzmann exponentiation
	// collapses to a table load. Entries are computed with math.Exp on
	// the same operands the direct path would pass, so LUT and direct
	// evaluation are bit-identical. Nil when any table entry is
	// non-integral (or negative), or the energy range exceeds
	// maxRateLUT.
	expLUT []float64
	expT   float64

	// ui/di/diDiag mirror u/d/dDiag quantized to int32 — the packed
	// energy domain of the fused sweep kernel (see kernel.go). They are
	// built only when the integer gate that enables expLUT passes, so
	// every entry is an exact small integer and int32 accumulation
	// produces the same energies (and therefore, through the shared
	// LUT, bit-identical rates) as the float64 path. Halving the entry
	// width halves the unary table's memory traffic, which dominates
	// the sweep's bandwidth cost.
	ui     []int32
	di     []int32
	diDiag []int32

	// diPair folds two doubleton lookups into one:
	// diPair[(a*M+b)*M + l] = di[a*M+l] + di[b*M+l]. An interior
	// first-order site then gathers u + pair(left,right) + pair(up,down)
	// — three table streams instead of five, two adds instead of four.
	// Integer addition is exact, so the folded sums equal the unfolded
	// ones. Size M^3 int32 (16 KiB at M=16, 1 MiB at the M=64 cap).
	diPair []int32
}

// maxRateLUT bounds the rate LUT to 2 MiB (entries are float64). The
// applications' 8-bit-domain energies stay far below it; a model whose
// integer energy range exceeds the cap simply keeps calling math.Exp.
const maxRateLUT = 1 << 18

// Compile materializes the model's potential tables and switches
// SiteEnergy, ConditionalEnergies/Rates/Probs and TotalEnergy to the
// table-driven fast path. It costs W*H*M singleton evaluations up front
// and W*H*M*8 bytes of memory (plus two M×M doubleton tables).
//
// The temperature T may change freely after compiling (annealing only
// touches the exponentiation, never the tables), but changing W, H, M,
// Hood, the lambdas or the potential closures invalidates the tables:
// call Compile again, or Decompile to fall back to the closure path.
func (m *Model) Compile() error {
	if err := m.Validate(); err != nil {
		return fmt.Errorf("mrf: cannot compile: %w", err)
	}
	t := &tables{
		u: make([]float64, m.W*m.H*m.M),
		d: make([]float64, m.M*m.M),
	}
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			base := (y*m.W + x) * m.M
			for l := 0; l < m.M; l++ {
				t.u[base+l] = m.LambdaS * m.Singleton(x, y, l)
			}
		}
	}
	for nl := 0; nl < m.M; nl++ {
		for l := 0; l < m.M; l++ {
			t.d[nl*m.M+l] = m.LambdaD * m.Doubleton(l, nl)
		}
	}
	if m.Hood == SecondOrder {
		t.dDiag = make([]float64, m.M*m.M)
		for nl := 0; nl < m.M; nl++ {
			for l := 0; l < m.M; l++ {
				t.dDiag[nl*m.M+l] = m.LambdaDiag * m.Doubleton(l, nl)
			}
		}
	}
	t.buildRateLUT(m.T)
	if t.expLUT != nil {
		// The integer gate passed: every table entry is a non-negative
		// integer <= maxRateLUT, so int32 holds it exactly.
		t.ui = quantizeInt32(t.u)
		t.di = quantizeInt32(t.d)
		if t.dDiag != nil {
			t.diDiag = quantizeInt32(t.dDiag)
		}
		t.diPair = make([]int32, m.M*m.M*m.M)
		for a := 0; a < m.M; a++ {
			for b := 0; b < m.M; b++ {
				row := t.diPair[(a*m.M+b)*m.M:]
				ra := t.di[a*m.M : (a+1)*m.M]
				rb := t.di[b*m.M : (b+1)*m.M]
				for l := 0; l < m.M; l++ {
					row[l] = ra[l] + rb[l]
				}
			}
		}
	}
	m.tables = t
	return nil
}

// quantizeInt32 copies integer-valued float64 energies into the packed
// int32 domain. Callers must have passed vals through integerSpan.
func quantizeInt32(vals []float64) []int32 {
	out := make([]int32, len(vals))
	for i, v := range vals {
		out[i] = int32(v)
	}
	return out
}

// buildRateLUT materializes exp(-k/T) for every reachable integer
// energy gap, when the model's energies are integral (see tables).
func (t *tables) buildRateLUT(temp float64) {
	span, ok := integerSpan(t.u)
	if !ok {
		return
	}
	dSpan, dOK := integerSpan(t.d)
	if !dOK {
		return
	}
	span += 4 * dSpan
	if t.dDiag != nil {
		gSpan, gOK := integerSpan(t.dDiag)
		if !gOK {
			return
		}
		span += 4 * gSpan
	}
	if span+1 > maxRateLUT {
		return
	}
	if len(t.expLUT) != span+1 {
		t.expLUT = make([]float64, span+1)
	}
	for k := range t.expLUT {
		t.expLUT[k] = math.Exp(-float64(k) / temp)
	}
	t.expT = temp
}

// integerSpan returns the maximum entry of vals if every entry is a
// non-negative integer (ok=false otherwise). The conditional-energy gap
// E(l)-minE of any site is bounded by span(U) + 4·span(D) [+ 4·span(DDiag)],
// and integer energies make every gap an exact integer float.
func integerSpan(vals []float64) (span int, ok bool) {
	maxV := 0.0
	for _, v := range vals {
		//lint:ignore rsulint/floateq exact integrality gate: the LUT fast path is only sound if v is precisely an integer float, so a tolerance here would be a bug
		if !(v >= 0) || v != math.Trunc(v) || v > maxRateLUT {
			return 0, false
		}
		if v > maxV {
			maxV = v
		}
	}
	return int(maxV), true
}

// RetuneRateLUT rebuilds the compiled rate LUT for the model's current
// temperature. Annealed runs call this after each temperature step (at
// a point where no sweep is in flight); it is a no-op for uncompiled
// models, models without a LUT, or an unchanged temperature. While the
// LUT temperature and m.T disagree, ConditionalRates simply falls back
// to math.Exp, so forgetting to retune costs speed, never correctness.
func (m *Model) RetuneRateLUT() {
	t := m.tables
	//lint:ignore rsulint/floateq cache-key identity: expT stores the exact T the LUT was built from, so only bit-equality proves the table is current
	if t == nil || t.expLUT == nil || t.expT == m.T {
		return
	}
	for k := range t.expLUT {
		t.expLUT[k] = math.Exp(-float64(k) / m.T)
	}
	t.expT = m.T
}

// Compiled reports whether the model currently serves the table-driven
// fast path.
func (m *Model) Compiled() bool { return m.tables != nil }

// Decompile drops the compiled tables, returning the model to the
// closure path and releasing the W*H*M*8-byte unary table.
func (m *Model) Decompile() { m.tables = nil }

// fastConditionalEnergies is the table-driven ConditionalEnergies inner
// loop: one copy from the unary table plus one contiguous row-add per
// in-bounds neighbor.
func (m *Model) fastConditionalEnergies(buf []float64, lm *img.LabelMap, x, y int) {
	t := m.tables
	mm := m.M
	copy(buf, t.u[(y*m.W+x)*mm:(y*m.W+x+1)*mm])
	for _, off := range NeighborOffsets {
		nx, ny := x+off[0], y+off[1]
		if nx < 0 || nx >= m.W || ny < 0 || ny >= m.H {
			continue
		}
		nl := int(lm.Labels[ny*m.W+nx])
		row := t.d[nl*mm : (nl+1)*mm]
		for l, dv := range row {
			buf[l] += dv
		}
	}
	if m.Hood == SecondOrder {
		for _, off := range DiagonalOffsets {
			nx, ny := x+off[0], y+off[1]
			if nx < 0 || nx >= m.W || ny < 0 || ny >= m.H {
				continue
			}
			nl := int(lm.Labels[ny*m.W+nx])
			row := t.dDiag[nl*mm : (nl+1)*mm]
			for l, dv := range row {
				buf[l] += dv
			}
		}
	}
}

// fastSiteEnergy is the table-driven SiteEnergy: one unary load plus one
// table lookup per in-bounds neighbor, accumulated in the closure path's
// order so the result is bit-identical.
func (m *Model) fastSiteEnergy(lm *img.LabelMap, x, y, label int) float64 {
	t := m.tables
	mm := m.M
	e := t.u[(y*m.W+x)*mm+label]
	for _, off := range NeighborOffsets {
		nx, ny := x+off[0], y+off[1]
		if nx < 0 || nx >= m.W || ny < 0 || ny >= m.H {
			continue
		}
		e += t.d[int(lm.Labels[ny*m.W+nx])*mm+label]
	}
	if m.Hood == SecondOrder {
		for _, off := range DiagonalOffsets {
			nx, ny := x+off[0], y+off[1]
			if nx < 0 || nx >= m.W || ny < 0 || ny >= m.H {
				continue
			}
			e += t.dDiag[int(lm.Labels[ny*m.W+nx])*mm+label]
		}
	}
	return e
}

// fastTotalEnergy is the table-driven TotalEnergy (same clique-counting
// convention and accumulation order as the closure path).
func (m *Model) fastTotalEnergy(lm *img.LabelMap) float64 {
	t := m.tables
	mm := m.M
	e := 0.0
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			l := int(lm.Labels[y*m.W+x])
			e += t.u[(y*m.W+x)*mm+l]
			if x+1 < m.W {
				e += t.d[int(lm.Labels[y*m.W+x+1])*mm+l]
			}
			if y+1 < m.H {
				e += t.d[int(lm.Labels[(y+1)*m.W+x])*mm+l]
			}
			if m.Hood == SecondOrder && y+1 < m.H {
				if x+1 < m.W {
					e += t.dDiag[int(lm.Labels[(y+1)*m.W+x+1])*mm+l]
				}
				if x-1 >= 0 {
					e += t.dDiag[int(lm.Labels[(y+1)*m.W+x-1])*mm+l]
				}
			}
		}
	}
	return e
}
