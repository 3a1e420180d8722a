package mrf

import (
	"fmt"
	"math"

	"repro/internal/img"
)

// tables is the compiled fast path of a Model: the iteration-invariant
// parts of the conditional-energy computation, materialized once as
// int32 — the RSU-G's fixed-point integer energy domain — so the
// per-site inner loop is pure slice arithmetic with zero closure calls.
//
//   - ui caches the premultiplied unary (data) term
//     ui[(y*W+x)*M + l] = LambdaS * Singleton(x, y, l).
//     It depends only on the observation, not the chain state, so one
//     table serves every sweep of a run. Memory cost: W*H*M*4 bytes.
//   - di caches the premultiplied doubleton term indexed by the
//     *neighbor* label first, di[nl*M + l] = LambdaD * Doubleton(l, nl),
//     so accumulating one neighbor touches one contiguous M-row.
//   - diDiag is the diagonal-clique analogue for second-order models,
//     diDiag[nl*M + l] = LambdaDiag * Doubleton(l, nl).
//
// Tables exist only for models that pass the integer gate (see
// Compile): every entry is a non-negative integer <= maxRateLUT, so
// int32 holds it exactly and any sum of a site's at most nine entries
// is an exact float64 too. The table-driven float64 evaluators below
// therefore reproduce the closure path's sums bit for bit — a property
// the equivalence tests in internal/gibbs and internal/core rely on.
type tables struct {
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

	// expLUT caches exp(-k/expT) for every reachable integer energy gap
	// k = E(l) - minE, so the Boltzmann exponentiation collapses to a
	// table load. Entries are computed with math.Exp on the same
	// operands the direct path would pass, so LUT and direct evaluation
	// are bit-identical.
	expLUT []float64
	expT   float64
}

// maxRateLUT bounds the rate LUT to 2 MiB (entries are float64). The
// applications' 8-bit-domain energies stay far below it.
const maxRateLUT = 1 << 18

// Compile materializes the model's potential tables and switches
// SiteEnergy, ConditionalEnergies/Rates/Probs and TotalEnergy to the
// table-driven fast path (and enables the fused sweep Kernel). It costs
// W*H*M singleton evaluations up front and W*H*M*4 bytes of memory
// (plus the M×M doubleton and M³ pair tables).
//
// Only integer-energy models compile. Compile applies the integer gate
// entry by entry — every premultiplied potential must be a
// non-negative integer no larger than maxRateLUT, and the widest
// possible conditional-energy gap, span(U) + 4·span(D) [+ 4·span(DDiag)],
// must stay below maxRateLUT — and stops at the first failure. The
// model then has no tables: it stays on the closure path, Compiled
// reports false and Compile returns nil, because the closure path
// samples exactly what the tables would (this also drops any tables
// an earlier Compile left). All the paper's applications pass the gate.
//
// The temperature T may change freely after compiling (annealing only
// touches the exponentiation, see RetuneRateLUT), but changing W, H, M,
// Hood, the lambdas or the potential closures invalidates the tables:
// call Compile again.
func (m *Model) Compile() error {
	if err := m.Validate(); err != nil {
		return fmt.Errorf("mrf: cannot compile: %w", err)
	}
	m.tables = nil
	mm := m.M
	t := &tables{}
	var dSpan, gSpan int32
	var ok bool
	if t.di, dSpan, ok = m.doubletonTable(m.LambdaD); !ok {
		return nil
	}
	if m.Hood == SecondOrder {
		if t.diDiag, gSpan, ok = m.doubletonTable(m.LambdaDiag); !ok {
			return nil
		}
	}
	t.ui = make([]int32, m.W*m.H*mm)
	var uSpan int32
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			row := t.ui[(y*m.W+x)*mm:][:mm]
			for l := range row {
				v := m.LambdaS * m.Singleton(x, y, l)
				if !integerEntry(v) {
					return nil
				}
				row[l] = int32(v)
				uSpan = max(uSpan, row[l])
			}
		}
	}
	// The conditional-energy gap E(l)-minE of any site is bounded by
	// span(U) + 4·span(D) [+ 4·span(DDiag)].
	span := int(uSpan) + 4*int(dSpan) + 4*int(gSpan)
	if span+1 > maxRateLUT {
		return nil
	}
	t.expLUT = make([]float64, span+1)
	t.fillRateLUT(m.T)
	t.diPair = make([]int32, mm*mm*mm)
	for a := 0; a < mm; a++ {
		for b := 0; b < mm; b++ {
			row := t.diPair[(a*mm+b)*mm:][:mm]
			ra := t.di[a*mm:][:mm]
			rb := t.di[b*mm:][:mm]
			for l := range row {
				row[l] = ra[l] + rb[l]
			}
		}
	}
	m.tables = t
	return nil
}

// doubletonTable builds the neighbor-label-major table
// lambda*Doubleton(l, nl) at [nl*M + l] and returns its largest entry,
// or ok=false at the first entry that fails the integer gate.
func (m *Model) doubletonTable(lambda float64) (tab []int32, span int32, ok bool) {
	mm := m.M
	tab = make([]int32, mm*mm)
	for nl := 0; nl < mm; nl++ {
		for l := 0; l < mm; l++ {
			v := lambda * m.Doubleton(l, nl)
			if !integerEntry(v) {
				return nil, 0, false
			}
			tab[nl*mm+l] = int32(v)
			span = max(span, tab[nl*mm+l])
		}
	}
	return tab, span, true
}

// integerEntry is the per-entry integer gate: v is a non-negative
// integer no larger than maxRateLUT (so int32 holds it exactly).
func integerEntry(v float64) bool {
	//lint:ignore rsulint/floateq exact integrality gate: the int32 tables are only sound if v is precisely an integer float, so a tolerance here would be a bug
	return v >= 0 && v == math.Trunc(v) && v <= maxRateLUT
}

// fillRateLUT computes exp(-k/temp) for every entry of the rate LUT.
func (t *tables) fillRateLUT(temp float64) {
	for k := range t.expLUT {
		t.expLUT[k] = math.Exp(-float64(k) / temp)
	}
	t.expT = temp
}

// RetuneRateLUT rebuilds the compiled rate LUT for the model's current
// temperature. Annealed runs call this after each temperature step (at
// a point where no sweep is in flight); it is a no-op for uncompiled
// models or an unchanged temperature. While the LUT temperature and m.T
// disagree, ConditionalRates simply falls back to math.Exp, so
// forgetting to retune costs speed, never correctness.
func (m *Model) RetuneRateLUT() {
	t := m.tables
	//lint:ignore rsulint/floateq cache-key identity: expT stores the exact T the LUT was built from, so only bit-equality proves the table is current
	if t == nil || t.expT == m.T {
		return
	}
	t.fillRateLUT(m.T)
}

// Compiled reports whether the model currently serves the table-driven
// fast path.
func (m *Model) Compiled() bool { return m.tables != nil }

// fastConditionalEnergies is the table-driven ConditionalEnergies inner
// loop: one copy from the unary table plus one contiguous row-add per
// in-bounds neighbor, in the closure path's order.
func (m *Model) fastConditionalEnergies(buf []float64, lm *img.LabelMap, x, y int) {
	t := m.tables
	mm := m.M
	for l, uv := range t.ui[(y*m.W+x)*mm:][:mm] {
		buf[l] = float64(uv)
	}
	for _, off := range NeighborOffsets {
		nx, ny := x+off[0], y+off[1]
		if nx < 0 || nx >= m.W || ny < 0 || ny >= m.H {
			continue
		}
		nl := int(lm.Labels[ny*m.W+nx])
		for l, dv := range t.di[nl*mm:][:mm] {
			buf[l] += float64(dv)
		}
	}
	if m.Hood == SecondOrder {
		for _, off := range DiagonalOffsets {
			nx, ny := x+off[0], y+off[1]
			if nx < 0 || nx >= m.W || ny < 0 || ny >= m.H {
				continue
			}
			nl := int(lm.Labels[ny*m.W+nx])
			for l, dv := range t.diDiag[nl*mm:][:mm] {
				buf[l] += float64(dv)
			}
		}
	}
}

// fastSiteEnergy is the table-driven SiteEnergy: one unary load plus one
// table lookup per in-bounds neighbor, accumulated in the closure path's
// order.
func (m *Model) fastSiteEnergy(lm *img.LabelMap, x, y, label int) float64 {
	t := m.tables
	mm := m.M
	e := float64(t.ui[(y*m.W+x)*mm+label])
	for _, off := range NeighborOffsets {
		nx, ny := x+off[0], y+off[1]
		if nx < 0 || nx >= m.W || ny < 0 || ny >= m.H {
			continue
		}
		e += float64(t.di[int(lm.Labels[ny*m.W+nx])*mm+label])
	}
	if m.Hood == SecondOrder {
		for _, off := range DiagonalOffsets {
			nx, ny := x+off[0], y+off[1]
			if nx < 0 || nx >= m.W || ny < 0 || ny >= m.H {
				continue
			}
			e += float64(t.diDiag[int(lm.Labels[ny*m.W+nx])*mm+label])
		}
	}
	return e
}

// fastTotalEnergy is the table-driven TotalEnergy (same clique-counting
// convention and accumulation order as the closure path). The
// accumulator stays float64: a whole grid's energy can overflow int32.
func (m *Model) fastTotalEnergy(lm *img.LabelMap) float64 {
	t := m.tables
	mm := m.M
	e := 0.0
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			l := int(lm.Labels[y*m.W+x])
			e += float64(t.ui[(y*m.W+x)*mm+l])
			if x+1 < m.W {
				e += float64(t.di[int(lm.Labels[y*m.W+x+1])*mm+l])
			}
			if y+1 < m.H {
				e += float64(t.di[int(lm.Labels[(y+1)*m.W+x])*mm+l])
			}
			if m.Hood == SecondOrder && y+1 < m.H {
				if x+1 < m.W {
					e += float64(t.diDiag[int(lm.Labels[(y+1)*m.W+x+1])*mm+l])
				}
				if x-1 >= 0 {
					e += float64(t.diDiag[int(lm.Labels[(y+1)*m.W+x-1])*mm+l])
				}
			}
		}
	}
	return e
}
