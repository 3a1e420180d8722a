package mrf

import (
	"math"
	"sync"

	"repro/internal/img"
	"repro/internal/rng"
)

// Kernel is the fused packed-label sweep fast path: a whole color-row
// of exact-Gibbs updates in one call, with no per-site interface
// dispatch, int32 energy accumulation over the compiled tables
// (tables.ui/di/diPair/diDiag), rate lookup through the compiled exp
// LUT, and a branch-free categorical draw.
//
// Every step is constructed to be bit-identical to the generic path
// (ConditionalRates + Source.CategoricalRates):
//
//   - the energies are exact small integers, so int32 sums equal the
//     float64 sums the closure path computes, in any order —
//     which also licenses folding neighbor pairs through diPair;
//   - the minimum-energy subtraction yields the same integer gap, and
//     expLUT[k] is computed by math.Exp on the same operand the direct
//     path would pass;
//   - the rate total and the cumulative draw scan accumulate in the
//     reference order (those sums are NOT reassociated — float64
//     addition is order-sensitive), and the draw consumes a single
//     Float64 per site in site order, selecting the same index as
//     CategoricalRates (see Source.CategoricalRatesBranchfree).
//
// The worker-count-invariance and compiled-vs-closure equivalence
// tests in internal/gibbs exercise exactly this identity.
type Kernel struct {
	m *Model
}

// Kernel returns the fused sweep kernel for a compiled model, or nil
// when the model is on the closure path (never compiled, or its
// energies failed Compile's integer gate). The kernel reads the
// model's live tables, so Compile and RetuneRateLUT after this call are
// observed; gate each sweep on Ready.
func (m *Model) Kernel() *Kernel {
	if m.tables == nil {
		return nil
	}
	return &Kernel{m: m}
}

// Ready reports whether the kernel can serve draws right now: the
// tables still exist and the rate LUT matches the model's current
// temperature (annealing retunes the LUT between sweeps; a stale LUT
// means the generic path must run instead).
func (k *Kernel) Ready() bool {
	t := k.m.tables
	//lint:ignore rsulint/floateq cache-key identity: expT stores the exact T the LUT was built from, so only bit-equality proves the table is current
	return t != nil && t.expT == k.m.T
}

// Scratch is the per-tile working memory of a kernel sweep: one int32
// energy row and one float64 rate row, both of length M. Acquire with
// GetScratch once per tile/span (not per site — the pool round-trip
// would dominate a site update) and return it with PutScratch.
type Scratch struct {
	e     []int32
	rates []float64
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch returns kernel scratch sized for m labels, recycled
// through a sync.Pool so steady-state sweeps allocate nothing.
func GetScratch(m int) *Scratch {
	sc := scratchPool.Get().(*Scratch)
	if cap(sc.e) < m {
		sc.e = make([]int32, m)
		sc.rates = make([]float64, m)
	}
	sc.e = sc.e[:m]
	sc.rates = sc.rates[:m]
	return sc
}

// PutScratch returns scratch to the pool.
func PutScratch(sc *Scratch) { scratchPool.Put(sc) }

// SweepRow resamples sites (x0, y), (x0+stride, y), ... in place using
// src. Checkerboard passes use stride 2 with x0 from RowStride; raster
// passes use x0=0, stride 1 (the kernel reads each left neighbor after
// it was re-sampled, preserving the sequential-chain semantics). The
// caller must hold the conditional-independence contract for parallel
// use and must have checked Ready.
//
//rsulint:hot
func (k *Kernel) SweepRow(lm *img.LabelMap, y, x0, stride int, src *rng.Source, sc *Scratch) {
	m := k.m
	labels := lm.Labels
	if y > 0 && y+1 < m.H && m.tables.diDiag == nil {
		k.sweepRowFirstOrder(labels, src, sc, y, x0, stride)
		return
	}
	for x := x0; x < m.W; x += stride {
		k.sampleSite(labels, src, sc, x, y)
	}
}

// sweepRowFirstOrder is the hot path: a first-order row with both
// vertical neighbors in bounds. Interior sites gather three table
// streams — unary, pair(left,right), pair(up,down) — then rate-lookup
// and draw; the two row-edge sites take the generic path. Neighbor
// labels are read through per-row slices (bounds-check-friendly), and
// the left label is carried across iterations: at stride 2 it is the
// previous site's right neighbor, at stride 1 (raster) it is the label
// the previous iteration just wrote.
func (k *Kernel) sweepRowFirstOrder(labels []uint8, src *rng.Source, sc *Scratch, y, x0, stride int) {
	m := k.m
	t := m.tables
	mm := m.M
	W := m.W
	base := y * W
	pair, lut := t.diPair, t.expLUT
	uRow := t.ui[base*mm : (base+W)*mm]
	rowC := labels[base : base+W]
	rowU := labels[base-W : base]
	rowD := labels[base+W : base+W+W]
	e, rates := sc.e[:mm], sc.rates[:mm]
	x := x0
	if x == 0 {
		k.sampleSite(labels, src, sc, 0, y)
		x += stride
	}
	ll := int(rowC[x-1])
	for ; x+1 < W; x += stride {
		lr := int(rowC[x+1])
		u := uRow[x*mm : x*mm+mm]
		plr := pair[(ll*mm+lr)*mm:][:mm]
		pud := pair[(int(rowU[x])*mm+int(rowD[x]))*mm:][:mm]
		minE := int32(math.MaxInt32)
		for l, uv := range u {
			v := uv + plr[l] + pud[l]
			e[l] = v
			minE = min(minE, v)
		}
		total := 0.0
		for l, ev := range e {
			r := lut[ev-minE]
			rates[l] = r
			total += r
		}
		uu := src.Float64() * total
		acc := 0.0
		n := 0
		for _, r := range rates {
			acc += r
			n += int(math.Float64bits(uu-acc)>>63) ^ 1
		}
		if n >= mm {
			n = lastPositive(rates)
		}
		rowC[x] = uint8(n)
		if stride == 2 {
			ll = lr
		} else {
			ll = n
		}
	}
	if x < W {
		k.sampleSite(labels, src, sc, x, y)
	}
}

// sampleSite is the generic single-site update: energies (interior
// fast gather or border path), LUT rates, branch-free draw, store.
func (k *Kernel) sampleSite(labels []uint8, src *rng.Source, sc *Scratch, x, y int) {
	m := k.m
	t := m.tables
	mm := m.M
	W := m.W
	site := y*W + x
	u := t.ui[site*mm : site*mm+mm]
	e, rates := sc.e, sc.rates
	var minE int32
	if x > 0 && x+1 < W && y > 0 && y+1 < m.H {
		minE = math.MaxInt32
		if dg := t.diDiag; dg == nil {
			pair := t.diPair
			plr := pair[(int(labels[site-1])*mm+int(labels[site+1]))*mm:][:mm]
			pud := pair[(int(labels[site-W])*mm+int(labels[site+W]))*mm:][:mm]
			for l := 0; l < mm; l++ {
				v := u[l] + plr[l] + pud[l]
				e[l] = v
				minE = min(minE, v)
			}
		} else {
			di := t.di
			a := di[int(labels[site-1])*mm:][:mm]
			b := di[int(labels[site+1])*mm:][:mm]
			c := di[int(labels[site-W])*mm:][:mm]
			d := di[int(labels[site+W])*mm:][:mm]
			g0 := dg[int(labels[site-W-1])*mm:][:mm]
			g1 := dg[int(labels[site-W+1])*mm:][:mm]
			g2 := dg[int(labels[site+W-1])*mm:][:mm]
			g3 := dg[int(labels[site+W+1])*mm:][:mm]
			for l := 0; l < mm; l++ {
				v := u[l] + a[l] + b[l] + c[l] + d[l] +
					g0[l] + g1[l] + g2[l] + g3[l]
				e[l] = v
				minE = min(minE, v)
			}
		}
	} else {
		minE = k.gatherBorder(e, labels, x, y, site, u)
	}
	// Rates through the LUT (bit-identical to math.Exp on the same
	// gaps), then the branch-free draw of CategoricalRatesBranchfree
	// inlined over the scratch row.
	lut := t.expLUT
	total := 0.0
	for l := 0; l < mm; l++ {
		r := lut[e[l]-minE]
		rates[l] = r
		total += r
	}
	uu := src.Float64() * total
	acc := 0.0
	n := 0
	for _, r := range rates {
		acc += r
		n += int(math.Float64bits(uu-acc)>>63) ^ 1
	}
	if n >= mm {
		n = lastPositive(rates)
	}
	labels[site] = uint8(n)
}

// lastPositive resolves the floating-point-slack case of the draw (the
// scan counted every prefix below u): the last index with positive
// rate, exactly as CategoricalRates. The minimum-energy label always
// has rate 1, so in practice the scan terminates immediately.
func lastPositive(rates []float64) int {
	for i := len(rates) - 1; i >= 0; i-- {
		if rates[i] > 0 {
			return i
		}
	}
	return len(rates) - 1
}

// gatherBorder accumulates the energies of a site with at least one
// out-of-bounds neighbor and returns their minimum. Borders are a
// vanishing fraction of a sweep, so clarity beats speed here; integer
// addition is exact, so the accumulation order is free.
func (k *Kernel) gatherBorder(e []int32, labels []uint8, x, y, site int, u []int32) int32 {
	m := k.m
	t := m.tables
	mm := m.M
	W, H := m.W, m.H
	copy(e, u)
	if x > 0 {
		addInt32(e, t.di[int(labels[site-1])*mm:][:mm])
	}
	if x+1 < W {
		addInt32(e, t.di[int(labels[site+1])*mm:][:mm])
	}
	if y > 0 {
		addInt32(e, t.di[int(labels[site-W])*mm:][:mm])
	}
	if y+1 < H {
		addInt32(e, t.di[int(labels[site+W])*mm:][:mm])
	}
	if dg := t.diDiag; dg != nil {
		if x > 0 && y > 0 {
			addInt32(e, dg[int(labels[site-W-1])*mm:][:mm])
		}
		if x+1 < W && y > 0 {
			addInt32(e, dg[int(labels[site-W+1])*mm:][:mm])
		}
		if x > 0 && y+1 < H {
			addInt32(e, dg[int(labels[site+W-1])*mm:][:mm])
		}
		if x+1 < W && y+1 < H {
			addInt32(e, dg[int(labels[site+W+1])*mm:][:mm])
		}
	}
	minE := e[0]
	for _, v := range e[1:] {
		minE = min(minE, v)
	}
	return minE
}

func addInt32(dst, src []int32) {
	for i, v := range src {
		dst[i] += v
	}
}
