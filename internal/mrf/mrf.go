// Package mrf implements the probabilistic model substrate of the paper:
// first-order Markov Random Fields over a 2-D grid with smoothness-based
// priors, homogeneity and isotropy, and discrete random variables
// (paper §4.1).
//
// Each site (pixel) carries a random variable X_{i,j} taking one of M
// labels. The full conditional of a site given its four neighbors and
// the observed data D is (Eq. 1):
//
//	p(X_{i,j} | X_nbrs, D) ∝ exp(-(1/T) * [Ec(X_{i,j}, D) +
//	        Σ_{n in 4-neighborhood} Ec(X_{i,j}, X_n)])
//
// where Ec(X, D) is the singleton (data) clique potential and
// Ec(X, X_n) the doubleton (smoothness) potential. Energies here are
// non-negative; lower energy means higher probability.
package mrf

import (
	"fmt"
	"math"

	"repro/internal/fixed"
	"repro/internal/img"
)

// Model describes a first-order MRF over a WxH grid with M labels.
//
// Singleton returns the data term Ec(X_{x,y}=label, D) for a site; it
// must be non-negative. Doubleton returns the smoothness distance
// d(a, b) between two labels (Eq. 2); it must be non-negative and
// symmetric. Homogeneity and isotropy (paper §4.1) mean the same
// Doubleton applies to all four neighbor cliques.
type Model struct {
	W, H int
	M    int // number of labels per site

	// T is the temperature constant of Eq. 1.
	T float64

	// LambdaS and LambdaD scale the singleton and doubleton terms.
	LambdaS, LambdaD float64

	// Hood selects the clique structure: FirstOrder (the paper's
	// 4-neighborhood, the zero value) or SecondOrder (8-neighborhood,
	// the §9 extension). LambdaDiag scales the diagonal cliques of a
	// second-order model; it is ignored for first-order models.
	Hood       Neighborhood
	LambdaDiag float64

	Singleton func(x, y, label int) float64
	Doubleton func(a, b int) float64

	// tables, when non-nil, holds the compiled fast path (see Compile):
	// precomputed int32 unary and doubleton energy tables that replace
	// the closure calls above with slice arithmetic.
	tables *tables
}

// Validate checks the model's structural invariants. It is cheap and
// should be called once before inference.
func (m *Model) Validate() error {
	switch {
	case m.W <= 0 || m.H <= 0:
		return fmt.Errorf("mrf: invalid grid %dx%d", m.W, m.H)
	case m.M < 2:
		return fmt.Errorf("mrf: need at least 2 labels, got %d", m.M)
	case m.M > fixed.MaxLabels:
		// The RSU-G datapath carries 6-bit labels (fixed.LabelBits), so
		// every application's label space fits 64 values; the packed
		// label representation and the int32 energy kernel both rely on
		// this bound.
		return fmt.Errorf("mrf: %d labels exceed the %d-label (6-bit) RSU-G alphabet", m.M, fixed.MaxLabels)
	case m.T <= 0:
		return fmt.Errorf("mrf: temperature must be positive, got %v", m.T)
	case m.Singleton == nil:
		return fmt.Errorf("mrf: nil Singleton potential")
	case m.Doubleton == nil:
		return fmt.Errorf("mrf: nil Doubleton potential")
	case m.LambdaS < 0 || m.LambdaD < 0 || m.LambdaDiag < 0:
		return fmt.Errorf("mrf: negative potential weights")
	case m.Hood != FirstOrder && m.Hood != SecondOrder:
		return fmt.Errorf("mrf: unknown neighborhood %v", m.Hood)
	}
	return nil
}

// NeighborOffsets is the first-order (4-connected) neighborhood of
// Figure 4.
var NeighborOffsets = [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}}

// SiteEnergy returns the total clique potential energy of assigning
// `label` to site (x, y) given the current labels: the singleton plus
// the four doubleton terms of Eq. 1. Border sites use replicate padding
// consistent with img.LabelMap.At.
func (m *Model) SiteEnergy(lm *img.LabelMap, x, y, label int) float64 {
	if m.tables != nil {
		return m.fastSiteEnergy(lm, x, y, label)
	}
	e := m.LambdaS * m.Singleton(x, y, label)
	for _, off := range NeighborOffsets {
		nx, ny := x+off[0], y+off[1]
		if nx < 0 || nx >= m.W || ny < 0 || ny >= m.H {
			continue // sites outside the grid contribute no clique
		}
		e += m.LambdaD * m.Doubleton(label, lm.At(nx, ny))
	}
	if m.Hood == SecondOrder {
		for _, off := range DiagonalOffsets {
			nx, ny := x+off[0], y+off[1]
			if nx < 0 || nx >= m.W || ny < 0 || ny >= m.H {
				continue
			}
			e += m.LambdaDiag * m.Doubleton(label, lm.At(nx, ny))
		}
	}
	return e
}

// ConditionalEnergies fills buf (len M) with the site energy of every
// label at (x, y) and returns it. Allocates if buf is too small.
func (m *Model) ConditionalEnergies(buf []float64, lm *img.LabelMap, x, y int) []float64 {
	if cap(buf) < m.M {
		buf = make([]float64, m.M)
	}
	buf = buf[:m.M]
	if m.tables != nil {
		m.fastConditionalEnergies(buf, lm, x, y)
		return buf
	}
	sx := m.LambdaS
	for l := 0; l < m.M; l++ {
		buf[l] = sx * m.Singleton(x, y, l)
	}
	for _, off := range NeighborOffsets {
		nx, ny := x+off[0], y+off[1]
		if nx < 0 || nx >= m.W || ny < 0 || ny >= m.H {
			continue
		}
		nl := lm.At(nx, ny)
		for l := 0; l < m.M; l++ {
			buf[l] += m.LambdaD * m.Doubleton(l, nl)
		}
	}
	if m.Hood == SecondOrder {
		for _, off := range DiagonalOffsets {
			nx, ny := x+off[0], y+off[1]
			if nx < 0 || nx >= m.W || ny < 0 || ny >= m.H {
				continue
			}
			nl := lm.At(nx, ny)
			for l := 0; l < m.M; l++ {
				buf[l] += m.LambdaDiag * m.Doubleton(l, nl)
			}
		}
	}
	return buf
}

// ConditionalRates converts site energies into *unnormalized* Boltzmann
// rates r(l) = exp(-(E(l)-minE)/T), subtracting the minimum energy first
// for numerical stability. The minimum-energy label always has rate 1,
// so at least one rate is positive. This is all a first-to-fire race or
// a self-normalizing categorical draw needs — callers that can work
// with relative weights skip ConditionalProbs' O(M) divide pass.
func (m *Model) ConditionalRates(buf []float64, lm *img.LabelMap, x, y int) []float64 {
	buf = m.ConditionalEnergies(buf, lm, x, y)
	minE := buf[0]
	for _, e := range buf[1:] {
		if e < minE {
			minE = e
		}
	}
	//lint:ignore rsulint/floateq cache-key identity: the LUT is valid only for the exact T it was built from; a tolerance would serve stale rates
	if t := m.tables; t != nil && t.expT == m.T {
		// Integer-energy fast path: every gap e-minE is an exact integer
		// float, and expLUT[k] was computed by math.Exp on the same
		// operands — a table load, bit-identical to the direct call.
		for i, e := range buf {
			buf[i] = t.expLUT[int(e-minE)]
		}
		return buf
	}
	t := m.T
	for i, e := range buf {
		buf[i] = math.Exp(-(e - minE) / t)
	}
	return buf
}

// ConditionalProbs converts site energies into the normalized full
// conditional distribution p(l) ∝ exp(-E(l)/T), subtracting the minimum
// energy first for numerical stability. buf is reused as in
// ConditionalEnergies; the returned slice holds probabilities.
func (m *Model) ConditionalProbs(buf []float64, lm *img.LabelMap, x, y int) []float64 {
	buf = m.ConditionalRates(buf, lm, x, y)
	sum := 0.0
	for _, r := range buf {
		sum += r
	}
	for i := range buf {
		buf[i] /= sum
	}
	return buf
}

// TotalEnergy returns the energy of a full labeling: the sum of all
// singleton potentials plus each doubleton clique counted once
// (right and down neighbors only).
func (m *Model) TotalEnergy(lm *img.LabelMap) float64 {
	if m.tables != nil {
		return m.fastTotalEnergy(lm)
	}
	e := 0.0
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			l := lm.At(x, y)
			e += m.LambdaS * m.Singleton(x, y, l)
			if x+1 < m.W {
				e += m.LambdaD * m.Doubleton(l, lm.At(x+1, y))
			}
			if y+1 < m.H {
				e += m.LambdaD * m.Doubleton(l, lm.At(x, y+1))
			}
			if m.Hood == SecondOrder && y+1 < m.H {
				// Each diagonal clique counted once: down-right and
				// down-left from the upper site.
				if x+1 < m.W {
					e += m.LambdaDiag * m.Doubleton(l, lm.At(x+1, y+1))
				}
				if x-1 >= 0 {
					e += m.LambdaDiag * m.Doubleton(l, lm.At(x-1, y+1))
				}
			}
		}
	}
	return e
}

// Color returns the checkerboard color (0 or 1) of a site. All sites of
// one color are conditionally independent given the other color (paper
// §4.2: "all the gray random variables can be updated simultaneously").
func Color(x, y int) int { return (x + y) & 1 }

// CheckerboardSites returns the coordinates of all sites with the given
// color in raster order.
func CheckerboardSites(w, h, color int) [][2]int {
	sites := make([][2]int, 0, (w*h+1)/2)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if Color(x, y) == color {
				sites = append(sites, [2]int{x, y})
			}
		}
	}
	return sites
}
