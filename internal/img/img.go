// Package img provides the 8-bit grayscale image substrate the vision
// applications run on: image storage, PGM/PPM encoding, synthetic scene
// generation (substituting for the paper's proprietary test images) and
// quality metrics.
package img

import (
	"fmt"
	"math"
)

// Gray is an 8-bit grayscale image stored row-major.
type Gray struct {
	W, H int
	Pix  []uint8 // len == W*H
}

// Area returns w·h, the site count of a w×h grid, when both sides are
// positive and the product is at most limit; ok is false otherwise. It
// compares by division, so no product wraps whatever the width of int:
// decoders that size an allocation from input numbers check through it.
func Area(w, h, limit int) (n int, ok bool) {
	if w <= 0 || h <= 0 || w > limit/h {
		return 0, false
	}
	return w * h, true
}

// NewGray allocates a zeroed WxH image. It panics on non-positive
// dimensions.
func NewGray(w, h int) *Gray {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("img: invalid dimensions %dx%d", w, h))
	}
	return &Gray{W: w, H: h, Pix: make([]uint8, w*h)}
}

// At returns the pixel at (x, y). Coordinates outside the image are
// clamped to the border (replicate padding), which matches how the MRF
// applications treat boundary neighbors.
func (g *Gray) At(x, y int) uint8 {
	if x < 0 {
		x = 0
	}
	if x >= g.W {
		x = g.W - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= g.H {
		y = g.H - 1
	}
	return g.Pix[y*g.W+x]
}

// Set writes the pixel at (x, y); out-of-range coordinates are ignored.
func (g *Gray) Set(x, y int, v uint8) {
	if x < 0 || x >= g.W || y < 0 || y >= g.H {
		return
	}
	g.Pix[y*g.W+x] = v
}

// Clone returns a deep copy.
func (g *Gray) Clone() *Gray {
	c := NewGray(g.W, g.H)
	copy(c.Pix, g.Pix)
	return c
}

// Equal reports whether two images have identical dimensions and pixels.
func (g *Gray) Equal(o *Gray) bool {
	if g.W != o.W || g.H != o.H {
		return false
	}
	for i, p := range g.Pix {
		if p != o.Pix[i] {
			return false
		}
	}
	return true
}

// Fill sets every pixel to v.
func (g *Gray) Fill(v uint8) {
	for i := range g.Pix {
		g.Pix[i] = v
	}
}

// MaxLabels is the size of the label alphabet a LabelMap can store.
// Labels are bit-packed into one byte per site (the RSU-G datapath
// carries 6-bit labels, fixed.LabelBits; a byte is the smallest
// addressable unit that holds one), so label values must fit uint8.
const MaxLabels = 256

// LabelMap is a per-pixel label field (the latent random variables X of
// the MRF), same layout as Gray. Labels are stored bit-packed as one
// byte per site — an 8x smaller working set than a word-typed slab,
// which keeps the sweep kernel's label traffic L1/L2 resident (the
// paper's RSU-G carries labels as 6-bit values for the same reason,
// §4.4). The accessor surface still speaks int; the packed
// representation is visible only to code that indexes Labels directly.
type LabelMap struct {
	W, H   int
	Labels []uint8
}

// NewLabelMap allocates a zeroed label map.
func NewLabelMap(w, h int) *LabelMap {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("img: invalid dimensions %dx%d", w, h))
	}
	return &LabelMap{W: w, H: h, Labels: make([]uint8, w*h)}
}

// At returns the label at (x, y) with replicate padding.
func (m *LabelMap) At(x, y int) int {
	if x < 0 {
		x = 0
	}
	if x >= m.W {
		x = m.W - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= m.H {
		y = m.H - 1
	}
	return int(m.Labels[y*m.W+x])
}

// Set writes the label at (x, y); out-of-range coordinates are ignored.
// It panics if v does not fit the packed byte representation.
func (m *LabelMap) Set(x, y int, v int) {
	if x < 0 || x >= m.W || y < 0 || y >= m.H {
		return
	}
	if v < 0 || v >= MaxLabels {
		panic(fmt.Sprintf("img: label %d outside packed range [0,%d)", v, MaxLabels))
	}
	m.Labels[y*m.W+x] = uint8(v)
}

// Clone returns a deep copy.
func (m *LabelMap) Clone() *LabelMap {
	c := NewLabelMap(m.W, m.H)
	copy(c.Labels, m.Labels)
	return c
}

// Render maps labels to gray values by indexing palette; labels outside
// the palette render as 0.
func (m *LabelMap) Render(palette []uint8) *Gray {
	g := NewGray(m.W, m.H)
	for i, l := range m.Labels {
		if int(l) < len(palette) {
			g.Pix[i] = palette[l]
		}
	}
	return g
}

// MislabelRate returns the fraction of pixels whose labels differ from
// truth. It panics on dimension mismatch.
func (m *LabelMap) MislabelRate(truth *LabelMap) float64 {
	if m.W != truth.W || m.H != truth.H {
		panic("img: MislabelRate dimension mismatch")
	}
	bad := 0
	for i, l := range m.Labels {
		if l != truth.Labels[i] {
			bad++
		}
	}
	return float64(bad) / float64(len(m.Labels))
}

// Agreement returns the fraction of pixels on which two label maps agree.
func (m *LabelMap) Agreement(o *LabelMap) float64 {
	return 1 - m.MislabelRate(o)
}

// MSE returns the mean squared pixel error between two images.
func MSE(a, b *Gray) float64 {
	if a.W != b.W || a.H != b.H {
		panic("img: MSE dimension mismatch")
	}
	sum := 0.0
	for i := range a.Pix {
		d := float64(a.Pix[i]) - float64(b.Pix[i])
		sum += d * d
	}
	return sum / float64(len(a.Pix))
}

// VectorField is a per-pixel 2-D vector field (motion estimates).
type VectorField struct {
	W, H int
	DX   []int8
	DY   []int8
}

// NewVectorField allocates a zeroed field.
func NewVectorField(w, h int) *VectorField {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("img: invalid dimensions %dx%d", w, h))
	}
	return &VectorField{W: w, H: h, DX: make([]int8, w*h), DY: make([]int8, w*h)}
}

// Set writes the vector at (x, y).
func (f *VectorField) Set(x, y int, dx, dy int8) {
	if x < 0 || x >= f.W || y < 0 || y >= f.H {
		return
	}
	f.DX[y*f.W+x], f.DY[y*f.W+x] = dx, dy
}

// At returns the vector at (x, y) without padding; it panics out of range.
func (f *VectorField) At(x, y int) (dx, dy int8) {
	i := y*f.W + x
	return f.DX[i], f.DY[i]
}

// AvgEndpointError returns the mean Euclidean distance between this field
// and truth — the standard dense-motion quality metric.
func (f *VectorField) AvgEndpointError(truth *VectorField) float64 {
	if f.W != truth.W || f.H != truth.H {
		panic("img: AvgEndpointError dimension mismatch")
	}
	sum := 0.0
	for i := range f.DX {
		dx := float64(f.DX[i]) - float64(truth.DX[i])
		dy := float64(f.DY[i]) - float64(truth.DY[i])
		sum += math.Sqrt(dx*dx + dy*dy)
	}
	return sum / float64(len(f.DX))
}
