package mrf

import "fmt"

// Neighborhood extends the substrate beyond the paper's first-order
// MRFs (§9: "The current RSU-G implementation is for very specific MRF
// problems. Extending the design to support other MRF problems is a
// short-term goal."). Second-order models add the four diagonal
// cliques; conditional independence then needs a 4-coloring of the grid
// (2×2 block colors) instead of the checkerboard 2-coloring.
type Neighborhood int

const (
	// FirstOrder is the paper's 4-connected neighborhood (Figure 4).
	FirstOrder Neighborhood = iota
	// SecondOrder is the 8-connected neighborhood.
	SecondOrder
)

// String implements fmt.Stringer.
func (n Neighborhood) String() string {
	switch n {
	case FirstOrder:
		return "first-order"
	case SecondOrder:
		return "second-order"
	default:
		return fmt.Sprintf("Neighborhood(%d)", int(n))
	}
}

// DiagonalOffsets are the four second-order cliques.
var DiagonalOffsets = [4][2]int{{-1, -1}, {1, -1}, {-1, 1}, {1, 1}}

// Offsets returns the clique offsets of the neighborhood.
func (n Neighborhood) Offsets() [][2]int {
	out := make([][2]int, 0, 8)
	for _, o := range NeighborOffsets {
		out = append(out, o)
	}
	if n == SecondOrder {
		for _, o := range DiagonalOffsets {
			out = append(out, o)
		}
	}
	return out
}

// Colors returns the number of conditional-independence color classes:
// 2 for first order (checkerboard), 4 for second order (2×2 blocks).
func (n Neighborhood) Colors() int {
	if n == SecondOrder {
		return 4
	}
	return 2
}

// ColorOf returns the color class of a site under the neighborhood.
func (n Neighborhood) ColorOf(x, y int) int {
	if n == SecondOrder {
		return (x & 1) | (y&1)<<1
	}
	return (x + y) & 1
}

// RowStride returns the x coordinate of the first site of the given
// color in row y, or ok=false when the row contains no site of that
// color. Same-color sites within a row are always 2 apart (both the
// checkerboard 2-coloring and the 2×2-block 4-coloring alternate along
// x), so a sweep visits exactly the color's sites with x0, x0+2, x0+4…
// instead of testing ColorOf on every pixel.
func (n Neighborhood) RowStride(color, y int) (x0 int, ok bool) {
	if n == SecondOrder {
		if (y & 1) != color>>1 {
			return 0, false
		}
		return color & 1, true
	}
	return (color + y) & 1, true
}
