package apps

import (
	"fmt"

	"repro/internal/fixed"
	"repro/internal/img"
	"repro/internal/mrf"
	"repro/internal/rsu"
)

// MotionEstimation computes a dense motion field between two frames
// (paper §8.1: "searches over a 7x7 block to find the most likely
// position of a pixel in a subsequent frame (49 possible values)",
// ref [17] Konrad & Dubois).
//
// Labels are displacement vectors in a (2R+1)² window. The singleton is
// the 6-bit squared intensity difference between the pixel in frame 1
// and its candidate position in frame 2; the doubleton is the
// per-component squared difference of neighboring displacement vectors
// (Eq. 2 with 2-D vector labels).
type MotionEstimation struct {
	Frame1, Frame2 *img.Gray
	Window         mrf.VectorSpace
	LambdaD        float64
	Temperature    float64

	q1, q2 []uint8       // 6-bit frames
	codes  []fixed.Label // label index -> packed (dy,dx) datapath code
	taps   []motionTap   // label index -> candidate displacement
}

// motionTap is one candidate position of the search window: its
// displacement and the matching offset into the quantized frame.
type motionTap struct{ dx, dy, off int }

// NewMotionEstimation builds the app with window radius r (r=3 is the
// paper's 7×7, M=49).
func NewMotionEstimation(f1, f2 *img.Gray, r int, lambdaD, temperature float64) (*MotionEstimation, error) {
	if f1 == nil || f2 == nil {
		return nil, fmt.Errorf("apps: nil frame")
	}
	if f1.W != f2.W || f1.H != f2.H {
		return nil, fmt.Errorf("apps: frame size mismatch %dx%d vs %dx%d", f1.W, f1.H, f2.W, f2.H)
	}
	if r < 1 || r > 3 {
		// Components are offset-encoded into 3 bits: 2r+1 <= 8.
		return nil, fmt.Errorf("apps: window radius %d outside [1,3]", r)
	}
	if !registerWeight(lambdaD) || temperature <= 0 {
		return nil, fmt.Errorf("apps: invalid lambdaD=%v temperature=%v", lambdaD, temperature)
	}
	m := &MotionEstimation{
		Frame1: f1, Frame2: f2,
		Window:      mrf.VectorSpace{R: r},
		LambdaD:     lambdaD,
		Temperature: temperature,
		q1:          make([]uint8, len(f1.Pix)),
		q2:          make([]uint8, len(f2.Pix)),
	}
	for i := range f1.Pix {
		m.q1[i] = fixed.Quantize6(f1.Pix[i])
		m.q2[i] = fixed.Quantize6(f2.Pix[i])
	}
	m.codes = make([]fixed.Label, m.Window.Size())
	m.taps = make([]motionTap, m.Window.Size())
	for l := range m.codes {
		dx, dy := m.Window.Vec(l)
		m.codes[l] = fixed.PackVec(uint8(dy+r), uint8(dx+r))
		m.taps[l] = motionTap{dx: dx, dy: dy, off: dy*f2.W + dx}
	}
	return m, nil
}

// Name implements App.
func (m *MotionEstimation) Name() string { return "motion" }

// Model implements App.
func (m *MotionEstimation) Model() *mrf.Model {
	w, h := m.Frame1.W, m.Frame1.H
	return &mrf.Model{
		W: w, H: h, M: m.Window.Size(),
		T:       m.Temperature,
		LambdaS: 1, LambdaD: m.LambdaD,
		Singleton: func(x, y, label int) float64 {
			d := int(m.q1[y*w+x]) - int(m.target(x, y, label))
			return float64(d * d)
		},
		Doubleton: m.Window.SquaredDiffVec,
	}
}

// RSUConfig implements App: vector labels with the label-decode ROM
// mapping window indices to packed (dy,dx) codes.
func (m *MotionEstimation) RSUConfig() rsu.Config {
	return rsu.Config{
		M: m.Window.Size(), Vector: true,
		DoubletonWeight: uint8(m.LambdaD), SingletonWeight: 1,
		Labels: m.codes,
	}
}

// interior reports whether the whole search window of site (x, y) lies
// inside the frame.
func (m *MotionEstimation) interior(x, y int) bool {
	w, h, r := m.Frame1.W, m.Frame1.H, m.Window.R
	return x >= r && x+r < w && y >= r && y+r < h
}

// target returns the 6-bit frame-2 intensity at label l's candidate
// position for site (x, y): a tap into the quantized frame when the
// whole window lies inside it, the clamped Frame2.At on the border.
func (m *MotionEstimation) target(x, y, l int) uint8 {
	tap := m.taps[l]
	if m.interior(x, y) {
		return m.q2[y*m.Frame1.W+x+tap.off]
	}
	return fixed.Quantize6(m.Frame2.At(x+tap.dx, y+tap.dy))
}

// RSUInput implements App: Data1 is the frame-1 intensity; the per-label
// second data value is the frame-2 intensity at the candidate position
// (the §6 "target location" stream), as target computes it. Interior
// sites gather the whole window by per-label offset in one pass.
func (m *MotionEstimation) RSUInput(in *rsu.Input, lm *img.LabelMap, x, y int) {
	stageNeighbors(in, lm, x, y, m.codes)
	w := m.Frame1.W
	in.Data1 = m.q1[y*w+x]
	targets := in.Data2PerLabel[:len(m.taps)]
	if m.interior(x, y) {
		site := y*w + x
		for l, tap := range m.taps {
			targets[l] = m.q2[site+tap.off]
		}
		return
	}
	for l := range targets {
		targets[l] = m.target(x, y, l)
	}
}

// Field converts a label map produced by inference into a vector field.
func (m *MotionEstimation) Field(lm *img.LabelMap) *img.VectorField {
	f := img.NewVectorField(lm.W, lm.H)
	for y := 0; y < lm.H; y++ {
		for x := 0; x < lm.W; x++ {
			dx, dy := m.Window.Vec(lm.At(x, y))
			f.Set(x, y, int8(dx), int8(dy))
		}
	}
	return f
}

// ZeroLabel returns the label index of zero displacement, the natural
// chain initialization.
func (m *MotionEstimation) ZeroLabel() int { return m.Window.Index(0, 0) }

// InitLabels implements App: each pixel starts at its best block match
// (argmin singleton), which is the zero displacement wherever the frames
// already agree.
func (m *MotionEstimation) InitLabels() *img.LabelMap { return ArgminSingletonInit(m.Model()) }
