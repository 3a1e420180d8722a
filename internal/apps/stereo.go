package apps

import (
	"fmt"

	"repro/internal/fixed"
	"repro/internal/img"
	"repro/internal/mrf"
	"repro/internal/rsu"
)

// StereoVision assigns one of M disparity labels to each left-image
// pixel (paper §8.1: "assigns one of 5 labels to align two images",
// ref [39] Tappen & Freeman). A pixel at (x, y) with disparity d
// corresponds to right-image pixel (x-d, y).
type StereoVision struct {
	Left, Right *img.Gray
	NDisp       int
	LambdaD     float64
	Temperature float64

	ql, qr []uint8
}

// NewStereoVision builds the app with disparities 0..nDisp-1.
func NewStereoVision(left, right *img.Gray, nDisp int, lambdaD, temperature float64) (*StereoVision, error) {
	if left == nil || right == nil {
		return nil, fmt.Errorf("apps: nil image")
	}
	if left.W != right.W || left.H != right.H {
		return nil, fmt.Errorf("apps: stereo pair size mismatch")
	}
	if nDisp < 2 || nDisp > 8 {
		return nil, fmt.Errorf("apps: stereo needs 2..8 disparities (3-bit scalar labels), got %d", nDisp)
	}
	if !registerWeight(lambdaD) || temperature <= 0 {
		return nil, fmt.Errorf("apps: invalid lambdaD=%v temperature=%v", lambdaD, temperature)
	}
	s := &StereoVision{
		Left: left, Right: right, NDisp: nDisp,
		LambdaD: lambdaD, Temperature: temperature,
		ql: make([]uint8, len(left.Pix)),
		qr: make([]uint8, len(right.Pix)),
	}
	for i := range left.Pix {
		s.ql[i] = fixed.Quantize6(left.Pix[i])
		s.qr[i] = fixed.Quantize6(right.Pix[i])
	}
	return s, nil
}

// Name implements App.
func (s *StereoVision) Name() string { return "stereo" }

// Model implements App.
func (s *StereoVision) Model() *mrf.Model {
	w, h := s.Left.W, s.Left.H
	return &mrf.Model{
		W: w, H: h, M: s.NDisp,
		T:       s.Temperature,
		LambdaS: 1, LambdaD: s.LambdaD,
		Singleton: func(x, y, label int) float64 {
			a := int(s.ql[y*w+x])
			b := int(fixed.Quantize6(s.Right.At(x-label, y)))
			d := a - b
			return float64(d * d)
		},
		Doubleton: mrf.SquaredDiff,
	}
}

// RSUConfig implements App: scalar disparity labels.
func (s *StereoVision) RSUConfig() rsu.Config {
	return rsu.Config{
		M: s.NDisp, Vector: false,
		DoubletonWeight: uint8(s.LambdaD), SingletonWeight: 1,
	}
}

// RSUInput implements App: the per-label second data value is the
// right-image intensity at each candidate disparity, gathered from the
// quantized image where every candidate lies inside the row and
// clamped through Right.At near the left edge.
func (s *StereoVision) RSUInput(in *rsu.Input, lm *img.LabelMap, x, y int) {
	stageNeighbors(in, lm, x, y, nil)
	site := y*s.Left.W + x
	in.Data1 = s.ql[site]
	targets := in.Data2PerLabel[:s.NDisp]
	if x >= s.NDisp-1 {
		for d := range targets {
			targets[d] = s.qr[site-d]
		}
		return
	}
	for d := range targets {
		targets[d] = fixed.Quantize6(s.Right.At(x-d, y))
	}
}

// InitLabels implements App: each pixel starts at its best-matching
// disparity (argmin singleton).
func (s *StereoVision) InitLabels() *img.LabelMap { return ArgminSingletonInit(s.Model()) }
