package apps

import (
	"fmt"

	"repro/internal/fixed"
	"repro/internal/img"
	"repro/internal/mrf"
	"repro/internal/rsu"
)

// Restoration denoises an image by MAP estimation over quantized
// intensity levels — the original application of Gibbs sampling to
// images (Geman & Geman 1984, the paper's ref [11], "Stochastic
// Relaxation, Gibbs Distributions, and the Bayesian Restoration of
// Images"). Labels are M uniformly spaced intensity levels; the
// singleton pulls each pixel toward its observation and the smoothness
// prior suppresses the noise.
//
// Restoration doubles as the end-to-end exercise of the §9 extension:
// with SecondOrder it runs an 8-neighbor prior on the software path and
// an RSU-G8 (diagonal-register) unit on the hardware path.
type Restoration struct {
	Observed *img.Gray
	// Levels6 are the 6-bit intensities of the M labels.
	Levels6 []uint8
	// LambdaD weights axial smoothness; LambdaDiag weights diagonal
	// smoothness when Hood is SecondOrder.
	LambdaD, LambdaDiag float64
	Temperature         float64
	Hood                mrf.Neighborhood

	quantized []uint8
}

// NewRestoration builds the app with nLevels uniformly spaced intensity
// labels (2..8: scalar labels carry 3 bits on the RSU datapath).
func NewRestoration(observed *img.Gray, nLevels int, lambdaD, lambdaDiag, temperature float64, hood mrf.Neighborhood) (*Restoration, error) {
	if observed == nil {
		return nil, fmt.Errorf("apps: nil image")
	}
	if nLevels < 2 || nLevels > 8 {
		return nil, fmt.Errorf("apps: restoration needs 2..8 levels, got %d", nLevels)
	}
	if !registerWeight(lambdaD) || !registerWeight(lambdaDiag) {
		return nil, fmt.Errorf("apps: weights must be small non-negative integers")
	}
	if temperature <= 0 {
		return nil, fmt.Errorf("apps: temperature must be positive")
	}
	if hood != mrf.FirstOrder && hood != mrf.SecondOrder {
		return nil, fmt.Errorf("apps: unknown neighborhood %v", hood)
	}
	r := &Restoration{
		Observed:    observed,
		Levels6:     make([]uint8, nLevels),
		LambdaD:     lambdaD,
		LambdaDiag:  lambdaDiag,
		Temperature: temperature,
		Hood:        hood,
		quantized:   make([]uint8, len(observed.Pix)),
	}
	for l := 0; l < nLevels; l++ {
		// Bucket centers across the 6-bit range.
		r.Levels6[l] = uint8((2*l + 1) * 64 / (2 * nLevels))
	}
	for i, p := range observed.Pix {
		r.quantized[i] = fixed.Quantize6(p)
	}
	return r, nil
}

// Name implements App.
func (r *Restoration) Name() string { return "restoration" }

// Model implements App.
func (r *Restoration) Model() *mrf.Model {
	return &mrf.Model{
		W: r.Observed.W, H: r.Observed.H, M: len(r.Levels6),
		T:       r.Temperature,
		LambdaS: 1, LambdaD: r.LambdaD,
		Hood: r.Hood, LambdaDiag: r.LambdaDiag,
		Singleton: func(x, y, label int) float64 {
			d := int(r.quantized[y*r.Observed.W+x]) - int(r.Levels6[label])
			return float64(d * d)
		},
		Doubleton: mrf.SquaredDiff,
	}
}

// RSUConfig implements App: scalar labels; the diagonal registers are
// enabled for second-order priors (RSU-G8).
func (r *Restoration) RSUConfig() rsu.Config {
	return rsu.Config{
		M: len(r.Levels6), Vector: false,
		DoubletonWeight: uint8(r.LambdaD), SingletonWeight: 1,
		Diagonal:       r.Hood == mrf.SecondOrder,
		DiagonalWeight: uint8(r.LambdaDiag),
	}
}

// RSUInput implements App.
func (r *Restoration) RSUInput(in *rsu.Input, lm *img.LabelMap, x, y int) {
	stageNeighbors(in, lm, x, y, nil)
	in.Data1 = r.quantized[y*r.Observed.W+x]
	copy(in.Data2PerLabel[:len(r.Levels6)], r.Levels6)
	if r.Hood == mrf.SecondOrder {
		for i, off := range mrf.DiagonalOffsets {
			in.NeighborsDiag[i] = fixed.NewLabel(lm.At(x+off[0], y+off[1]))
		}
	}
}

// InitLabels implements App.
func (r *Restoration) InitLabels() *img.LabelMap { return ArgminSingletonInit(r.Model()) }

// Render converts a label map into the restored image.
func (r *Restoration) Render(lm *img.LabelMap) *img.Gray {
	palette := make([]uint8, len(r.Levels6))
	for i, l := range r.Levels6 {
		palette[i] = fixed.Dequantize6(l)
	}
	return lm.Render(palette)
}
