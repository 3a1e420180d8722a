package apps

import (
	"fmt"
	"sort"

	"repro/internal/fixed"
	"repro/internal/img"
	"repro/internal/mrf"
	"repro/internal/rsu"
)

// Segmentation assigns one of M intensity-cluster labels to each pixel
// (paper §8.1: "assigns one of five possible values (labels) to each
// pixel by grouping similar pixels based on intensity", refs [11, 37]).
//
// Energies live in the RSU fixed-point domain: the singleton is the
// squared difference between the 6-bit pixel intensity and the 6-bit
// label mean; the doubleton is the squared difference of (scalar) label
// indices, which is meaningful because labels are sorted by mean.
type Segmentation struct {
	Image *img.Gray
	// Means6 are the 6-bit label means, sorted ascending.
	Means6 []uint8
	// LambdaD weights the smoothness term; Temperature is the MRF T in
	// fixed-point energy units.
	LambdaD     float64
	Temperature float64

	quantized []uint8 // 6-bit image
}

// NewSegmentation builds the application. means are 8-bit label means
// (e.g. from KMeans1D); they are quantized to 6 bits and sorted.
func NewSegmentation(image *img.Gray, means []uint8, lambdaD, temperature float64) (*Segmentation, error) {
	if image == nil {
		return nil, fmt.Errorf("apps: nil image")
	}
	if len(means) < 2 || len(means) > 8 {
		// Scalar labels carry 3 bits on the RSU datapath (§5.2).
		return nil, fmt.Errorf("apps: segmentation needs 2..8 labels, got %d", len(means))
	}
	if lambdaD < 0 || temperature <= 0 {
		return nil, fmt.Errorf("apps: invalid lambdaD=%v temperature=%v", lambdaD, temperature)
	}
	if !registerWeight(lambdaD) {
		// The RSU doubleton weight is an integer register; keeping the
		// software model identical requires an integer weight.
		return nil, fmt.Errorf("apps: lambdaD must be a small integer, got %v", lambdaD)
	}
	s := &Segmentation{
		Image:       image,
		Means6:      make([]uint8, len(means)),
		LambdaD:     lambdaD,
		Temperature: temperature,
		quantized:   make([]uint8, len(image.Pix)),
	}
	sorted := append([]uint8(nil), means...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, m := range sorted {
		s.Means6[i] = fixed.Quantize6(m)
	}
	for i, p := range image.Pix {
		s.quantized[i] = fixed.Quantize6(p)
	}
	return s, nil
}

// Name implements App.
func (s *Segmentation) Name() string { return "segmentation" }

// Model implements App.
func (s *Segmentation) Model() *mrf.Model {
	return &mrf.Model{
		W: s.Image.W, H: s.Image.H, M: len(s.Means6),
		T:       s.Temperature,
		LambdaS: 1, LambdaD: s.LambdaD,
		Singleton: func(x, y, label int) float64 {
			d := int(s.quantized[y*s.Image.W+x]) - int(s.Means6[label])
			return float64(d * d)
		},
		Doubleton: mrf.SquaredDiff,
	}
}

// RSUConfig implements App: scalar labels, unit doubleton weight (the
// LambdaD weight is folded into the LUT temperature by BuildUnit when
// LambdaD==1; for other weights the doubleton weight register carries
// the integer part).
func (s *Segmentation) RSUConfig() rsu.Config {
	return rsu.Config{
		M: len(s.Means6), Vector: false,
		DoubletonWeight: uint8(s.LambdaD), SingletonWeight: 1,
	}
}

// RSUInput implements App: Data1 is the pixel's 6-bit intensity and the
// per-label second data input is the label's mean (the "target" value
// that changes per label, §5.1).
func (s *Segmentation) RSUInput(in *rsu.Input, lm *img.LabelMap, x, y int) {
	stageNeighbors(in, lm, x, y, nil)
	in.Data1 = s.quantized[y*s.Image.W+x]
	copy(in.Data2PerLabel[:len(s.Means6)], s.Means6)
}

// KMeans1D estimates k intensity cluster means from an image by Lloyd's
// algorithm on the 8-bit histogram — the preprocessing step that picks
// the segmentation label means.
func KMeans1D(image *img.Gray, k, iters int) []uint8 {
	if k < 1 {
		panic("apps: KMeans1D needs k >= 1")
	}
	var hist [256]int
	for _, p := range image.Pix {
		hist[p]++
	}
	// Initialize means evenly over the occupied intensity range.
	lo, hi := 0, 255
	for lo < 255 && hist[lo] == 0 {
		lo++
	}
	for hi > 0 && hist[hi] == 0 {
		hi--
	}
	if hi < lo {
		hi = lo
	}
	means := make([]float64, k)
	for i := range means {
		if k == 1 {
			means[i] = float64(lo+hi) / 2
		} else {
			means[i] = float64(lo) + float64(hi-lo)*float64(i)/float64(k-1)
		}
	}
	for it := 0; it < iters; it++ {
		sums := make([]float64, k)
		counts := make([]float64, k)
		for v := 0; v < 256; v++ {
			if hist[v] == 0 {
				continue
			}
			best, bestD := 0, 1e18
			for i, m := range means {
				d := (float64(v) - m) * (float64(v) - m)
				if d < bestD {
					best, bestD = i, d
				}
			}
			sums[best] += float64(v) * float64(hist[v])
			counts[best] += float64(hist[v])
		}
		for i := range means {
			if counts[i] > 0 {
				means[i] = sums[i] / counts[i]
			}
		}
	}
	out := make([]uint8, k)
	for i, m := range means {
		out[i] = uint8(m + 0.5)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// InitLabels implements App: each pixel starts at its nearest mean.
func (s *Segmentation) InitLabels() *img.LabelMap { return ArgminSingletonInit(s.Model()) }
