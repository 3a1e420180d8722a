// Package apps implements the three computer-vision applications the
// paper evaluates (§8.1): image segmentation, dense motion estimation
// and stereo vision — each as a first-order MRF with smoothness priors,
// solvable either by the software Gibbs substrate (internal/gibbs) or by
// an emulated RSU-G unit (internal/rsu).
//
// To keep the exact-software and RSU paths comparable, every application
// defines its clique potentials in the RSU's fixed-point domain: image
// intensities are quantized to 6 bits and energies are the integer
// squared differences the hardware computes. The software model then
// evaluates the *same* integers in floating point, so any divergence
// between the two solvers is due to the hardware's sampling
// approximations (16-level intensity ladder, 8-bit TTF register), not
// the model.
package apps

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/fixed"
	"repro/internal/gibbs"
	"repro/internal/img"
	"repro/internal/mrf"
	"repro/internal/ret"
	"repro/internal/rng"
	"repro/internal/rsu"
)

// App is the common surface of the three applications.
type App interface {
	// Name identifies the application.
	Name() string
	// Model returns the MRF in the shared fixed-point energy domain.
	Model() *mrf.Model
	// RSUInput fills in with the RSU operands for site (x, y) given the
	// current labeling; Neighbors carry datapath codes. in.Data2PerLabel
	// is a caller-owned buffer of at least M entries (NewRSUInput), so a
	// sampler that reuses one Input stages every site without allocating.
	RSUInput(in *rsu.Input, lm *img.LabelMap, x, y int)
	// RSUConfig returns the unit configuration (width/mode filled by the
	// caller) matching this application's label space.
	RSUConfig() rsu.Config
	// InitLabels returns a data-driven initial labeling (per-site argmin
	// of the singleton term). A good initialization matters more for the
	// RSU chain than for exact Gibbs: the hardware LUT's dark rung
	// assigns probability zero to labels far outside the intensity
	// ladder's dynamic range, so a state where every label of a site is
	// dark cannot anneal out stochastically.
	InitLabels() *img.LabelMap
}

// ArgminSingletonInit builds the per-site argmin-singleton labeling for
// a model — the shared InitLabels implementation.
func ArgminSingletonInit(m *mrf.Model) *img.LabelMap {
	lm := img.NewLabelMap(m.W, m.H)
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			best, bestE := 0, m.Singleton(x, y, 0)
			for l := 1; l < m.M; l++ {
				if e := m.Singleton(x, y, l); e < bestE {
					best, bestE = l, e
				}
			}
			lm.Set(x, y, best)
		}
	}
	return lm
}

// defaultCircuit is the default ladder circuit every nil-circuit unit
// shares. Building one runs 100k Monte-Carlo relaxations from
// rng.New(0) and always yields the same circuit, so it is built once
// per process.
var defaultCircuit = sync.OnceValue(func() *ret.Circuit {
	return ret.DefaultLadderCircuit(rng.New(0))
})

// BuildUnit constructs an RSU-G for an application: label space and
// weights from the app, width/mode/circuit from the arguments, and an
// intensity LUT tuned to the app's temperature. A nil circuit selects
// the default high-dynamic-range ladder circuit (see
// ret.DefaultLadderCircuit for why Gibbs accuracy needs it), one
// process-wide instance shared by every such unit: nothing mutates a
// unit's circuit, since SampleTTF and EffectiveRate only read it.
func BuildUnit(a App, circuit *ret.Circuit, width int, mode rsu.SamplingMode) (*rsu.Unit, error) {
	if circuit == nil {
		circuit = defaultCircuit()
	}
	cfg := a.RSUConfig()
	cfg.Width = width
	cfg.Mode = mode
	cfg.Circuit = circuit
	cfg.ClockHz = 1e9
	u, err := rsu.New(cfg)
	if err != nil {
		return nil, err
	}
	lut, err := rsu.BuildIntensityMap(u.Levels(), a.Model().T)
	if err != nil {
		return nil, err
	}
	u.SetMap(lut)
	return u, nil
}

// NewRSUInput returns an operand set for App.RSUInput whose per-label
// data buffer fits the unit's M labels. Allocate one per sampler and
// reuse it for every site.
func NewRSUInput(u *rsu.Unit) rsu.Input {
	return rsu.Input{Data2PerLabel: make([]uint8, u.Config().M)}
}

// rsuSampler adapts an RSU-G unit to the gibbs.Sampler interface: each
// site update stages the neighbor codes and data operands and reads one
// sample, exactly as the §6.1 instruction sequence would.
type rsuSampler struct {
	app  App
	unit *rsu.Unit
	in   rsu.Input // operand registers, restaged per site
}

// NewRSUSampler returns a gibbs.Factory backed by the given unit. The
// unit is stateless during sampling, so all workers may share it; each
// worker's sampler owns its operand buffer.
func NewRSUSampler(a App, u *rsu.Unit) gibbs.Factory {
	return func() gibbs.Sampler { return &rsuSampler{app: a, unit: u, in: NewRSUInput(u)} }
}

// Name implements gibbs.Sampler.
func (s *rsuSampler) Name() string {
	return fmt.Sprintf("rsu-g%d-%v", s.unit.Config().Width, s.unit.Config().Mode)
}

// SampleSite implements gibbs.Sampler.
func (s *rsuSampler) SampleSite(m *mrf.Model, lm *img.LabelMap, x, y int, src *rng.Source) int {
	s.app.RSUInput(&s.in, lm, x, y)
	label, _ := s.unit.Sample(s.in, src)
	return int(label)
}

// stageNeighbors writes the four neighbor registers and the current
// label of site (x, y). Borders use replicate padding (consistent with
// mrf.Model's missing-clique treatment: a replicated neighbor has the
// site's own conditional weight pattern; the RSU hardware always reads
// four neighbor registers, so apps mirror the edge site's nearest
// neighbor). codes is the label-decode table from label index to
// datapath code; nil means the identity.
func stageNeighbors(in *rsu.Input, lm *img.LabelMap, x, y int, codes []fixed.Label) {
	for i, off := range mrf.NeighborOffsets {
		l := lm.At(x+off[0], y+off[1])
		if codes != nil {
			in.Neighbors[i] = codes[l]
		} else {
			in.Neighbors[i] = fixed.NewLabel(l)
		}
	}
	in.Current = fixed.NewLabel(lm.At(x, y))
}

// registerWeight reports whether w is exactly representable in the
// RSU's 8-bit integer weight register. Doubleton weights travel through
// the hardware as integers; the software model only accepts weights
// both paths can carry, so any divergence between the two solvers is a
// sampling effect, never a rounding one.
func registerWeight(w float64) bool {
	if w < 0 || w > 255 {
		return false
	}
	//lint:ignore rsulint/floateq exact round-trip test on a configuration input: the register carries precisely uint8(w), so "is w an integer" must be an exact comparison
	return w == float64(uint8(w))
}

// RunSoftware runs the exact software Gibbs chain on an application.
func RunSoftware(ctx context.Context, a App, init *img.LabelMap, opt gibbs.Options, seed uint64) (*gibbs.Result, error) {
	return gibbs.Run(ctx, a.Model(), init, gibbs.NewExactGibbs(), opt, seed)
}

// RunRSU runs the same chain with the RSU-G emulated sampler.
func RunRSU(ctx context.Context, a App, u *rsu.Unit, init *img.LabelMap, opt gibbs.Options, seed uint64) (*gibbs.Result, error) {
	return gibbs.Run(ctx, a.Model(), init, NewRSUSampler(a, u), opt, seed)
}

// PrecomputeSingleton returns a copy of m whose singleton potential is
// served from a precomputed pixels×labels table — the paper's "Opt GPU"
// memoization (§8.1). The table costs W*H*M float64s, which is the
// scaling problem the paper points out.
func PrecomputeSingleton(m *mrf.Model) *mrf.Model {
	table := make([]float64, m.W*m.H*m.M)
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			base := (y*m.W + x) * m.M
			for l := 0; l < m.M; l++ {
				table[base+l] = m.Singleton(x, y, l)
			}
		}
	}
	clone := *m
	clone.Singleton = func(x, y, label int) float64 {
		return table[(y*m.W+x)*m.M+label]
	}
	return &clone
}
