package apps

import (
	"testing"

	"repro/internal/fixed"
	"repro/internal/img"
	"repro/internal/mrf"
	"repro/internal/rng"
	"repro/internal/rsu"
)

// rsuApps builds one instance of each application on a w×h scene; the
// restoration app runs the second-order (RSU-G8) neighborhood so the
// diagonal registers are staged too.
func rsuApps(t testing.TB, w, h int) []App {
	t.Helper()
	src := rng.New(31)
	blobs := img.BlobScene(w, h, 5, 6, src)
	seg, err := NewSegmentation(blobs.Image, blobs.Means, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	mp := img.MotionPair(w, h, 2, -1, 3, 2, src)
	motion, err := NewMotionEstimation(mp.Frame1, mp.Frame2, 3, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	sp := img.StereoPair(w, h, 5, 3, 2, src)
	stereo, err := NewStereoVision(sp.Left, sp.Right, 5, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	_, noisy := restorationScene(w, h, 4, 10, 32)
	restore, err := NewRestoration(noisy, 4, 2, 1, 10, mrf.SecondOrder)
	if err != nil {
		t.Fatal(err)
	}
	return []App{motion, stereo, seg, restore}
}

// randomLabels returns a uniformly random labeling of the app's sites.
func randomLabels(a App, src *rng.Source) *img.LabelMap {
	m := a.Model()
	lm := img.NewLabelMap(m.W, m.H)
	for i := range lm.Labels {
		lm.Labels[i] = uint8(src.Intn(m.M))
	}
	return lm
}

// TestRSUInputMatchesModel: at every site — interior gathers and
// clamped borders alike — the staged operands reproduce the software
// model's singleton (saturated to 8 bits) for every label, the neighbor
// registers carry the neighbors' datapath codes, and Current is the
// site's label.
func TestRSUInputMatchesModel(t *testing.T) {
	src := rng.New(33)
	for _, a := range rsuApps(t, 19, 13) {
		m := a.Model()
		unit, err := BuildUnit(a, nil, 1, rsu.Ideal)
		if err != nil {
			t.Fatal(err)
		}
		lm := randomLabels(a, src)
		in := NewRSUInput(unit)
		for y := 0; y < m.H; y++ {
			for x := 0; x < m.W; x++ {
				a.RSUInput(&in, lm, x, y)
				for l := 0; l < m.M; l++ {
					// The 8-bit datapath saturates what the model keeps.
					got := fixed.SingletonEnergy(in.Data1, in.Data2PerLabel[l], 1)
					if want := min(m.Singleton(x, y, l), fixed.MaxEnergy); float64(got) != want {
						t.Fatalf("%s (%d,%d) label %d: staged singleton %d, model %v", a.Name(), x, y, l, got, want)
					}
				}
				for i, off := range mrf.NeighborOffsets {
					if want := unit.LabelCode(lm.At(x+off[0], y+off[1])); in.Neighbors[i] != want {
						t.Fatalf("%s (%d,%d) neighbor %d: code %d, want %d", a.Name(), x, y, i, in.Neighbors[i], want)
					}
				}
				if int(in.Current) != lm.At(x, y) {
					t.Fatalf("%s (%d,%d): current %d, want %d", a.Name(), x, y, in.Current, lm.At(x, y))
				}
			}
		}
	}
}

// TestRSUSampleSiteAllocFree: the RSU sampler's per-site update —
// operand staging plus the unit's race — allocates nothing, for every
// application.
func TestRSUSampleSiteAllocFree(t *testing.T) {
	src := rng.New(34)
	for _, a := range rsuApps(t, 16, 16) {
		unit, err := BuildUnit(a, nil, 1, rsu.Ideal)
		if err != nil {
			t.Fatal(err)
		}
		m := a.Model()
		lm := a.InitLabels()
		s := NewRSUSampler(a, unit)()
		x, y := 0, 0
		allocs := testing.AllocsPerRun(200, func() {
			lm.Set(x, y, s.SampleSite(m, lm, x, y, src))
			// Walk the grid so border and interior sites both run.
			if x++; x == m.W {
				x, y = 0, (y+1)%m.H
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: %v allocs per SampleSite, want 0", a.Name(), allocs)
		}
	}
}

// BenchmarkRSUSweep measures the RSU backend's per-site cost, one full
// raster sweep of a 64×64 grid per op through the gibbs.Sampler the
// rsu backend installs: motion (M=49, vector labels) and segmentation
// (M=5, scalar labels). Reports ns/site; allocs/op is per sweep.
func BenchmarkRSUSweep(b *testing.B) {
	const size = 64
	src := rng.New(35)
	mp := img.MotionPair(size, size, 2, -1, 3, 2, src)
	motion, err := NewMotionEstimation(mp.Frame1, mp.Frame2, 3, 1, 8)
	if err != nil {
		b.Fatal(err)
	}
	blobs := img.BlobScene(size, size, 5, 6, src)
	seg, err := NewSegmentation(blobs.Image, blobs.Means, 2, 12)
	if err != nil {
		b.Fatal(err)
	}
	for _, a := range []App{motion, seg} {
		b.Run(a.Name(), func(b *testing.B) {
			unit, err := BuildUnit(a, nil, 1, rsu.Ideal)
			if err != nil {
				b.Fatal(err)
			}
			m := a.Model()
			lm := a.InitLabels()
			s := NewRSUSampler(a, unit)()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for y := 0; y < m.H; y++ {
					for x := 0; x < m.W; x++ {
						lm.Set(x, y, s.SampleSite(m, lm, x, y, src))
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m.W*m.H), "ns/site")
		})
	}
}
