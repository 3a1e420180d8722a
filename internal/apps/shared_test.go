package apps_test

import (
	"bytes"
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/fixed"
	"repro/internal/img"
	"repro/internal/ret"
	"repro/internal/rng"
	"repro/internal/rsu"
)

// TestDefaultCircuitIsShared: every nil-circuit unit gets the one
// process-wide ladder circuit, and that circuit's ladder is bit-equal
// to a freshly built DefaultLadderCircuit(rng.New(0)).
func TestDefaultCircuitIsShared(t *testing.T) {
	blobs := img.BlobScene(16, 16, 3, 6, rng.New(1))
	seg, err := apps.NewSegmentation(blobs.Image, blobs.Means, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	a, err := apps.BuildUnit(seg, nil, 1, rsu.Ideal)
	if err != nil {
		t.Fatal(err)
	}
	b, err := apps.BuildUnit(seg, nil, 4, rsu.Physical)
	if err != nil {
		t.Fatal(err)
	}
	if a.Config().Circuit != b.Config().Circuit {
		t.Fatal("two nil-circuit units got different circuits")
	}
	fresh := ret.DefaultLadderCircuit(rng.New(0))
	for code := uint8(0); code < 16; code++ {
		got, want := a.Config().Circuit.EffectiveRate(code), fresh.EffectiveRate(code)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("code %d: shared circuit rate %v, fresh %v", code, got, want)
		}
	}
}

// TestConcurrentSolversShareCircuit: eight solvers built and run at
// once on one app (so on one shared circuit) agree label for label;
// under -race this also shows that nothing writes the circuit.
func TestConcurrentSolversShareCircuit(t *testing.T) {
	mp := img.MotionPair(24, 24, 2, -1, 3, 2, rng.New(5))
	app, err := apps.NewMotionEstimation(mp.Frame1, mp.Frame2, 3, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		BackendName: "rsu", RSUWidth: 1, RSUMode: rsu.Ideal,
		Iterations: 4, BurnIn: 1, Workers: 2, Compile: true, Seed: 9,
	}
	const solvers = 8
	finals := make([][]uint8, solvers)
	maps := make([][]uint8, solvers)
	errs := make([]error, solvers)
	var wg sync.WaitGroup
	for i := 0; i < solvers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := core.NewSolver(app, cfg)
			if err != nil {
				errs[i] = err
				return
			}
			res, err := s.Solve(context.Background())
			if err != nil {
				errs[i] = err
				return
			}
			finals[i], maps[i] = res.Final.Labels, res.MAP.Labels
		}(i)
	}
	wg.Wait()
	for i := 0; i < solvers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bytes.Equal(finals[i], finals[0]) || !bytes.Equal(maps[i], maps[0]) {
			t.Fatalf("solver %d diverged from solver 0", i)
		}
	}
}

// TestMotionSingletonMatchesFrameExpression: the motion singleton
// served from the quantized frame equals the squared difference of
// the quantized frame-1 pixel and the clamped frame-2 pixel at the
// candidate position, for every site and label (border and interior)
// of odd-sized random frames at every window radius, and InitLabels is
// the argmin of that expression.
func TestMotionSingletonMatchesFrameExpression(t *testing.T) {
	const w, h = 37, 23
	src := rng.New(12)
	f1, f2 := img.NewGray(w, h), img.NewGray(w, h)
	for i := range f1.Pix {
		f1.Pix[i], f2.Pix[i] = uint8(src.Intn(256)), uint8(src.Intn(256))
	}
	for r := 1; r <= 3; r++ {
		m, err := apps.NewMotionEstimation(f1, f2, r, 1, 8)
		if err != nil {
			t.Fatal(err)
		}
		frameExpr := func(x, y, label int) float64 {
			dx, dy := m.Window.Vec(label)
			d := int(fixed.Quantize6(f1.At(x, y))) - int(fixed.Quantize6(f2.At(x+dx, y+dy)))
			return float64(d * d)
		}
		model := m.Model()
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				for l := 0; l < model.M; l++ {
					if got, want := model.Singleton(x, y, l), frameExpr(x, y, l); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("r=%d site (%d,%d) label %d: singleton %v, frame expression %v", r, x, y, l, got, want)
					}
				}
			}
		}
		ref := *model
		ref.Singleton = frameExpr
		if got, want := m.InitLabels(), apps.ArgminSingletonInit(&ref); !bytes.Equal(got.Labels, want.Labels) {
			t.Fatalf("r=%d: InitLabels differs from the argmin of the frame expression", r)
		}
	}
}
