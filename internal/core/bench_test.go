package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/img"
	"repro/internal/rng"
	"repro/internal/rsu"
)

// BenchmarkRSUSolve times one RSU-G solve end to end in its two
// phases: NewSolver (unit, intensity LUT and compiled tables) and
// Solve (initial labels and the chain), on a 64×64 motion pair with
// the paper's 7×7 window (M=49), RSU-G1 in Ideal mode, 20 sweeps at
// W=2. One untimed NewSolver first builds the process-wide default
// circuit, so new_ms is the per-solver cost.
func BenchmarkRSUSolve(b *testing.B) {
	mp := img.MotionPair(64, 64, 2, -1, 3, 2, rng.New(921))
	app, err := apps.NewMotionEstimation(mp.Frame1, mp.Frame2, 3, 1, 8)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		BackendName: "rsu", RSUWidth: 1, RSUMode: rsu.Ideal,
		Iterations: 20, BurnIn: 5, Workers: 2, Compile: true,
	}
	if _, err := NewSolver(app, cfg); err != nil {
		b.Fatal(err)
	}
	var newTime, solveTime time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		t0 := time.Now()
		s, err := NewSolver(app, cfg)
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		if _, err := s.Solve(context.Background()); err != nil {
			b.Fatal(err)
		}
		newTime += t1.Sub(t0)
		solveTime += time.Since(t1)
	}
	b.ReportMetric(float64(newTime.Microseconds())/1e3/float64(b.N), "new_ms")
	b.ReportMetric(float64(solveTime.Microseconds())/1e3/float64(b.N), "solve_ms")
}
