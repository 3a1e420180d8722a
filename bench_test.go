// Root benchmark harness: one benchmark per table and figure of the
// paper's evaluation (§8). Functional benchmarks execute the real code
// at laptop-scale sizes; modeled quantities (Table 2 times, Figure 8
// speedups, accelerator bounds, power/area) are attached as custom
// benchmark metrics so `go test -bench` regenerates every reported
// number in one run. cmd/paperbench prints the same results as text
// tables.
package rsugibbs

import (
	"context"
	"testing"

	"repro/internal/arch"
	"repro/internal/power"
	"repro/internal/prototype"
)

// --- Table 1: cycles to sample from different distributions ---------

func BenchmarkTable1Exponential(b *testing.B) {
	b.ReportAllocs()
	src := NewRand(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = src.Exponential(1.5)
	}
	_ = sink
	reportCycles(b)
}

func BenchmarkTable1Normal(b *testing.B) {
	b.ReportAllocs()
	src := NewRand(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = src.Normal(0, 1)
	}
	_ = sink
	reportCycles(b)
}

func BenchmarkTable1Gamma(b *testing.B) {
	b.ReportAllocs()
	src := NewRand(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = src.Gamma(2.5, 1)
	}
	_ = sink
	reportCycles(b)
}

// reportCycles attaches the modeled E5-2640 cycle count (2.5 GHz).
func reportCycles(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)*2.5, "cycles@2.5GHz")
}

// --- Table 2: application execution times ----------------------------

// benchTable2 runs one real MCMC iteration of the application at
// laptop scale and attaches the modeled full-scale times.
func benchTable2(b *testing.B, app string, size string) {
	g := arch.TitanX()
	for _, r := range arch.Table2(g) {
		if r.App == app && r.Size == size {
			b.ReportMetric(r.Seconds[arch.Baseline], "modelGPU-s")
			b.ReportMetric(r.Seconds[arch.Optimized], "modelOptGPU-s")
			b.ReportMetric(r.Seconds[arch.RSUG1], "modelRSUG1-s")
			b.ReportMetric(r.Seconds[arch.RSUG4], "modelRSUG4-s")
		}
	}
}

func BenchmarkTable2SegmentationSmall(b *testing.B) {
	b.ReportAllocs()
	scene := BlobScene(64, 64, 5, 6, NewRand(1))
	app, err := NewSegmentation(scene.Image, scene.Means, 2, 12)
	if err != nil {
		b.Fatal(err)
	}
	solver, err := NewSolver(app, Config{Backend: SoftwareGibbs, Iterations: 1, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.Solve(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	benchTable2(b, "segmentation", "Small")
}

func BenchmarkTable2SegmentationHD(b *testing.B) {
	b.ReportAllocs()
	// Functional kernel at reduced size; modeled metrics at HD.
	scene := BlobScene(64, 64, 5, 6, NewRand(1))
	app, err := NewSegmentation(scene.Image, scene.Means, 2, 12)
	if err != nil {
		b.Fatal(err)
	}
	solver, err := NewSolver(app, Config{Backend: RSU, Iterations: 1, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.Solve(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	benchTable2(b, "segmentation", "HD")
}

func BenchmarkTable2MotionSmall(b *testing.B) {
	b.ReportAllocs()
	scene := MotionPair(48, 48, 2, -1, 3, 2, NewRand(3))
	app, err := NewMotion(scene.Frame1, scene.Frame2, 3, 1, 8)
	if err != nil {
		b.Fatal(err)
	}
	solver, err := NewSolver(app, Config{Backend: SoftwareGibbs, Iterations: 1, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.Solve(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	benchTable2(b, "motion", "Small")
}

func BenchmarkTable2MotionHD(b *testing.B) {
	b.ReportAllocs()
	scene := MotionPair(48, 48, 2, -1, 3, 2, NewRand(3))
	app, err := NewMotion(scene.Frame1, scene.Frame2, 3, 1, 8)
	if err != nil {
		b.Fatal(err)
	}
	solver, err := NewSolver(app, Config{Backend: RSU, RSUWidth: 4, Iterations: 1, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.Solve(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	benchTable2(b, "motion", "HD")
}

// --- Tables 3 and 4: power and area ----------------------------------

func BenchmarkTable3Power(b *testing.B) {
	b.ReportAllocs()
	var total float64
	for i := 0; i < b.N; i++ {
		total = power.RSUG1Budget(power.N15).TotalPowerMW()
	}
	b.ReportMetric(total, "mW/unit")
	b.ReportMetric(power.SystemAggregate("gpu", 3072, power.N15).PowerW, "W/3072units")
	b.ReportMetric(power.SystemAggregate("acc", 336, power.N15).PowerW, "W/336units")
}

func BenchmarkTable4Area(b *testing.B) {
	b.ReportAllocs()
	var total float64
	for i := 0; i < b.N; i++ {
		total = power.RSUG1Budget(power.N15).TotalAreaUM2()
	}
	b.ReportMetric(total, "um2/unit")
}

// --- Figure 7: prototype segmentation --------------------------------

func BenchmarkFigure7PrototypeIteration(b *testing.B) {
	b.ReportAllocs()
	scene := TwoRegionScene(50, 67, 10, NewRand(7))
	app, err := NewSegmentation(scene.Image, scene.Means, 2, 40)
	if err != nil {
		b.Fatal(err)
	}
	factory := prototypeFactory()
	m := app.Model()
	init := NewLabelMap(50, 67)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runChain(m, init, factory, 1, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(prototype.RunTime(50*67, 10), "modelBench-s")
}

// --- Figure 8: RSU speedups over GPU ---------------------------------

func BenchmarkFigure8Speedups(b *testing.B) {
	b.ReportAllocs()
	g := arch.TitanX()
	var rows []arch.SpeedupRow
	for i := 0; i < b.N; i++ {
		rows = arch.Figure8(g)
	}
	for _, r := range rows {
		if r.Size != "HD" {
			continue
		}
		name := r.App + "-" + r.Unit.String() + "-x"
		b.ReportMetric(r.OverGPU, name)
	}
}

// --- §8.2: discrete accelerator bound --------------------------------

func BenchmarkAcceleratorBound(b *testing.B) {
	b.ReportAllocs()
	g := arch.TitanX()
	a := arch.DefaultAccelerator()
	var rows []arch.AccelRow
	for i := 0; i < b.N; i++ {
		rows = arch.AcceleratorAnalysis(g, a)
	}
	for _, r := range rows {
		if r.Size != "HD" {
			continue
		}
		b.ReportMetric(r.OverGPU, r.App+"-overGPU-x")
	}
	b.ReportMetric(float64(a.Units()), "units")
}

// --- Ablations --------------------------------------------------------

func BenchmarkAblationRSUSampleWidth1(b *testing.B) {
	b.ReportAllocs()
	benchRSUSample(b, 1)
}

func BenchmarkAblationRSUSampleWidth4(b *testing.B) {
	b.ReportAllocs()
	benchRSUSample(b, 4)
}

func benchRSUSample(b *testing.B, width int) {
	scene := BlobScene(32, 32, 5, 6, NewRand(9))
	app, err := NewSegmentation(scene.Image, scene.Means, 2, 12)
	if err != nil {
		b.Fatal(err)
	}
	unit, err := BuildUnit(app, nil, width, Ideal)
	if err != nil {
		b.Fatal(err)
	}
	src := NewRand(10)
	lm := app.InitLabels()
	in := NewRSUInput(unit)
	app.RSUInput(&in, lm, 16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		unit.Sample(in, src)
	}
	b.StopTimer()
	b.ReportMetric(float64(unit.EvalTiming().Cycles), "modelCycles/var")
}

func BenchmarkAblationLUTBuild(b *testing.B) {
	b.ReportAllocs()
	circuit := DefaultLadderCircuit(NewRand(11))
	cfg := UnitConfig{M: 5, Width: 1, ClockHz: 1e9, Circuit: circuit}
	unit, err := NewUnit(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := BuildIntensityMap(unit.Levels(), 12); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPhysicalSampling(b *testing.B) {
	b.ReportAllocs()
	scene := BlobScene(32, 32, 5, 6, NewRand(12))
	app, err := NewSegmentation(scene.Image, scene.Means, 2, 12)
	if err != nil {
		b.Fatal(err)
	}
	unit, err := BuildUnit(app, nil, 1, Physical)
	if err != nil {
		b.Fatal(err)
	}
	src := NewRand(13)
	lm := app.InitLabels()
	in := NewRSUInput(unit)
	app.RSUInput(&in, lm, 16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		unit.Sample(in, src)
	}
}

func BenchmarkRSUUnitLatencyModel(b *testing.B) {
	b.ReportAllocs()
	circuit := DefaultLadderCircuit(NewRand(14))
	var cycles int
	for i := 0; i < b.N; i++ {
		u, err := NewUnit(UnitConfig{M: 49, Width: 1, Vector: true, ClockHz: 1e9, Circuit: circuit})
		if err != nil {
			b.Fatal(err)
		}
		cycles = u.EvalTiming().Cycles
	}
	b.ReportMetric(float64(cycles), "cycles/var-M49-G1")
}

func BenchmarkAcceleratorFunctional(b *testing.B) {
	b.ReportAllocs()
	scene := BlobScene(48, 48, 5, 6, NewRand(15))
	app, err := NewSegmentation(scene.Image, scene.Means, 2, 12)
	if err != nil {
		b.Fatal(err)
	}
	unit, err := BuildUnit(app, nil, 1, Ideal)
	if err != nil {
		b.Fatal(err)
	}
	var stats AccelStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, s, err := RunAccelerator(context.Background(), app, unit, PaperAccelConfig(5, 5, uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		stats = s
	}
	b.StopTimer()
	b.ReportMetric(stats.Seconds, "modelAccel-s")
}

func BenchmarkStagedAcceleratorBound(b *testing.B) {
	b.ReportAllocs()
	s := DefaultStagedAccelerator()
	w := SegmentationWorkload(320, 320)
	var t float64
	for i := 0; i < b.N; i++ {
		t = s.Time(w)
	}
	b.ReportMetric(t, "staged-s")
	b.ReportMetric(s.Accelerator.Time(w), "dram-s")
}

func BenchmarkPipelineThroughputM49(b *testing.B) {
	b.ReportAllocs()
	var stats PipelineStats
	for i := 0; i < b.N; i++ {
		s, err := SimulatePipeline(PipelineConfig{M: 49, Width: 1, Replicas: 4}, 1000)
		if err != nil {
			b.Fatal(err)
		}
		stats = s
	}
	b.ReportMetric(stats.ThroughputCyclesPerVariable, "cycles/var")
}

// --- Sweep engine (BENCH_sweep.json) ---------------------------------

// BenchmarkSweepEngine runs a full segmentation solve through the
// façade with and without the compiled sweep fast path
// (Config.Compile). The per-site numbers behind the committed
// BENCH_sweep.json come from internal/bench (`make sweep-report`);
// this benchmark shows the same speedup end to end, label maps
// bit-identical between the two sub-benchmarks.
func BenchmarkSweepEngine(b *testing.B) {
	b.ReportAllocs()
	for _, compiled := range []bool{false, true} {
		name := "closure"
		if compiled {
			name = "compiled"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			scene := BlobScene(96, 96, 5, 6, NewRand(1))
			app, err := NewSegmentation(scene.Image, scene.Means, 2, 12)
			if err != nil {
				b.Fatal(err)
			}
			solver, err := NewSolver(app, Config{
				Backend: SoftwareGibbs, Iterations: 4,
				Compile: compiled, Seed: 2,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := solver.Solve(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
