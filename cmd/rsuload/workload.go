package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/img"
	"repro/internal/mrf"
	"repro/internal/rng"
	"repro/internal/rsu"
	"repro/internal/serve"
)

// Calibration constants. They were fixed once on the reference machine
// (README.md, "Calibration") and are never derived at run time, so a
// parent commit and a change always receive identical offered load.
const (
	steadyRate    = 4.0         // serve-steady arrivals per second, a third of the lowest capacity calibrated
	restartRate   = 3.0         // serve-restart arrivals per second
	restartPeriod = time.Second // serve-restart: Drain, New, Start this often
	sloMS         = 150.0       // job SLO, about the p95 of serve-steady rounded up to 50 ms
	pollEvery     = 2 * time.Millisecond
	lagLimitMS    = 10.0 // a run whose send lag p99 exceeds this is invalid, not slow
	verifyEvery   = 10   // verify every 10th op ...
	verifyMin     = 5    // ... and at least this many per workload
)

// workload is one input set of the benchmark. Each is chosen to load a
// different layer; README.md says why.
type workload struct {
	name   string
	serve  bool
	window time.Duration // default measuring window when -seconds is not given
	// refMS and refCPUMS are the basis (workload.basis) and the CPU time
	// of one run of the workload's reference work (refwork.go) on the
	// calibration machine. They scale the paced times so that those read
	// about as the raw ones did there.
	refMS, refCPUMS float64
}

var workloads = []workload{
	{name: "restore-batch", window: 30 * time.Second, refMS: 31, refCPUMS: 58},
	{name: "motion-rsu-batch", window: 30 * time.Second, refMS: 24, refCPUMS: 45},
	{name: "serve-steady", serve: true, window: 45 * time.Second, refMS: 1.2, refCPUMS: 2.1},
	{name: "serve-restart", serve: true, window: 45 * time.Second, refMS: 1.2, refCPUMS: 2.1},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// shape fixes every input size. fullShape is the benchmark; the unit
// test runs a reduced shape so each workload takes about a second.
type shape struct {
	restoreSize, restoreLabels, restoreSweeps int
	motionSize, motionSweeps                  int
	jobSize, jobSweeps                        int
	setupReps, serveSetupReps                 int
	replayBatch, replayServe                  int
	restartEvery                              time.Duration
}

var fullShape = shape{
	restoreSize: 256, restoreLabels: 8, restoreSweeps: 50,
	motionSize: 64, motionSweeps: 20,
	jobSize: 32, jobSweeps: 40,
	setupReps: 40, serveSetupReps: 7,
	replayBatch: 5, replayServe: 20,
	restartEvery: restartPeriod,
}

// buildBatch synthesizes a batch workload's scene, constructs its
// application and returns the solver configuration of its timed solves
// (Seed is set per solve).
func buildBatch(name string, sh shape, sceneSeed uint64) (apps.App, core.Config, error) {
	src := rng.New(sceneSeed)
	switch name {
	case "restore-batch":
		scene := img.BlobScene(sh.restoreSize, sh.restoreSize, sh.restoreLabels, 15, src)
		app, err := apps.NewRestoration(scene.Image, sh.restoreLabels, 2, 0, 12, mrf.FirstOrder)
		return app, core.Config{
			BackendName: "software-gibbs",
			Iterations:  sh.restoreSweeps,
			BurnIn:      sh.restoreSweeps / 5,
			Workers:     runtime.NumCPU(),
			Compile:     true,
		}, err
	case "motion-rsu-batch":
		scene := img.MotionPair(sh.motionSize, sh.motionSize, 2, -1, 3, 2, src)
		app, err := apps.NewMotionEstimation(scene.Frame1, scene.Frame2, 3, 1, 8)
		return app, core.Config{
			BackendName: "rsu",
			RSUWidth:    1,
			RSUMode:     rsu.Ideal,
			Iterations:  sh.motionSweeps,
			BurnIn:      sh.motionSweeps / 4,
			Workers:     2,
			Compile:     true,
		}, err
	}
	return nil, core.Config{}, fmt.Errorf("%s is not a batch workload", name)
}

// arrival is one open-loop send: when it is due, for which tenant, and
// the job it submits.
type arrival struct {
	At     time.Duration
	Tenant string
	Spec   serve.JobSpec
}

// servePlan is everything a serve workload sends: the warm-up jobs of
// its setup and the arrival schedule of its window.
type servePlan struct {
	warm     []serve.JobSpec
	arrivals []arrival
}

var jobApps = [3]string{"segmentation", "stereo", "motion"}

// planServe derives a serve workload's inputs from the seed alone. The
// mix is exact: each block of five consecutive jobs holds two
// segmentation, two stereo and one motion job in a seed-drawn order, so
// seeds vary order, scenes and arrival times but never the 40/40/20 mix.
func planServe(name string, sh shape, seed uint64, window time.Duration) (servePlan, error) {
	rate, shared := steadyRate, true
	switch name {
	case "serve-steady":
	case "serve-restart":
		rate, shared = restartRate, false
	default:
		return servePlan{}, fmt.Errorf("%s is not a serve workload", name)
	}
	root := rng.New(seed)
	times, mix, seeds := root.Split(), root.Split(), root.Split()
	spec := func(app string, scene uint64) serve.JobSpec {
		return serve.JobSpec{App: app, Size: sh.jobSize, Labels: 3, SceneSeed: scene,
			Iterations: sh.jobSweeps, Seed: seeds.Uint64()}
	}

	var p servePlan
	// Shared inputs: each app draws its scenes from two seeds, six models
	// in all, which fit the server's model cache; setup warms all six.
	var scenes [3][2]uint64
	for a := range scenes {
		for k := range scenes[a] {
			scenes[a][k] = seeds.Uint64()
			if shared {
				p.warm = append(p.warm, spec(jobApps[a], scenes[a][k]))
			}
		}
	}
	if !shared {
		for _, app := range jobApps {
			p.warm = append(p.warm, spec(app, seeds.Uint64()))
		}
	}

	block := []int{0, 0, 1, 1, 2}
	var order []int
	for t := time.Duration(0); ; {
		t += time.Duration(times.Exponential(rate) * float64(time.Second))
		if t >= window {
			break
		}
		if len(order) == 0 {
			for _, i := range mix.Perm(len(block)) {
				order = append(order, block[i])
			}
		}
		a := order[0]
		order = order[1:]
		scene := scenes[a][seeds.Intn(2)]
		if !shared {
			scene = seeds.Uint64()
		}
		tenant := "alpha"
		if seeds.Bool() {
			tenant = "beta"
		}
		p.arrivals = append(p.arrivals, arrival{At: t, Tenant: tenant, Spec: spec(jobApps[a], scene)})
	}
	return p, nil
}

// serveApp rebuilds a served job's application. The recipe mirrors the
// server's own (internal/serve/jobspec.go buildApp); the replay's digest
// check proves the two agree.
func serveApp(sp serve.JobSpec) (apps.App, error) {
	src := rng.New(sp.SceneSeed)
	switch sp.App {
	case "segmentation":
		scene := img.BlobScene(sp.Size, sp.Size, sp.Labels, 8, src)
		return apps.NewSegmentation(scene.Image, scene.Means, 2, 12)
	case "stereo":
		scene := img.StereoPair(sp.Size, sp.Size, sp.Labels, sp.Labels-1, 2, src)
		return apps.NewStereoVision(scene.Left, scene.Right, sp.Labels, 1, 8)
	case "motion":
		scene := img.MotionPair(sp.Size, sp.Size, 2, -1, 3, 2, src)
		return apps.NewMotionEstimation(scene.Frame1, scene.Frame2, 3, 1, 8)
	}
	return nil, fmt.Errorf("no replay recipe for app %q", sp.App)
}

// serveConfig is the solver configuration the server runs a job with
// under this benchmark's server config: WorkerOverride 1, a checkpoint
// every sweep, resume armed.
func serveConfig(sp serve.JobSpec, ckptPath string) core.Config {
	return core.Config{
		BackendName: "software-gibbs",
		Iterations:  sp.Iterations,
		BurnIn:      min(30, sp.Iterations-1),
		Workers:     1,
		Compile:     true,
		Seed:        sp.Seed,
		Checkpoint:  &core.CheckpointSpec{Path: ckptPath, EverySweeps: 1, Resume: true},
	}
}

// sites returns the site updates one job performs.
func (a arrival) sites() int { return a.Spec.Size * a.Spec.Size * a.Spec.Iterations }
