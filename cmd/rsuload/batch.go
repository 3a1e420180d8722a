package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/serve"
)

// runConfig is one workload run.
type runConfig struct {
	workload workload
	seed     uint64
	window   time.Duration
	trace    bool
	dir      string // scratch directory for state and snapshots; the caller removes it
	shape    shape
	// tamper, when set, rewrites every reference digest before it is
	// compared; the unit test uses it to prove mismatches are caught.
	tamper func(string) string
}

func runWorkload(ctx context.Context, rc runConfig) (*result, *tracer, error) {
	if rc.workload.serve {
		return runServe(ctx, rc)
	}
	return runBatch(ctx, rc)
}

// batchOp is one timed solve, kept for verification and replay.
type batchOp struct {
	seed   uint64
	digest string
}

// runBatch drives a batch workload as a closed loop: one solve at a
// time, each with a new chain seed, on an app built once in setup.
func runBatch(ctx context.Context, rc runConfig) (*result, *tracer, error) {
	sh, name := rc.shape, rc.workload.name
	res := &result{Workload: name, Trace: rc.trace, Valid: true}
	tr := newTracer(rc.trace)
	sceneSeed, chainSeeds := batchSeeds(rc.seed)

	// The reference model has the workload model's shape; building it
	// needs one untimed set-up first.
	a0, cfg, err := buildBatch(name, sh, sceneSeed)
	if err != nil {
		return nil, nil, err
	}
	m := a0.Model()
	ref := newRefModel(m.W, m.H, m.M)

	// Setup is scene synthesis, app construction and solver
	// construction, repeated, each right after a one-goroutine reference
	// run that paces it, as setup runs on one goroutine; the app of the
	// last repetition is used.
	var (
		app    apps.App
		setups []float64
	)
	for i := 0; i < sh.setupReps; i++ {
		runtime.GC() // each repetition starts from the same heap, not the last one's garbage
		rt := ref.run(1)
		p := rc.workload.pace(rc.workload.basis(rt), msOf(rt.cpu))
		t0 := time.Now()
		a, _, err := buildBatch(name, sh, sceneSeed)
		if err != nil {
			return nil, nil, err
		}
		if _, err := core.NewSolver(a, cfg); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds()*p.wall)
		app = a
	}
	// One untimed solve lets pools and page mappings settle.
	if _, err := solveDigest(ctx, app, cfg); err != nil {
		return nil, nil, err
	}

	// Each solve runs right after a reference run on as many goroutines as
	// it has workers, which paces its times.
	sitesPerOp := m.W * m.H * cfg.Iterations
	var (
		lat, raw, cpus, paces, rssSamples []float64
		refBasis, refCPU                  []float64
		ops                               []batchOp
	)
	start := time.Now()
	for i := 1; time.Since(start) < rc.window; i++ {
		c := cfg
		c.Seed = chainSeeds.Uint64()
		rt := ref.run(cfg.Workers)
		p := rc.workload.pace(rc.workload.basis(rt), msOf(rt.cpu))
		op := tr.begin("op", i, 0)
		cpu0, t0 := cpuTime(), time.Now()
		ns := tr.begin("core.new_solver", i, op)
		solver, err := core.NewSolver(app, c)
		tr.end(ns)
		if err != nil {
			return nil, nil, err
		}
		cs := tr.begin("core.solve", i, op)
		out, err := solver.Solve(ctx)
		tr.end(cs)
		d, cpu := time.Since(t0), cpuTime()-cpu0
		tr.end(op)
		res.Attempted++
		if err != nil {
			if ctx.Err() != nil {
				return nil, nil, err
			}
			res.Failed++
			continue
		}
		raw = append(raw, msOf(d))
		lat = append(lat, msOf(d)*p.wall)
		cpus = append(cpus, msOf(cpu)*p.cpu)
		paces = append(paces, p.wall)
		refBasis, refCPU = append(refBasis, rc.workload.basis(rt)), append(refCPU, msOf(rt.cpu))
		ops = append(ops, batchOp{c.Seed, serve.Digest(out)})
		if r, err := rssMiB(); err == nil {
			rssSamples = append(rssSamples, r)
		}
	}
	wall, windowSpans := time.Since(start), len(tr.spans)
	if len(ops) == 0 {
		return nil, nil, fmt.Errorf("%s: no solve completed in %v", name, rc.window)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, nil, err
	}
	res.add("setup_s", percentile(setups, .5), "s")
	res.add("latency_p50_ms", percentile(lat, .5), "ms")
	res.add("throughput_msites_s", float64(len(ops)*sitesPerOp)/sum(lat)/1e3, "Msite/s")
	res.add("cpu_ms_per_op", percentile(cpus, .5), "ms")
	res.add("rss_p50_mb", percentile(rssSamples, .5), "MiB")
	res.add("peak_rss_mb", rss, "MiB")
	res.add("loadgen.latency_p90_ms", percentile(lat, .9), "ms")
	res.add("loadgen.latency_p99_ms", percentile(lat, .99), "ms")
	res.add("loadgen.raw_latency_p50_ms", percentile(raw, .5), "ms")
	res.add("loadgen.pace_p50", percentile(paces, .5), "ratio")
	res.add("loadgen.ref_ms", percentile(refBasis, .5), "ms")
	res.add("loadgen.ref_cpu_ms", percentile(refCPU, .5), "ms")
	res.add("loadgen.sent", float64(res.Attempted), "count")
	for _, z := range serveLayer {
		res.add(z.Name, 0, z.Unit)
	}

	// Verification: re-solve a sample on the reference path (closure
	// energies, one worker) and require identical result digests.
	for _, i := range verifySample(len(ops)) {
		slow := cfg
		slow.Compile, slow.Workers, slow.Seed = false, 1, ops[i].seed
		d, err := solveDigest(ctx, app, slow)
		if err != nil {
			return nil, nil, err
		}
		if rc.tamper != nil {
			d = rc.tamper(d)
		}
		if d != ops[i].digest {
			res.Mismatches++
		}
	}
	res.add("verify.sampled", float64(len(verifySample(len(ops)))), "count")
	res.add("error_frac", float64(res.Failed+res.Mismatches)/float64(res.Attempted), "ratio")

	if rc.trace {
		var cases []replayCase
		for _, i := range evenly(len(ops), sh.replayBatch) {
			c := cfg
			c.Seed = ops[i].seed
			cases = append(cases, replayCase{
				build: func() (apps.App, error) {
					a, _, err := buildBatch(name, sh, sceneSeed)
					return a, err
				},
				cfg:  c,
				want: ops[i].digest,
			})
		}
		if err := replay(ctx, rc, tr, cases, res); err != nil {
			return nil, nil, err
		}
		res.add("loadgen.trace_overhead_frac", overheadFrac(windowSpans, wall), "ratio")
	}
	return res, tr, nil
}

// batchSeeds derives a batch workload's scene seed and the stream of
// its per-solve chain seeds from the run seed.
func batchSeeds(seed uint64) (scene uint64, chains *rng.Source) {
	root := rng.New(seed)
	return root.Uint64(), root.Split()
}

// solveDigest runs one solve and returns its result digest.
func solveDigest(ctx context.Context, app apps.App, cfg core.Config) (string, error) {
	solver, err := core.NewSolver(app, cfg)
	if err != nil {
		return "", err
	}
	out, err := solver.Solve(ctx)
	if err != nil {
		return "", err
	}
	return serve.Digest(out), nil
}

// verifySample picks every verifyEvery-th of n ops, spaced closer when
// that would give fewer than verifyMin.
func verifySample(n int) []int {
	step := verifyEvery
	if n/step < verifyMin {
		step = max(1, n/verifyMin)
	}
	var idx []int
	for i := 0; i < n; i += step {
		idx = append(idx, i)
	}
	return idx
}

// evenly picks k indices spread evenly over n (all of them when n <= k).
func evenly(n, k int) []int {
	if n <= k {
		k = n
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i * n / k
	}
	return idx
}

// overheadFrac estimates what span recording cost the traced window:
// the spans it recorded times the measured cost of one, over its wall
// time.
func overheadFrac(spans int, wall time.Duration) float64 {
	return float64(time.Duration(spans)*spanCost()) / float64(wall)
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }
