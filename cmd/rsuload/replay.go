package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/apps"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/gibbs"
	"repro/internal/img"
	"repro/internal/mrf"
	"repro/internal/sampler"
	"repro/internal/serve"
)

// replayTrace numbers the replay's traces above any window trace.
const replayTrace = 1 << 20

// probeSweeps is how many snapshots the checkpoint probe saves per
// batch replay case (batch solves never checkpoint on their own).
const probeSweeps = 5

// replayCase is one timed op replayed through the layer chain.
type replayCase struct {
	build func() (apps.App, error)
	cfg   core.Config // Checkpoint, when set, is re-pointed at a scratch file
	want  string      // digest of the timed op
}

// replay runs each case through the calls core.Solve makes, each in its
// own span — app build, InitLabels, Compile, NewSolver, the sampler
// instance, gibbs.Run with a sink that times every checkpoint.Save —
// then core.Solve itself on the same input, and adds the per-layer
// metrics to res. Both digests must equal the timed op's.
func replay(ctx context.Context, rc runConfig, tr *tracer, cases []replayCase, res *result) error {
	dir := filepath.Join(rc.dir, "replay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var (
		compileAlloc, snapBytes []float64
		sites, allocsPerSweep   float64
		w1, wN                  time.Duration
	)
	nproc := runtime.NumCPU()
	for k, c := range cases {
		tid := replayTrace + k
		root := tr.begin("replay", tid, 0)
		sp := tr.begin("apps.build", tid, root)
		app, err := c.build()
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("apps.init", tid, root)
		init := app.InitLabels()
		tr.end(sp)

		m := app.Model()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sp = tr.begin("mrf.compile", tid, root)
		if c.cfg.Compile {
			err = m.Compile()
		}
		tr.end(sp)
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		compileAlloc = append(compileAlloc, float64(after.TotalAlloc-before.TotalAlloc))

		cfg := c.cfg
		snap := filepath.Join(dir, fmt.Sprintf("%d.ckpt", k))
		if cfg.Checkpoint != nil {
			ck := *cfg.Checkpoint
			ck.Path = snap
			cfg.Checkpoint = &ck
		}
		sp = tr.begin("core.new_solver", tid, root)
		solver, err := core.NewSolver(app, cfg)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("sampler.instance", tid, root)
		inst, err := samplerInstance(app, cfg)
		tr.end(sp)
		if err != nil {
			return err
		}

		opt := gibbs.Options{
			Iterations:        cfg.Iterations,
			BurnIn:            cfg.BurnIn,
			Schedule:          gibbs.Checkerboard,
			Workers:           cfg.Workers,
			TrackMode:         true,
			RecordEnergyEvery: 1,
		}
		var run int
		sink := func(s *checkpoint.Snapshot) error {
			id := tr.begin("checkpoint.save", tid, run)
			err := checkpoint.Save(snap, s)
			tr.end(id)
			if err != nil {
				return err
			}
			fi, err := os.Stat(snap)
			if err != nil {
				return err
			}
			snapBytes = append(snapBytes, float64(fi.Size()))
			return nil
		}
		chain := opt
		if cfg.Checkpoint != nil {
			chain.Checkpoint = &gibbs.CheckpointPolicy{EverySweeps: 1, Fingerprint: solver.Fingerprint(), Sink: sink}
		}
		run = tr.begin("gibbs.run", tid, root)
		gr, err := gibbs.Run(ctx, m, init, inst.Factory(), chain, cfg.Seed)
		tr.end(run)
		if err != nil {
			return err
		}
		if digestOf(gr) != c.want {
			res.Mismatches++
		}

		if cfg.Checkpoint == nil {
			// Batch solves never checkpoint; the probe measures what one
			// durable snapshot of this chain would cost.
			run = 0
			probe := opt
			probe.Iterations, probe.BurnIn = probeSweeps+1, 0
			probe.Checkpoint = &gibbs.CheckpointPolicy{EverySweeps: 1, Fingerprint: solver.Fingerprint(), Sink: sink}
			if _, err := gibbs.Run(ctx, m, init, inst.Factory(), probe, cfg.Seed); err != nil {
				return err
			}
		}
		sp = tr.begin("checkpoint.load", tid, root)
		_, err = checkpoint.Load(snap)
		tr.end(sp)
		if err != nil {
			return err
		}

		if cfg.Checkpoint != nil {
			ck := *cfg.Checkpoint
			ck.Path = snap + ".solve"
			cfg.Checkpoint = &ck
		}
		solver, err = core.NewSolver(app, cfg)
		if err != nil {
			return err
		}
		sp = tr.begin("core.solve", tid, root)
		out, err := solver.Solve(ctx)
		tr.end(sp)
		tr.end(root)
		if err != nil {
			return err
		}
		if serve.Digest(out) != c.want {
			res.Mismatches++
		}

		// Engine scaling: the same compiled chain at one worker and at
		// nproc workers, without checkpoints.
		for _, w := range []int{1, nproc} {
			o := opt
			o.Workers = w
			t0 := time.Now()
			if _, err := gibbs.Run(ctx, m, init, inst.Factory(), o, cfg.Seed); err != nil {
				return err
			}
			if w == 1 {
				w1 += time.Since(t0)
			} else {
				wN += time.Since(t0)
			}
		}
		sites += float64(m.W * m.H * cfg.Iterations)
		if k == 0 {
			// Steady-state allocations: the difference between a long
			// and a short run, per extra sweep.
			a5, err := runAllocs(ctx, m, init, inst.Factory(), opt, 5)
			if err != nil {
				return err
			}
			a25, err := runAllocs(ctx, m, init, inst.Factory(), opt, 25)
			if err != nil {
				return err
			}
			allocsPerSweep = float64(a25-a5) / 20
		}
		for _, p := range []string{snap, snap + ".solve"} {
			if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}

	med := func(name string) float64 { return percentile(tr.durations(name, replayTrace), .5) }
	saveMS := tr.durations("checkpoint.save", replayTrace)
	res.add("apps.build_ms", med("apps.build"), "ms")
	res.add("apps.init_ms", med("apps.init"), "ms")
	res.add("mrf.compile_ms", med("mrf.compile"), "ms")
	res.add("mrf.compile_alloc_bytes", percentile(compileAlloc, .5), "B")
	res.add("sampler.new_ms", med("core.new_solver"), "ms")
	res.add("sampler.instance_ms", med("sampler.instance"), "ms")
	nsW1, nsWN := float64(w1)/sites, float64(wN)/sites
	res.add("gibbs.ns_per_site_w1", nsW1, "ns")
	res.add("gibbs.ns_per_site_wN", nsWN, "ns")
	res.add("gibbs.scaling_eff", nsW1/(float64(nproc)*nsWN), "ratio")
	res.add("gibbs.allocs_per_sweep", allocsPerSweep, "count")
	res.add("checkpoint.save_p50_ms", percentile(saveMS, .5), "ms")
	res.add("checkpoint.save_p90_ms", percentile(saveMS, .9), "ms")
	res.add("checkpoint.snapshot_bytes", percentile(snapBytes, .5), "B")
	res.add("checkpoint.load_ms", med("checkpoint.load"), "ms")
	solve := tr.durations("core.solve", replayTrace)
	res.add("core.solve_ms", percentile(solve, .5), "ms")
	attributed := sum(tr.durations("apps.init", replayTrace)) + sum(tr.durations("mrf.compile", replayTrace)) +
		sum(tr.durations("gibbs.run", replayTrace))
	res.add("core.unattributed_frac", 1-attributed/sum(solve), "ratio")
	share := 0.0 // batch solves save no snapshots; the probe's saves are not theirs
	if cases[0].cfg.Checkpoint != nil {
		share = sum(saveMS) / sum(solve)
	}
	res.add("checkpoint.save_share", share, "ratio")
	res.add("replay.cases", float64(len(cases)), "count")
	return nil
}

// samplerInstance builds the registry backend instance the solver would
// hand the sweep engine.
func samplerInstance(app apps.App, cfg core.Config) (sampler.Instance, error) {
	be, ok := sampler.Lookup(cfg.BackendName)
	if !ok {
		return nil, fmt.Errorf("unknown backend %q", cfg.BackendName)
	}
	return be.New(sampler.BuildSpec{App: app, RSUWidth: cfg.RSUWidth, RSUMode: cfg.RSUMode})
}

// digestOf hashes a chain result the way the server hashes a solve.
func digestOf(gr *gibbs.Result) string {
	return serve.Digest(&core.Result{
		MAP: gr.MAP, Final: gr.Final, Confidence: gr.Confidence,
		EnergyTrace: gr.EnergyTrace, Iterations: gr.Iterations,
	})
}

// runAllocs counts heap allocations of one chain run of iters sweeps.
func runAllocs(ctx context.Context, m *mrf.Model, init *img.LabelMap, f gibbs.Factory, opt gibbs.Options, iters int) (uint64, error) {
	opt.Iterations, opt.BurnIn = iters, 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := gibbs.Run(ctx, m, init, f, opt, 1)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, err
}
