package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/gibbs"
)

// checkpointSweeps is the chain length of one timed run: long enough
// that an every-10-sweeps policy fires twice per run, short enough that
// testing.Benchmark converges quickly.
const checkpointSweeps = 20

// CheckpointMeasurement is one timed configuration of the checkpoint
// overhead experiment.
type CheckpointMeasurement struct {
	Config      string  `json:"config"`
	NsPerSweep  float64 `json:"ns_per_sweep"`
	NsPerSite   float64 `json:"ns_per_site"`
	SnapshotLen int     `json:"snapshot_bytes,omitempty"`
}

// measureCheckpointed times checkpointSweeps-sweep exact-Gibbs runs on
// the acceptance grid (256x256, M=16, compiled, checkerboard), with a
// durable every-N-sweeps checkpoint policy when everySweeps > 0. Each
// run saves through its own checkpoint.Writer, as core.Solve does.
func measureCheckpointed(ctx context.Context, everySweeps int, path string) (CheckpointMeasurement, error) {
	model, init := sweepModel(sweepGridW, sweepGridH, 16)
	if err := model.Compile(); err != nil {
		return CheckpointMeasurement{}, err
	}
	opt := gibbs.Options{
		Iterations: checkpointSweeps,
		Schedule:   gibbs.Checkerboard,
		Workers:    runtime.GOMAXPROCS(0),
	}
	name := "no checkpoints"
	if everySweeps > 0 {
		name = fmt.Sprintf("checkpoint every %d sweeps", everySweeps)
	}
	var runErr error
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var ckw *checkpoint.Writer
			if everySweeps > 0 {
				ckw = checkpoint.NewWriter(path)
				opt.Checkpoint = &gibbs.CheckpointPolicy{EverySweeps: everySweeps, Sink: ckw.Save}
			}
			_, err := gibbs.Run(ctx, model, init, gibbs.NewExactGibbs(), opt, 7)
			if ckw != nil {
				ckw.Close()
			}
			if err != nil {
				runErr = err
				b.FailNow()
			}
		}
	})
	if runErr != nil {
		return CheckpointMeasurement{}, runErr
	}
	meas := CheckpointMeasurement{
		Config:     name,
		NsPerSweep: float64(r.NsPerOp()) / checkpointSweeps,
		NsPerSite:  float64(r.NsPerOp()) / checkpointSweeps / float64(sweepGridW*sweepGridH),
	}
	if path != "" {
		if fi, err := os.Stat(path); err == nil {
			meas.SnapshotLen = int(fi.Size())
		}
	}
	return meas, nil
}

// Checkpoint measures the wall-clock overhead of the durable-snapshot
// policy on the acceptance configuration (exact-Gibbs checkerboard,
// 256x256, M=16, compiled): a run checkpointing every 10 sweeps vs the
// same run with checkpoints off. The acceptance bound for the
// every-10-sweeps policy is < 5% (ISSUE 4); the experiment also
// verifies the written snapshot round-trips through Load. ctx cancels
// cooperatively between (and, via gibbs.Run, inside) the timed
// configurations.
func Checkpoint(ctx context.Context, w io.Writer) error {
	dir, err := os.MkdirTemp("", "ckpt-bench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "bench.ckpt")

	base, err := measureCheckpointed(ctx, 0, "")
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("bench: checkpoint experiment stopped: %w", err)
	}
	every10, err := measureCheckpointed(ctx, 10, path)
	if err != nil {
		return err
	}
	// The durable artifact the overhead pays for must actually load.
	snap, err := checkpoint.Load(path)
	if err != nil {
		return fmt.Errorf("bench: written snapshot does not load: %w", err)
	}

	t := Table{
		Title: fmt.Sprintf("Checkpoint overhead (exact Gibbs, %dx%d, M=16, compiled, %d sweeps/run, %d worker(s))",
			sweepGridW, sweepGridH, checkpointSweeps, runtime.GOMAXPROCS(0)),
		Header: []string{"Config", "ns/sweep", "ns/site"},
	}
	for _, m := range []CheckpointMeasurement{base, every10} {
		t.AddRow(m.Config, fmt.Sprintf("%.0f", m.NsPerSweep), fmt.Sprintf("%.2f", m.NsPerSite))
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	overhead := (every10.NsPerSweep/base.NsPerSweep - 1) * 100
	fmt.Fprintf(w, "snapshot: %d bytes at sweep %d (validated round-trip)\n", every10.SnapshotLen, snap.Sweep)
	fmt.Fprintf(w, "every-10-sweeps overhead: %.2f%% (acceptance bound: < 5%%)\n", overhead)
	return nil
}
