// Package accel is a functional simulator of the paper's discrete
// accelerator (§3, §6.2): an array of RSU-G units behind custom control
// logic that streams the image from DRAM, updates one checkerboard
// color at a time, and is designed so "the upper bound is dictated by
// memory bandwidth limitations".
//
// Unlike internal/arch (analytic bounds only), this simulator actually
// performs the inference — every pixel update goes through a real
// emulated RSU-G — while accounting cycles the way the hardware would:
// per color phase, the unit array sustains Units parallel evaluations
// pipelined at the unit's per-variable throughput, and the memory
// system delivers BytesPerPixel per site at MemBW. The phase time is
// the max of the two; tests verify the simulated totals converge to the
// §8.2 analytic bound whenever memory is the bottleneck.
package accel

import (
	"context"
	"fmt"

	"repro/internal/apps"
	"repro/internal/img"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/rsu"
)

// Config describes the accelerator organization.
type Config struct {
	// Units is the number of RSU-G units in the array (336 in the
	// paper's 336 GB/s design).
	Units int
	// ClockHz is the accelerator clock (1 GHz).
	ClockHz float64
	// MemBW is the DRAM bandwidth in bytes/s.
	MemBW float64
	// BytesPerPixel is the per-site DRAM traffic per iteration (5 for
	// segmentation, 54 for motion; §8.2).
	BytesPerPixel float64
	// Iterations is the MCMC iteration count.
	Iterations int
	// Seed drives the (deterministic) sampling.
	Seed uint64
	// Recorder optionally receives pipeline instrumentation: color-phase
	// spans, site/sweep counters, compute- vs memory-bound phase counts
	// and the unit's pipeline timing gauges. Nil records nothing; the
	// field never influences sampling and is excluded from Validate.
	Recorder obs.Recorder
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Units < 1 || c.ClockHz <= 0 || c.MemBW <= 0 || c.BytesPerPixel <= 0 || c.Iterations < 1 {
		return fmt.Errorf("accel: invalid config %+v", c)
	}
	return nil
}

// Stats reports the simulated run.
type Stats struct {
	// Cycles is the total simulated cycle count.
	Cycles float64
	// Seconds is Cycles / ClockHz.
	Seconds float64
	// ComputeBoundPhases and MemoryBoundPhases count which resource
	// limited each color phase.
	ComputeBoundPhases, MemoryBoundPhases int
	// AnalyticBoundSeconds is the §8.2 bytes/bandwidth lower bound for
	// the same run, for comparison.
	AnalyticBoundSeconds float64
}

// Run performs `cfg.Iterations` checkerboard sweeps of the application
// on the simulated accelerator and returns the final labeling, the
// per-site mode over the second half of the run (a marginal-MAP
// estimate), and the timing statistics. Cancellation is cooperative and
// checked between sweeps; on ctx cancel Run returns the state simulated
// so far (final labels, mode over completed post-half sweeps,
// accumulated cycle stats) together with an error wrapping ctx.Err().
func Run(ctx context.Context, a apps.App, unit *rsu.Unit, cfg Config) (*img.LabelMap, *img.LabelMap, Stats, error) {
	var stats Stats
	if err := cfg.Validate(); err != nil {
		return nil, nil, stats, err
	}
	m := a.Model()
	if err := m.Validate(); err != nil {
		return nil, nil, stats, err
	}
	lm := a.InitLabels()
	src := rng.New(cfg.Seed)

	// Per-variable pipelined cost of one unit, in cycles: the initiation
	// interval is steps×interval (EvalTiming without the constant drain,
	// which is amortized across the wave).
	timing := unit.EvalTiming()
	perVarCycles := float64(timing.Steps)
	if r := unit.Config().Replicas; r < rsu.QuiescenceCycles {
		perVarCycles *= float64((rsu.QuiescenceCycles + r - 1) / r)
	}
	drain := float64(timing.Cycles) - perVarCycles + 1

	rec := cfg.Recorder
	obs.Gauge(rec, "accel.pipeline.eval_cycles", float64(timing.Cycles))
	obs.Gauge(rec, "accel.pipeline.eval_steps", float64(timing.Steps))
	obs.Gauge(rec, "accel.pipeline.per_var_cycles", perVarCycles)
	obs.Gauge(rec, "accel.pipeline.drain_cycles", drain)

	counts := make([]uint32, m.W*m.H*m.M)
	in := apps.NewRSUInput(unit)
	half := cfg.Iterations / 2

	bytesPerSecond := cfg.MemBW
	var stopErr error
	for it := 0; it < cfg.Iterations; it++ {
		if err := ctx.Err(); err != nil {
			stopErr = fmt.Errorf("accel: run stopped before sweep %d/%d: %w", it, cfg.Iterations, err)
			break
		}
		for color := 0; color < m.Hood.Colors(); color++ {
			endPhase := obs.Span(rec, "accel.color_phase")
			sites := 0
			for y := 0; y < m.H; y++ {
				for x := 0; x < m.W; x++ {
					if m.Hood.ColorOf(x, y) != color {
						continue
					}
					sites++
					a.RSUInput(&in, lm, x, y)
					label, _ := unit.Sample(in, src)
					lm.Set(x, y, int(label))
				}
			}
			// Phase timing: Units-wide array, pipelined issue.
			computeCycles := float64(sites)/float64(cfg.Units)*perVarCycles + drain
			memoryCycles := float64(sites) * cfg.BytesPerPixel / bytesPerSecond * cfg.ClockHz
			if computeCycles >= memoryCycles {
				stats.ComputeBoundPhases++
				stats.Cycles += computeCycles
				obs.Add(rec, "accel.phases.compute_bound", 1)
			} else {
				stats.MemoryBoundPhases++
				stats.Cycles += memoryCycles
				obs.Add(rec, "accel.phases.memory_bound", 1)
			}
			obs.Add(rec, "accel.sites", int64(sites))
			endPhase()
		}
		obs.Add(rec, "accel.sweeps", 1)
		if it >= half {
			for i, l := range lm.Labels {
				counts[i*m.M+int(l)]++
			}
		}
	}
	stats.Seconds = stats.Cycles / cfg.ClockHz
	stats.AnalyticBoundSeconds = float64(m.W*m.H) * float64(cfg.Iterations) * cfg.BytesPerPixel / cfg.MemBW

	mode := img.NewLabelMap(m.W, m.H)
	for i := 0; i < m.W*m.H; i++ {
		best, bestC := 0, uint32(0)
		for l := 0; l < m.M; l++ {
			if c := counts[i*m.M+l]; c > bestC {
				best, bestC = l, c
			}
		}
		mode.Labels[i] = uint8(best)
	}
	return lm, mode, stats, stopErr
}

// PaperConfig returns the §8.2 design point for a workload: 336 units,
// 1 GHz, 336 GB/s, with the workload's per-pixel traffic.
func PaperConfig(bytesPerPixel float64, iterations int, seed uint64) Config {
	return Config{
		Units: 336, ClockHz: 1e9, MemBW: 336e9,
		BytesPerPixel: bytesPerPixel,
		Iterations:    iterations,
		Seed:          seed,
	}
}
