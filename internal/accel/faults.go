package accel

import (
	"context"
	"fmt"

	"repro/internal/apps"
	"repro/internal/fault"
	"repro/internal/img"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/rsu"
)

// Control-core cost of one CMOS-fallback site evaluation, per §2.2 /
// Table 1: ~100 cycles of parameterization plus ~100 of exponentiation
// per label, plus the categorical draw. Fallback sites run on the
// accelerator's scalar control processor, serially with the array.
const (
	fallbackCyclesPerLabel = 200
	fallbackSampleCycles   = 588
)

// FaultStats extends Stats with the fault subsystem's accounting for a
// RunFaulty invocation.
type FaultStats struct {
	// RSUSites, FallbackSites and SkippedSites partition the site
	// evaluations: drawn on the (possibly degraded) RSU array, rerouted
	// to the control core's exact CMOS kernel, or frozen by quarantine.
	RSUSites, FallbackSites, SkippedSites uint64
	// FallbackCycles is the control-core time spent on rerouted sites
	// (already included in Stats.Cycles).
	FallbackCycles float64
	// Audit reconciles injected against detected faults.
	Audit *fault.Audit
}

// RunFaulty is Run with the fault-injection subsystem in the loop: the
// schedule in fopt is compiled over the image geometry (fault unit =
// image row), every TTF measurement feeds the online monitors, and the
// selected policy degrades around detections. Quarantined rows stop
// consuming array or memory time; fallback rows are evaluated by the
// scalar control core at software cost, serial with the array — the
// timing model of graceful degradation. Cancellation is cooperative and
// checked between sweeps; on ctx cancel RunFaulty returns the state
// simulated so far — including the audit of the sweeps that did run —
// together with an error wrapping ctx.Err().
func RunFaulty(ctx context.Context, a apps.App, unit *rsu.Unit, cfg Config, fopt fault.Options) (*img.LabelMap, *img.LabelMap, Stats, FaultStats, error) {
	var stats Stats
	var fstats FaultStats
	if err := cfg.Validate(); err != nil {
		return nil, nil, stats, fstats, err
	}
	m := a.Model()
	if err := m.Validate(); err != nil {
		return nil, nil, stats, fstats, err
	}
	sched, err := fault.Parse(fopt.Schedule)
	if err != nil {
		return nil, nil, stats, fstats, err
	}
	sched.Seed = fopt.Seed
	tl, err := sched.Compile(m.H, cfg.Iterations, m.W, unit.Config().Replicas)
	if err != nil {
		return nil, nil, stats, fstats, err
	}
	rec := cfg.Recorder
	if fopt.Recorder == nil {
		fopt.Recorder = rec
	}
	sess := fault.NewSession(tl, fopt)

	lm := a.InitLabels()
	src := rng.New(cfg.Seed)

	timing := unit.EvalTiming()
	perVarCycles := float64(timing.Steps)
	if r := unit.Config().Replicas; r < rsu.QuiescenceCycles {
		perVarCycles *= float64((rsu.QuiescenceCycles + r - 1) / r)
	}
	drain := float64(timing.Cycles) - perVarCycles + 1
	perFallbackCycles := float64(m.M*fallbackCyclesPerLabel + fallbackSampleCycles)

	counts := make([]uint32, m.W*m.H*m.M)
	half := cfg.Iterations / 2
	var rateBuf []float64
	in := apps.NewRSUInput(unit)

	var stopErr error
	for it := 0; it < cfg.Iterations; it++ {
		if err := ctx.Err(); err != nil {
			stopErr = fmt.Errorf("accel: faulty run stopped before sweep %d/%d: %w", it, cfg.Iterations, err)
			break
		}
		sess.BeginSweep(it)
		for color := 0; color < m.Hood.Colors(); color++ {
			endPhase := obs.Span(rec, "accel.color_phase")
			rsuSites, fbSites := 0, 0
			for y := 0; y < m.H; y++ {
				uc := sess.Unit(y)
				for x := 0; x < m.W; x++ {
					if m.Hood.ColorOf(x, y) != color {
						continue
					}
					switch uc.Directive() {
					case fault.DirectiveSkip:
						fstats.SkippedSites++
						continue
					case fault.DirectiveFallback:
						fbSites++
						fstats.FallbackSites++
						rateBuf = m.ConditionalRates(rateBuf, lm, x, y)
						lm.Set(x, y, src.CategoricalRates(rateBuf))
						continue
					}
					a.RSUInput(&in, lm, x, y)
				sample:
					for tries := 0; ; tries++ {
						label, _ := unit.SampleFaulty(in, src, uc)
						switch uc.AfterSample(tries) {
						case fault.ReactAccept:
							rsuSites++
							fstats.RSUSites++
							lm.Set(x, y, int(label))
							break sample
						case fault.ReactResample:
							continue
						default: // ReactReject
							if uc.Directive() == fault.DirectiveFallback {
								fbSites++
								fstats.FallbackSites++
								rateBuf = m.ConditionalRates(rateBuf, lm, x, y)
								lm.Set(x, y, src.CategoricalRates(rateBuf))
							} else {
								rsuSites++
								fstats.RSUSites++
							}
							break sample
						}
					}
				}
			}
			computeCycles := float64(rsuSites)/float64(cfg.Units)*perVarCycles + drain
			memoryCycles := float64(rsuSites) * cfg.BytesPerPixel / cfg.MemBW * cfg.ClockHz
			if computeCycles >= memoryCycles {
				stats.ComputeBoundPhases++
				stats.Cycles += computeCycles
				obs.Add(rec, "accel.phases.compute_bound", 1)
			} else {
				stats.MemoryBoundPhases++
				stats.Cycles += memoryCycles
				obs.Add(rec, "accel.phases.memory_bound", 1)
			}
			fb := float64(fbSites) * perFallbackCycles
			stats.Cycles += fb
			fstats.FallbackCycles += fb
			obs.Add(rec, "accel.sites", int64(rsuSites))
			obs.Add(rec, "accel.fallback_sites", int64(fbSites))
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
	fstats.Audit = sess.Audit()
	fstats.Audit.Schedule = fopt.Schedule
	return lm, mode, stats, fstats, stopErr
}
