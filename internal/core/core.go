// Package core is the top of the reproduction stack: a single Solver
// API that runs MRF-MCMC inference for any of the paper's applications
// on a selectable backend — exact software Gibbs, ideal first-to-fire,
// Metropolis, or an emulated RSU-G unit of any width — and reports both
// the inference result and the modeled hardware performance
// (GPU/accelerator times, power, area) for the equivalent workload.
package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/arch"
	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/gibbs"
	"repro/internal/img"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/ret"
	"repro/internal/rsu"
	"repro/internal/sampler"
	"repro/internal/sampler/meanfield"
	"repro/internal/sampler/spiking"
)

// Backend selects the sampling engine by registry index
// (internal/sampler). The named constants below cover the original
// enum; every registered backend — including ones added after these
// constants froze — is addressable by name through Config.BackendName,
// which is the preferred selector.
type Backend int

// Compatibility aliases for the first five registry entries.
//
// Deprecated: the registry (internal/sampler) is the source of truth
// for available backends; select by name with Config.BackendName /
// WithBackendName, and enumerate with Backends(). These constants
// remain valid forever — they resolve to the same registry entries by
// index — but new backends get no constant.
const (
	// SoftwareGibbs is the exact softmax Gibbs kernel (the paper's
	// software baseline).
	SoftwareGibbs Backend = iota
	// SoftwareFirstToFire is the unquantized first-to-fire race —
	// mathematically identical to SoftwareGibbs, the RSU's principle
	// without its hardware approximations.
	SoftwareFirstToFire
	// Metropolis is the uniform-proposal MH kernel.
	Metropolis
	// RSU emulates an RSU-G unit (width set by Config.RSUWidth).
	RSU
	// Prototype drives the emulated macro-scale RSU-G2 bench (§7).
	// Restricted to two-label models (a declared registry capability).
	Prototype
)

// String implements fmt.Stringer: the registered name of the backend
// at this index, so String()/ParseBackend round-trip exactly.
func (b Backend) String() string {
	if be, ok := sampler.At(int(b)); ok {
		return be.Name()
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// ParseBackend resolves a registered backend name to its Backend
// value — the inverse of String. Unknown names wrap ErrInvalidConfig.
func ParseBackend(name string) (Backend, error) {
	i, ok := sampler.Index(name)
	if !ok {
		return 0, fmt.Errorf("%w: unknown backend %q (known: %s)",
			ErrInvalidConfig, name, strings.Join(sampler.Names(), ", "))
	}
	return Backend(i), nil
}

// Backends returns the registered backend names in registry order —
// the single source of allowed-values help text for CLI flags.
func Backends() []string { return sampler.Names() }

// Config selects the backend and chain parameters.
type Config struct {
	// Backend selects the sampling engine by registry index. Ignored
	// when BackendName is set.
	Backend Backend
	// BackendName selects the sampling engine by registry name
	// (see Backends()); when non-empty it takes precedence over
	// Backend. Unknown names fail Validate with ErrInvalidConfig.
	BackendName string
	Iterations  int
	BurnIn      int
	// Workers sets checkerboard parallelism (defaults to 1). Seeded
	// results are identical for every worker count.
	Workers int
	// Compile enables the precomputed-potential fast path: the model's
	// unary energy table (W*H*M float64s) and doubleton tables are
	// materialized once before the chain runs, removing every closure
	// call from the sweep inner loop. Sampled labels are bit-identical
	// to the uncompiled path; the only cost is table memory.
	Compile bool
	// RSUWidth is the unit width K for the RSU backend (default 1).
	RSUWidth int
	// RSUMode selects ideal or photon-level RET simulation.
	RSUMode rsu.SamplingMode
	// Circuit optionally overrides the RET circuit design for the RSU
	// backend (nil: high-dynamic-range ladder).
	Circuit *ret.Circuit
	// Seed makes runs reproducible.
	Seed uint64
	// Anneal optionally enables simulated-annealing cooling: the chain
	// temperature starts at StartT, decays geometrically by Rate per
	// iteration, and floors at the model temperature. Sharper MAP
	// estimates for hard energy landscapes.
	Anneal *AnnealSpec
	// Spiking tunes the spiking backend's comparator width and tick
	// length (nil: package defaults). Other backends ignore it.
	Spiking *spiking.Spec
	// MeanField tunes the meanfield backend's damping and fixed-point
	// tolerance (nil: package defaults). Other backends ignore it.
	MeanField *meanfield.Spec
	// Faults optionally arms the fault-injection and degradation
	// subsystem (internal/fault): the schedule is compiled over the
	// image geometry (fault unit = image row), online monitors watch
	// every TTF measurement, and the selected policy degrades around
	// detected faults. Solve's Result then carries the
	// injected-vs-detected audit. Only backends whose registry
	// capabilities declare fault support (the rsu hardware emulation)
	// accept it.
	Faults *fault.Options
	// Checkpoint optionally arms durable snapshots and crash recovery
	// (internal/checkpoint). Nil disables checkpointing.
	Checkpoint *CheckpointSpec
	// Recorder optionally injects the observability layer (internal/obs):
	// sweep and color-phase timings, checkpoint and fault events, backend
	// counters. Nil (the default) records nothing and costs nothing.
	// Recording never touches the RNG streams, so an observed run
	// produces byte-identical labels to an unobserved one; the field is
	// likewise excluded from checkpoint fingerprints.
	Recorder obs.Recorder
	// Deadline bounds the wall time of one Solve call (0: none). On
	// expiry the chain stops at the next sweep boundary exactly as an
	// external context deadline would: a final checkpoint is written
	// when armed, and Solve returns the partial Result together with an
	// error wrapping context.DeadlineExceeded. Like Workers, Deadline is
	// deliberately excluded from checkpoint fingerprints — it truncates
	// the chain but never changes any sampled label, so a snapshot taken
	// under one deadline resumes bit-exactly under another.
	Deadline time.Duration
}

// Config limit bounds. Validate rejects values beyond these: they are
// far past any real workload, so exceeding one always indicates a
// corrupted or hostile configuration (a serving daemon must refuse it
// at admission, not discover it mid-solve).
const (
	// MaxDeadline bounds Config.Deadline.
	MaxDeadline = 30 * 24 * time.Hour
	// MaxIterations bounds Config.Iterations.
	MaxIterations = 1 << 30
	// MaxWorkers bounds Config.Workers.
	MaxWorkers = 4096
)

// CheckpointSpec wires the checkpoint subsystem into a solve: periodic
// durable snapshots at sweep boundaries, and resume from the last one.
type CheckpointSpec struct {
	// Path is the snapshot file (slot 0; slot 1 is Path+".1"). The
	// solve's first checkpoint replaces both slots atomically, and each
	// later one overwrites the older slot in place with one fsync, so a
	// crash at any instant leaves either the previous or the new
	// complete snapshot readable through checkpoint.Load.
	Path string
	// EverySweeps checkpoints after every Nth completed sweep
	// (0 disables count-based checkpointing).
	EverySweeps int
	// Every checkpoints when this much wall time has elapsed, evaluated
	// at sweep boundaries. Requires Now (CLI entry points pass
	// time.Now; library code must not read the wall clock itself).
	Every time.Duration
	// Now supplies the wall clock for Every.
	Now func() time.Time
	// Resume loads Path before the run (if it exists) and continues
	// from the captured sweep. The snapshot's fingerprint must match
	// the configuration; a missing file starts from scratch.
	Resume bool
	// OnSave, when non-nil, is invoked after each snapshot is durably
	// written to Path, with the sweep number the snapshot captured.
	// Serving layers hook replication here; the callback runs on the
	// solve goroutine, so it must not block on slow work.
	OnSave func(sweep int)
}

// ErrInvalidConfig is wrapped by every configuration-validation error
// NewSolver and Config.Validate return; callers branch on it with
// errors.Is.
var ErrInvalidConfig = errors.New("core: invalid config")

// resolveBackend looks up the configured backend in the registry:
// BackendName when set, the Backend index otherwise.
func (cfg Config) resolveBackend() (sampler.Backend, error) {
	if cfg.BackendName != "" {
		be, ok := sampler.Lookup(cfg.BackendName)
		if !ok {
			return nil, fmt.Errorf("%w: unknown backend %q (known: %s)",
				ErrInvalidConfig, cfg.BackendName, strings.Join(sampler.Names(), ", "))
		}
		return be, nil
	}
	be, ok := sampler.At(int(cfg.Backend))
	if !ok {
		return nil, fmt.Errorf("%w: unknown backend %v", ErrInvalidConfig, cfg.Backend)
	}
	return be, nil
}

// Validate checks every user-facing Config field, returning an error
// wrapping ErrInvalidConfig that names the offending field. App-
// dependent checks (label-space compatibility, RSU unit construction)
// happen in NewSolver, which calls Validate first.
func (cfg Config) Validate() error {
	be, err := cfg.resolveBackend()
	if err != nil {
		return err
	}
	caps := be.Caps()
	if cfg.Iterations <= 0 {
		return fmt.Errorf("%w: iterations must be positive, got %d", ErrInvalidConfig, cfg.Iterations)
	}
	if cfg.Iterations > MaxIterations {
		return fmt.Errorf("%w: iterations %d > limit %d", ErrInvalidConfig, cfg.Iterations, MaxIterations)
	}
	if cfg.BurnIn < 0 || cfg.BurnIn >= cfg.Iterations {
		return fmt.Errorf("%w: burn-in %d outside [0,%d)", ErrInvalidConfig, cfg.BurnIn, cfg.Iterations)
	}
	if cfg.Workers < 0 {
		return fmt.Errorf("%w: workers %d < 0", ErrInvalidConfig, cfg.Workers)
	}
	if cfg.Workers > MaxWorkers {
		return fmt.Errorf("%w: workers %d > limit %d", ErrInvalidConfig, cfg.Workers, MaxWorkers)
	}
	if cfg.Deadline < 0 {
		return fmt.Errorf("%w: deadline %v < 0", ErrInvalidConfig, cfg.Deadline)
	}
	if cfg.Deadline > MaxDeadline {
		return fmt.Errorf("%w: deadline %v > limit %v", ErrInvalidConfig, cfg.Deadline, MaxDeadline)
	}
	if cfg.RSUWidth < 0 {
		return fmt.Errorf("%w: RSU width %d < 0", ErrInvalidConfig, cfg.RSUWidth)
	}
	if a := cfg.Anneal; a != nil && (a.StartT <= 0 || a.Rate <= 0 || a.Rate >= 1) {
		return fmt.Errorf("%w: anneal spec %+v (want StartT > 0 and Rate in (0,1))", ErrInvalidConfig, *a)
	}
	if sp := cfg.Spiking; sp != nil {
		if err := sp.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidConfig, err)
		}
	}
	if mf := cfg.MeanField; mf != nil {
		if err := mf.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidConfig, err)
		}
	}
	if f := cfg.Faults; f != nil {
		if !caps.Faults {
			return fmt.Errorf("%w: fault injection models RSU hardware; backend %s does not support it",
				ErrInvalidConfig, be.Name())
		}
		if _, err := fault.Parse(f.Schedule); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidConfig, err)
		}
	}
	if ck := cfg.Checkpoint; ck != nil {
		if !caps.Checkpoint {
			return fmt.Errorf("%w: backend %s keeps state outside the snapshot format and cannot checkpoint/resume",
				ErrInvalidConfig, be.Name())
		}
		if ck.Path == "" {
			return fmt.Errorf("%w: checkpoint spec needs a Path", ErrInvalidConfig)
		}
		if ck.EverySweeps < 0 {
			return fmt.Errorf("%w: checkpoint EverySweeps %d < 0", ErrInvalidConfig, ck.EverySweeps)
		}
		if ck.Every < 0 {
			return fmt.Errorf("%w: checkpoint Every %v < 0", ErrInvalidConfig, ck.Every)
		}
		if ck.Every > 0 && ck.Now == nil {
			return fmt.Errorf("%w: checkpoint Every needs a Now clock", ErrInvalidConfig)
		}
	}
	return nil
}

// AnnealSpec parameterizes geometric simulated-annealing cooling.
type AnnealSpec struct {
	// StartT is the initial temperature (in model energy units).
	StartT float64
	// Rate is the per-iteration multiplier in (0, 1).
	Rate float64
}

// Solver runs inference for one application instance.
type Solver struct {
	app     apps.App
	cfg     Config
	backend string // resolved registry name
	caps    sampler.Capabilities
	inst    sampler.Instance
}

// NewSolver validates the configuration against the selected backend's
// registry capabilities and constructs the backend instance.
func NewSolver(app apps.App, cfg Config) (*Solver, error) {
	if app == nil {
		return nil, fmt.Errorf("%w: nil application", ErrInvalidConfig)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	be, err := cfg.resolveBackend()
	if err != nil {
		return nil, err
	}
	caps := be.Caps()
	if m := app.Model().M; (caps.MinLabels > 0 && m < caps.MinLabels) ||
		(caps.MaxLabels > 0 && m > caps.MaxLabels) {
		return nil, fmt.Errorf("%w: backend %s supports %d..%d labels, model has %d",
			ErrInvalidConfig, be.Name(), caps.MinLabels, caps.MaxLabels, m)
	}
	inst, err := be.New(sampler.BuildSpec{
		App:       app,
		RSUWidth:  cfg.RSUWidth,
		RSUMode:   cfg.RSUMode,
		Circuit:   cfg.Circuit,
		Spiking:   cfg.Spiking,
		MeanField: cfg.MeanField,
	})
	if err != nil {
		return nil, err
	}
	return &Solver{app: app, cfg: cfg, backend: be.Name(), caps: caps, inst: inst}, nil
}

// Unit returns the RSU unit (nil for software backends).
func (s *Solver) Unit() *rsu.Unit { return s.inst.Unit() }

// BackendName returns the resolved registry name of the solver's
// backend.
func (s *Solver) BackendName() string { return s.backend }

// Capabilities returns the registry capability descriptor of the
// solver's backend.
func (s *Solver) Capabilities() sampler.Capabilities { return s.caps }

// Result is the outcome of a Solve call.
type Result struct {
	// MAP is the marginal-MAP estimate (per-site mode of post-burn-in
	// samples).
	MAP *img.LabelMap
	// Final is the last chain state.
	Final *img.LabelMap
	// Confidence is the per-site agreement with the MAP label (0..255).
	Confidence *img.Gray
	// EnergyTrace records the total energy each iteration.
	EnergyTrace []float64
	// SamplerName identifies the kernel that ran.
	SamplerName string
	// Iterations is the number of sweeps actually performed — equal to
	// Config.Iterations for a completed run, fewer when cancellation
	// stopped the chain early.
	Iterations int
	// FaultAudit reconciles injected against detected faults (nil
	// unless Config.Faults armed the fault subsystem).
	FaultAudit *fault.Audit
	// Metrics is a point-in-time snapshot of the injected recorder taken
	// as the solve returns (nil unless Config.Recorder implements
	// obs.Snapshotter — obs.Registry does).
	Metrics *obs.Snapshot
}

// Fingerprint returns the configuration identity stamped into this
// solver's checkpoints: two runs whose fingerprints match draw the
// exact same chain, so resuming one from the other's snapshot is
// sound. Workers is deliberately absent — RNG streams are attached to
// rows, so a snapshot taken at W=8 resumes bit-identically at W=1.
func (s *Solver) Fingerprint() checkpoint.Fingerprint {
	f := checkpoint.Fingerprint{
		App:        s.app.Name(),
		Backend:    s.backend,
		Seed:       s.cfg.Seed,
		Iterations: s.cfg.Iterations,
		BurnIn:     s.cfg.BurnIn,
		Compile:    s.cfg.Compile,
	}
	if a := s.cfg.Anneal; a != nil {
		f.AnnealStartT = a.StartT
		f.AnnealRate = a.Rate
	}
	f.Tag = s.inst.Tag()
	if fo := s.cfg.Faults; fo != nil {
		f.Tag += fmt.Sprintf(";faults=%q,seed=%d,policy=%v,spares=%d,maxresamples=%d",
			fo.Schedule, fo.Seed, fo.Policy, fo.Spares, fo.MaxResamples)
		if fo.Monitor != nil {
			f.Tag += fmt.Sprintf(",mon=%+v", *fo.Monitor)
		}
	}
	return f
}

// Solve runs the chain from the application's data-driven initial
// labeling, with cooperative cancellation and (when Config.Checkpoint
// is set) durable snapshots and resume. Cancellation is honored at
// sweep boundaries: on ctx cancel or deadline, a final checkpoint is
// written (if armed), and Solve returns the *partial* Result computed
// so far together with an error wrapping ctx.Err().
func (s *Solver) Solve(ctx context.Context) (*Result, error) {
	if d := s.cfg.Deadline; d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	m := s.app.Model()
	if s.cfg.Compile && !m.Compiled() {
		// An already-compiled model is reused as-is: tables depend only
		// on the model parameters, and table evaluation is bit-identical
		// to the closure path, so recompiling could only waste work.
		// This is what lets a serving layer share one compiled model
		// across many sequential jobs (internal/serve's compile cache).
		if err := m.Compile(); err != nil {
			return nil, err
		}
	}
	// endSolve is invoked on the success/partial-result path only;
	// config-error returns never start the chain and record no span.
	rec := s.cfg.Recorder
	endSolve := obs.Span(rec, "core.solve")
	obs.Emit(rec, "solve.start", map[string]any{
		"app": s.app.Name(), "backend": s.backend,
		"iterations": s.cfg.Iterations, "workers": s.cfg.Workers,
	})
	opt := gibbs.Options{
		Iterations:        s.cfg.Iterations,
		BurnIn:            s.cfg.BurnIn,
		Schedule:          gibbs.Checkerboard,
		Workers:           s.cfg.Workers,
		TrackMode:         true,
		RecordEnergyEvery: 1,
		Recorder:          rec,
	}
	if a := s.cfg.Anneal; a != nil {
		opt.Anneal = gibbs.GeometricAnneal(a.StartT, a.Rate, m.T)
	}
	factory := s.inst.Factory()
	var sess *fault.Session
	if f := s.cfg.Faults; f != nil {
		fa, ok := s.inst.(sampler.FaultAware)
		if !ok {
			return nil, fmt.Errorf("core: backend %s declares fault support but its instance cannot arm a session", s.backend)
		}
		sched, err := fault.Parse(f.Schedule)
		if err != nil {
			return nil, err
		}
		sched.Seed = f.Seed
		// Fault unit = image row; exposure = W site-samples per
		// unit per sweep; primaries = the unit's RET replica count.
		tl, err := sched.Compile(m.H, s.cfg.Iterations, m.W, s.inst.Unit().Config().Replicas)
		if err != nil {
			return nil, err
		}
		fo := *f
		if fo.Recorder == nil {
			fo.Recorder = rec
		}
		sess = fault.NewSession(tl, fo)
		factory = fa.FaultFactory(sess)
	}

	if ck := s.cfg.Checkpoint; ck != nil {
		fp := s.Fingerprint()
		if ck.Resume {
			snap, err := checkpoint.Load(ck.Path)
			switch {
			case err == nil:
				if ferr := fp.Check(snap.Fingerprint); ferr != nil {
					return nil, fmt.Errorf("core: resume from %s: %w", ck.Path, ferr)
				}
				if sess != nil {
					blob, ok := snap.Section(checkpoint.SectionFault)
					if !ok && snap.Sweep > 0 {
						return nil, fmt.Errorf("core: resume from %s: %w: fault session armed but snapshot has no fault section",
							ck.Path, checkpoint.ErrMismatch)
					}
					if ok {
						if serr := sess.UnmarshalBinary(blob); serr != nil {
							return nil, fmt.Errorf("core: resume from %s: %w", ck.Path, serr)
						}
					}
				}
				opt.Resume = snap
			case os.IsNotExist(err):
				// No snapshot yet: a fresh run that will create one.
			default:
				return nil, err
			}
		}
		// One Writer per solve: its first save replaces every slot at
		// ck.Path, and later saves overwrite the older slot in place.
		// Each save is fsynced before Sink returns, so a Close error
		// cannot lose a snapshot.
		ckw := checkpoint.NewWriter(ck.Path)
		defer ckw.Close()
		opt.Checkpoint = &gibbs.CheckpointPolicy{
			EverySweeps: ck.EverySweeps,
			Every:       ck.Every,
			Now:         ck.Now,
			Fingerprint: fp,
			Sink: func(snap *checkpoint.Snapshot) error {
				if err := ckw.Save(snap); err != nil {
					return err
				}
				if ck.OnSave != nil {
					ck.OnSave(snap.Sweep)
				}
				return nil
			},
		}
		if sess != nil {
			opt.Checkpoint.Extra = func(snap *checkpoint.Snapshot) error {
				blob, err := sess.MarshalBinary()
				if err != nil {
					return err
				}
				snap.SetSection(checkpoint.SectionFault, blob)
				return nil
			}
		}
	}

	res, err := gibbs.Run(ctx, m, s.app.InitLabels(), factory, opt, s.cfg.Seed)
	if res == nil {
		return nil, err
	}
	out := &Result{
		MAP:         res.MAP,
		Final:       res.Final,
		Confidence:  res.Confidence,
		EnergyTrace: res.EnergyTrace,
		SamplerName: res.SamplerName,
		Iterations:  res.Iterations,
	}
	if sess != nil {
		out.FaultAudit = sess.Audit()
		out.FaultAudit.Schedule = s.cfg.Faults.Schedule
	}
	endSolve()
	if snap, ok := rec.(obs.Snapshotter); ok {
		out.Metrics = snap.Snapshot()
	}
	// err is nil for a completed run, or wraps ctx.Err() for a
	// cancellation that still produced the partial result above.
	return out, err
}

// SolveCtx runs the chain with explicit cancellation.
//
// Deprecated: Solve now takes the context as its first argument;
// SolveCtx is an alias kept for one release so existing callers keep
// compiling.
func (s *Solver) SolveCtx(ctx context.Context) (*Result, error) {
	return s.Solve(ctx)
}

// PerformanceReport models the hardware-level cost of a workload on the
// paper's architectures (§8) — independent of the functional Solve.
type PerformanceReport struct {
	Workload        arch.Workload
	GPUSeconds      float64
	OptGPUSeconds   float64
	RSUG1Seconds    float64
	RSUG4Seconds    float64
	AccelSeconds    float64
	AcceleratorUnit int
	UnitPowerMW     float64
	UnitAreaUM2     float64
}

// Performance returns the modeled Table-2/§8.2 numbers for a workload.
// Only the calibrated applications ("segmentation", "motion") have GPU
// models; other workloads return an error.
func Performance(w arch.Workload) (*PerformanceReport, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	g := arch.TitanX()
	models := arch.Calibrate(g)
	km, ok := models[w.Name]
	if !ok {
		return nil, fmt.Errorf("core: no calibrated GPU model for workload %q", w.Name)
	}
	a := arch.DefaultAccelerator()
	budget := power.RSUG1Budget(power.N15)
	return &PerformanceReport{
		Workload:        w,
		GPUSeconds:      g.Time(w, km.CyclesPerPixel(arch.Baseline, w.Labels)),
		OptGPUSeconds:   g.Time(w, km.CyclesPerPixel(arch.Optimized, w.Labels)),
		RSUG1Seconds:    g.Time(w, km.CyclesPerPixel(arch.RSUG1, w.Labels)),
		RSUG4Seconds:    g.Time(w, km.CyclesPerPixel(arch.RSUG4, w.Labels)),
		AccelSeconds:    a.Time(w),
		AcceleratorUnit: a.Units(),
		UnitPowerMW:     budget.TotalPowerMW(),
		UnitAreaUM2:     budget.TotalAreaUM2(),
	}, nil
}
