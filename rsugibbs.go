// Package rsugibbs is the public API of this reproduction of
// "Accelerating Markov Random Field Inference Using Molecular Optical
// Gibbs Sampling Units" (Wang et al., ISCA 2016).
//
// It curates the internal packages into one import:
//
//   - build a vision application (Segmentation, Motion, Stereo) over a
//     first-order MRF with smoothness priors,
//   - solve it with a Solver on a selectable backend — exact software
//     Gibbs, ideal first-to-fire, Metropolis, an emulated RSU-G
//     molecular-optical sampling unit of any width, or the approximate
//     spiking-neuron and mean-field engines from the related
//     literature — all behind an open registry (Backends,
//     WithBackendName) new backends plug into,
//   - and query the paper's architecture models (GPU, discrete
//     accelerator, power, area) for the equivalent workload.
//
// The names below are aliases of the internal implementation types, so
// values flow freely between this façade and the deeper APIs for users
// who need the full surface (internal/rsu for the functional unit,
// internal/ret for the RET physics, internal/arch for timing models).
//
// Quickstart:
//
//	src := rsugibbs.NewRand(1)
//	scene := rsugibbs.BlobScene(128, 128, 5, 8, src)
//	app, _ := rsugibbs.NewSegmentation(scene.Image, scene.Means, 2, 12)
//	solver, _ := rsugibbs.NewSolver(app, rsugibbs.Config{
//		Backend: rsugibbs.RSU, Iterations: 100, BurnIn: 30,
//		Compile: true, // precomputed-table sweep engine, bit-identical
//	})
//	res, _ := solver.Solve(context.Background())
//	fmt.Println(res.MAP.MislabelRate(scene.Truth))
//
// Or, with functional options and metrics:
//
//	reg := rsugibbs.NewMetrics()
//	solver, _ := rsugibbs.NewSolverOpts(app,
//		rsugibbs.WithBackend(rsugibbs.RSU),
//		rsugibbs.WithIterations(100), rsugibbs.WithBurnIn(30),
//		rsugibbs.WithCompile(true), rsugibbs.WithRecorder(reg),
//	)
//	res, _ := solver.Solve(ctx)
//	fmt.Println(res.Metrics.Counter("gibbs.sweeps"))
package rsugibbs

import (
	"repro/internal/accel"
	"repro/internal/apps"
	"repro/internal/arch"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gibbs"
	"repro/internal/img"
	"repro/internal/mrf"
	"repro/internal/power"
	"repro/internal/prototype"
	"repro/internal/ret"
	"repro/internal/rng"
	"repro/internal/rsu"
	"repro/internal/sampler"
	"repro/internal/sampler/meanfield"
	"repro/internal/sampler/spiking"
)

// Images and label fields.
type (
	// Gray is an 8-bit grayscale image.
	Gray = img.Gray
	// LabelMap is a per-pixel label field (the MRF's random variables).
	LabelMap = img.LabelMap
	// VectorField is a per-pixel motion field.
	VectorField = img.VectorField
	// Scene couples a synthetic observation with its ground truth.
	Scene = img.Scene
	// MotionScene is a synthetic frame pair with true motion.
	MotionScene = img.MotionScene
	// StereoScene is a synthetic stereo pair with true disparity.
	StereoScene = img.StereoScene
)

// Image constructors and I/O.
var (
	// NewGray allocates a zeroed grayscale image.
	NewGray = img.NewGray
	// NewLabelMap allocates a zeroed label map.
	NewLabelMap = img.NewLabelMap
	// ReadPGMFile and WritePGMFile move images to and from disk.
	ReadPGMFile  = img.ReadPGMFile
	WritePGMFile = img.WritePGMFile
	// BlobScene, TwoRegionScene, MotionPair and StereoPair generate the
	// synthetic workloads used throughout the evaluation.
	BlobScene      = img.BlobScene
	TwoRegionScene = img.TwoRegionScene
	MotionPair     = img.MotionPair
	StereoPair     = img.StereoPair
)

// Randomness.
type (
	// Rand is the deterministic random source used everywhere.
	Rand = rng.Source
)

// NewRand returns a seeded deterministic random source.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// The MRF model layer.
type (
	// Model is a first-order MRF with smoothness priors (paper Eq. 1).
	Model = mrf.Model
)

// Applications (paper §8.1).
type (
	// Segmentation labels pixels by intensity cluster (M <= 8).
	Segmentation = apps.Segmentation
	// Motion estimates a dense motion field over a (2R+1)^2 window.
	Motion = apps.MotionEstimation
	// Stereo assigns disparities to a rectified pair.
	Stereo = apps.StereoVision
	// Restoration denoises an image over quantized intensity levels
	// (Geman & Geman, the paper's ref [11]); supports the second-order
	// neighborhood extension.
	Restoration = apps.Restoration
	// App is the common application interface.
	App = apps.App
)

// Application constructors and helpers.
var (
	// NewSegmentation builds the segmentation app from an image and
	// label means (see KMeans1D).
	NewSegmentation = apps.NewSegmentation
	// NewMotion builds the motion app from two frames and a window
	// radius (3 = the paper's 7x7, 49 labels).
	NewMotion = apps.NewMotionEstimation
	// NewStereo builds the stereo app from a rectified pair.
	NewStereo = apps.NewStereoVision
	// NewRestoration builds the denoising app over nLevels intensities.
	NewRestoration = apps.NewRestoration
	// KMeans1D estimates segmentation label means from an image.
	KMeans1D = apps.KMeans1D
)

// Solver layer (internal/core).
type (
	// Solver runs MCMC inference for an application on a backend.
	Solver = core.Solver
	// Config selects the backend and chain parameters.
	Config = core.Config
	// Result carries the MAP estimate and diagnostics.
	Result = core.Result
	// Backend selects the sampling engine by registry index; prefer
	// selecting by name (WithBackendName / Config.BackendName).
	Backend = core.Backend
)

// Compatibility backend constants: aliases of the first five registry
// entries. The registry (Backends, WithBackendName) is the source of
// truth; newer backends — "spiking", "meanfield" — have no constant.
const (
	// SoftwareGibbs is the exact softmax Gibbs kernel.
	SoftwareGibbs = core.SoftwareGibbs
	// SoftwareFirstToFire races ideal exponential clocks (the RSU
	// principle without hardware quantization).
	SoftwareFirstToFire = core.SoftwareFirstToFire
	// Metropolis is the uniform-proposal MH kernel.
	Metropolis = core.Metropolis
	// RSU emulates the paper's RSU-G functional unit.
	RSU = core.RSU
	// PrototypeBackend drives the emulated §7 macro bench (2 labels).
	PrototypeBackend = core.Prototype
)

// Backend registry (internal/sampler): every sampling engine registers
// a named descriptor with declared capabilities, and solvers resolve
// names through it — the seam new backends plug into without touching
// core.
type (
	// SamplerBackend is one registered engine: name, capability
	// descriptor, per-solver instance construction.
	SamplerBackend = sampler.Backend
	// SamplerCapabilities declares what a backend supports: label-count
	// bounds, exactness, determinism, checkpoint and fault support.
	SamplerCapabilities = sampler.Capabilities
	// SpikingSpec tunes the spiking digital-neuron backend (comparator
	// bit width, tick length τ).
	SpikingSpec = spiking.Spec
	// MeanFieldSpec tunes the deterministic mean-field backend (damping
	// factor, fixed-point tolerance).
	MeanFieldSpec = meanfield.Spec
)

// Registry lookups.
var (
	// Backends returns the registered backend names in registry order.
	Backends = core.Backends
	// ParseBackend resolves a registered name to its Backend value;
	// unknown names wrap ErrInvalidConfig.
	ParseBackend = core.ParseBackend
	// LookupBackend returns the registered backend descriptor for a
	// name (capability introspection).
	LookupBackend = sampler.Lookup
)

// NewSolver builds a solver for an application.
var NewSolver = core.NewSolver

// ErrInvalidConfig is wrapped by every configuration-validation error
// from NewSolver and Config.Validate.
var ErrInvalidConfig = core.ErrInvalidConfig

// Crash-safe runtime (internal/checkpoint): durable snapshots,
// cancellation, and bit-exact resume. Arm Config.Checkpoint and call
// Solver.Solve with a cancellable context; a run killed at any sweep
// and resumed from its last checkpoint produces output byte-identical
// to an uninterrupted one.
type (
	// CheckpointSpec arms periodic durable snapshots and resume on a
	// Solver (Config.Checkpoint).
	CheckpointSpec = core.CheckpointSpec
	// Snapshot is one versioned, checksummed chain snapshot.
	Snapshot = checkpoint.Snapshot
	// SnapshotFingerprint identifies the run configuration a snapshot
	// belongs to.
	SnapshotFingerprint = checkpoint.Fingerprint
	// ChainCheckpointPolicy configures snapshots at the gibbs layer.
	ChainCheckpointPolicy = gibbs.CheckpointPolicy
)

// Checkpoint I/O and errors.
var (
	// SaveSnapshot writes a snapshot atomically (temp file + rename),
	// replacing both slot files of the path.
	SaveSnapshot = checkpoint.Save
	// LoadSnapshot reads and fully validates the newest valid slot.
	LoadSnapshot = checkpoint.Load
	// ErrSnapshotCorrupt marks a truncated or checksum-failed snapshot.
	ErrSnapshotCorrupt = checkpoint.ErrCorrupt
	// ErrSnapshotVersion marks a format-version skew.
	ErrSnapshotVersion = checkpoint.ErrVersion
	// ErrSnapshotMismatch marks a snapshot/configuration mismatch.
	ErrSnapshotMismatch = checkpoint.ErrMismatch
)

// Fault injection and graceful degradation (internal/fault, DESIGN.md
// §9): arm Config.Faults with a schedule and a policy, and the solver
// threads deterministic fault injection, online detection and the
// selected degradation response through the RSU sampling path.
type (
	// FaultOptions arms the fault subsystem on a Solver (Config.Faults)
	// or an accelerator run.
	FaultOptions = fault.Options
	// FaultPolicy selects the degradation response to a detection.
	FaultPolicy = fault.Policy
	// FaultSchedule is a parsed fault-injection schedule (ParseFaults).
	FaultSchedule = fault.Schedule
	// FaultAudit reconciles injected against detected faults; Result
	// carries one when faults were armed.
	FaultAudit = fault.Audit
	// FaultEvent is one structured online-detection record.
	FaultEvent = fault.Event
)

// Degradation policies.
const (
	// FaultPolicyNone detects but never reacts (the unprotected
	// baseline).
	FaultPolicyNone = fault.PolicyNone
	// FaultPolicyRemap rotates a spare RET circuit into the suspect's
	// lane slot.
	FaultPolicyRemap = fault.PolicyRemap
	// FaultPolicyResample redraws suspect samples a bounded number of
	// times.
	FaultPolicyResample = fault.PolicyResample
	// FaultPolicyQuarantine freezes the faulty unit's sites.
	FaultPolicyQuarantine = fault.PolicyQuarantine
	// FaultPolicyFallback reroutes the faulty unit to the exact CMOS
	// kernel.
	FaultPolicyFallback = fault.PolicyFallback
)

// Fault DSL helpers.
var (
	// ParseFaults parses the fault-schedule DSL (e.g.
	// "dead:unit=3,sweep=10;hot:rate=1e-3,storm=6").
	ParseFaults = fault.Parse
	// ParseFaultPolicy parses a policy name (none | remap | resample |
	// quarantine | fallback).
	ParseFaultPolicy = fault.ParsePolicy
)

// The RSU-G functional unit (paper §4–§6).
type (
	// Unit is an RSU-G sampling unit.
	Unit = rsu.Unit
	// UnitConfig configures an RSU-G (labels, width, weights, circuit).
	UnitConfig = rsu.Config
	// IntensityMap is the 256x4-bit energy-to-intensity LUT.
	IntensityMap = rsu.IntensityMap
	// SamplingMode selects ideal-exponential or photon-level TTFs.
	SamplingMode = rsu.SamplingMode
)

// RSU helpers.
var (
	// NewUnit constructs an RSU-G from a full configuration.
	NewUnit = rsu.New
	// BuildUnit constructs an RSU-G matched to an application.
	BuildUnit = apps.BuildUnit
	// NewRSUInput allocates the operand set App.RSUInput fills for a
	// unit; reuse it across sites.
	NewRSUInput = apps.NewRSUInput
	// BuildIntensityMap builds the LUT for an LED ladder + temperature.
	BuildIntensityMap = rsu.BuildIntensityMap
)

// RSU sampling modes.
const (
	// Ideal draws TTFs from the asymptotic exponential law (fast).
	Ideal = rsu.Ideal
	// Physical runs the photon-level RET simulation (slow, exact).
	Physical = rsu.Physical
)

// RET physics layer (paper §2.3).
type (
	// Circuit is a RET circuit: LED bank + network ensemble + SPAD.
	Circuit = ret.Circuit
	// Network is a RET network (CTMC over exciton positions).
	Network = ret.Network
)

// RET constructors.
var (
	// DefaultCircuit is the paper-literal binary-weighted design.
	DefaultCircuit = ret.DefaultCircuit
	// DefaultLadderCircuit is the high-dynamic-range geometric design.
	DefaultLadderCircuit = ret.DefaultLadderCircuit
)

// Architecture models (paper §8).
type (
	// Workload describes one application run for the timing models.
	Workload = arch.Workload
	// GPU is the calibrated GPU timing model.
	GPU = arch.GPU
	// Accelerator is the bandwidth-bound discrete accelerator.
	Accelerator = arch.Accelerator
	// PerformanceReport aggregates the modeled §8 numbers.
	PerformanceReport = core.PerformanceReport
)

// Architecture helpers.
var (
	// TitanX returns the GTX Titan X model of the evaluation.
	TitanX = arch.TitanX
	// DefaultAccelerator returns the 336 GB/s / 336-unit design point.
	DefaultAccelerator = arch.DefaultAccelerator
	// SegmentationWorkload/MotionWorkload/StereoWorkload build the
	// standard workloads at a given size.
	SegmentationWorkload = arch.Segmentation
	MotionWorkload       = arch.Motion
	StereoWorkload       = arch.Stereo
	// Performance returns modeled times/power/area for a workload.
	Performance = core.Performance
)

// Power and area models (paper Tables 3–4).
var (
	// RSUG1Power45 and RSUG1Power15 return the per-unit budgets.
	RSUG1Budget45 = func() power.Budget { return power.RSUG1Budget(power.N45) }
	RSUG1Budget15 = func() power.Budget { return power.RSUG1Budget(power.N15) }
)

// Prototype emulation (paper §7).
type (
	// Prototype is the emulated two-channel macro-scale RSU-G2.
	Prototype = prototype.RSUG2
)

// NewPrototype returns the default emulated bench.
var NewPrototype = prototype.New

// Chain options for users who drive internal/gibbs directly.
type (
	// ChainOptions configures an MCMC run at the gibbs layer.
	ChainOptions = gibbs.Options
	// ChainResult is the gibbs-layer result.
	ChainResult = gibbs.Result
)

// Chain diagnostics.
var (
	// EffectiveSampleSize estimates chain ESS from an energy trace.
	EffectiveSampleSize = gibbs.EffectiveSampleSize
	// IntegratedAutocorrTime estimates τ from a trace.
	IntegratedAutocorrTime = gibbs.IntegratedAutocorrTime
	// GelmanRubin computes R̂ over independent chains.
	GelmanRubin = gibbs.GelmanRubin
)

// Neighborhood structure (second-order MRF extension, paper §9).
type (
	// Neighborhood selects 4- or 8-connected cliques.
	Neighborhood = mrf.Neighborhood
)

// Neighborhoods.
const (
	// FirstOrder is the paper's 4-connected neighborhood.
	FirstOrder = mrf.FirstOrder
	// SecondOrder adds the four diagonal cliques (§9 extension).
	SecondOrder = mrf.SecondOrder
)

// Pipeline simulation (validates the §5 latency/throughput claims).
type (
	// PipelineConfig shapes a cycle-accurate RSU-G pipeline simulation.
	PipelineConfig = rsu.PipelineConfig
	// PipelineStats reports latency, throughput and stalls.
	PipelineStats = rsu.PipelineStats
)

// SimulatePipeline runs the cycle-stepped RSU-G pipeline model.
var SimulatePipeline = rsu.SimulatePipeline

// Chromophore wear-out (paper §9).
type (
	// AgingCircuit wraps a RET circuit with photobleaching wear-out.
	AgingCircuit = ret.AgingCircuit
	// Wearout parameterizes the photobleaching process.
	Wearout = ret.Wearout
)

// NewAgingCircuit wraps a circuit with a wear-out model.
var NewAgingCircuit = ret.NewAgingCircuit

// Staged accelerator (the §8.2 on-chip-storage design point).
type (
	// StagedAccelerator adds an SRAM frame store to the accelerator.
	StagedAccelerator = arch.StagedAccelerator
)

// DefaultStagedAccelerator returns the 24 MB / 4x-bandwidth design.
var DefaultStagedAccelerator = arch.DefaultStagedAccelerator

// Functional discrete-accelerator simulation (§6.2).
type (
	// AccelConfig shapes a functional accelerator run.
	AccelConfig = accel.Config
	// AccelStats reports simulated cycles and boundedness.
	AccelStats = accel.Stats
)

// Accelerator simulation helpers.
var (
	// RunAccelerator simulates the RSU-G array end to end: real
	// inference plus hardware-style cycle accounting.
	RunAccelerator = accel.Run
	// PaperAccelConfig is the §8.2 design point (336 units, 336 GB/s).
	PaperAccelConfig = accel.PaperConfig
)
