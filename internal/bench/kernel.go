package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/gibbs"
	"repro/internal/img"
	"repro/internal/mrf"
	"repro/internal/sampler"
)

// This file is the fixed kernel-benchmark suite behind cmd/rsubench:
// exact-Gibbs sweep throughput over a grid of (size × labels ×
// backend) configurations, with steady-state allocation counts and
// process RSS, serialized to BENCH_kernel.json so successive trees can
// be compared (rsubench -compare) and CI can gate on regressions.

// KernelMeasurement is one fixed-suite configuration sample.
type KernelMeasurement struct {
	Grid    string `json:"grid"`
	Labels  int    `json:"labels"`
	Backend string `json:"backend"` // "closure" or "compiled" (packed kernel)

	NsPerSite   float64 `json:"ns_per_site"`
	SitesPerSec float64 `json:"sites_per_sec"`
	// AllocsPerSweep / BytesPerSweep are *steady-state* marginal costs:
	// the allocation delta between a long and a short run divided by
	// the extra sweeps, so one-time setup (engine, RNG streams, label
	// clone) cancels out. The compiled packed path must hold this at
	// zero — the CI gate checks it machine-independently.
	AllocsPerSweep float64 `json:"allocs_per_sweep"`
	BytesPerSweep  float64 `json:"bytes_per_sweep"`
}

// KernelReport is the machine-readable output of the kernel suite
// (the committed BENCH_kernel.json artifact).
type KernelReport struct {
	Suite    string `json:"suite"` // "full" or "quick"
	Schedule string `json:"schedule"`
	Workers  int    `json:"workers"`
	// Sampler names the registry backend the suite ran on. Empty means
	// "software-gibbs" (the suite's historical default), so committed
	// reports from before the field existed stay valid.
	Sampler string `json:"sampler,omitempty"`
	GoOS    string `json:"goos"`
	GoArch  string `json:"goarch"`
	NumCPU  int    `json:"num_cpu"`
	// BaselineNsPerSite, when positive, records the acceptance
	// configuration (256x256, M=16, compiled) throughput of the
	// pre-kernel tree, measured on the same machine and injected via
	// rsubench -baseline.
	BaselineNsPerSite float64             `json:"baseline_ns_per_site,omitempty"`
	Results           []KernelMeasurement `json:"results"`
	// SpeedupPackedVsClosure compares compiled vs closure sites/sec on
	// the acceptance configuration. It is a within-tree ratio, so it
	// transfers across machines far better than absolute ns/site —
	// the quick CI gate checks it rather than wall-clock numbers.
	SpeedupPackedVsClosure float64 `json:"speedup_packed_vs_closure"`
	// SpeedupPackedVsBaseline compares the packed kernel against
	// BaselineNsPerSite (0 when no baseline was recorded).
	SpeedupPackedVsBaseline float64 `json:"speedup_packed_vs_baseline,omitempty"`
	// RSSBytes is the process resident set after the suite ran.
	RSSBytes uint64 `json:"rss_bytes"`
}

// kernelConfig is one suite entry.
type kernelConfig struct {
	w, h, m  int
	compiled bool
}

// acceptance configuration: the 256x256 M=16 compiled checkerboard
// sweep every speedup claim in this repo is anchored to.
const acceptW, acceptH, acceptM = 256, 256, 16

func kernelSuite(quick bool) []kernelConfig {
	if quick {
		return []kernelConfig{
			{acceptW, acceptH, acceptM, false},
			{acceptW, acceptH, acceptM, true},
		}
	}
	var cfgs []kernelConfig
	for _, wh := range [][2]int{{128, 128}, {256, 256}} {
		for _, m := range []int{2, 16, 64} {
			for _, compiled := range []bool{false, true} {
				cfgs = append(cfgs, kernelConfig{wh[0], wh[1], m, compiled})
			}
		}
	}
	return cfgs
}

// kernelFactory resolves the suite's sampler through the registry: an
// empty name keeps the historical exact-Gibbs kernel, anything else is
// built bare-model (no application), so hardware-emulation backends
// that need one (rsu, prototype with faults) report their own clear
// errors. The factory is rebuilt per model because stateful samplers
// (meanfield) bind to the grid they were constructed against.
func kernelFactory(name string, model *mrf.Model, init *img.LabelMap) (gibbs.Factory, error) {
	if name == "" {
		return gibbs.NewExactGibbs(), nil
	}
	be, ok := sampler.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("bench: unknown sampler %q (known: %s)", name, strings.Join(sampler.Names(), ", "))
	}
	caps := be.Caps()
	if model.M < caps.MinLabels || (caps.MaxLabels > 0 && model.M > caps.MaxLabels) {
		return nil, fmt.Errorf("bench: sampler %s supports %d..%d labels, suite configuration has %d",
			name, caps.MinLabels, caps.MaxLabels, model.M)
	}
	inst, err := be.New(sampler.BuildSpec{Model: model, Init: init})
	if err != nil {
		return nil, err
	}
	return inst.Factory(), nil
}

// measureKernel times one configuration and measures its steady-state
// per-sweep allocation cost.
func measureKernel(ctx context.Context, cfg kernelConfig, samplerName string) (KernelMeasurement, error) {
	model, init := sweepModel(cfg.w, cfg.h, cfg.m)
	if cfg.compiled {
		if err := model.Compile(); err != nil {
			return KernelMeasurement{}, err
		}
	}
	factory, err := kernelFactory(samplerName, model, init)
	if err != nil {
		return KernelMeasurement{}, err
	}
	opt := gibbs.Options{Iterations: 1, Schedule: gibbs.Checkerboard, Workers: 1}
	var runErr error
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gibbs.Run(ctx, model, init, factory, opt, 7); err != nil {
				runErr = err
				b.FailNow()
			}
		}
	})
	if runErr != nil {
		return KernelMeasurement{}, runErr
	}
	allocs, bytes, err := steadyAllocsPerSweep(ctx, cfg, samplerName)
	if err != nil {
		return KernelMeasurement{}, err
	}
	sites := float64(cfg.w * cfg.h)
	nsPerSite := float64(r.NsPerOp()) / sites
	backend := "closure"
	if cfg.compiled {
		backend = "compiled"
	}
	return KernelMeasurement{
		Grid:           fmt.Sprintf("%dx%d", cfg.w, cfg.h),
		Labels:         cfg.m,
		Backend:        backend,
		NsPerSite:      nsPerSite,
		SitesPerSec:    1e9 / nsPerSite,
		AllocsPerSweep: allocs,
		BytesPerSweep:  bytes,
	}, nil
}

// steadyAllocsPerSweep runs a short and a long chain and divides the
// allocation-count delta by the extra sweeps: run setup cancels, so
// the result is the marginal cost of one more sweep (0 for the packed
// kernel path).
func steadyAllocsPerSweep(ctx context.Context, cfg kernelConfig, samplerName string) (allocs, bytes float64, err error) {
	model, init := sweepModel(cfg.w, cfg.h, cfg.m)
	if cfg.compiled {
		if err := model.Compile(); err != nil {
			return 0, 0, err
		}
	}
	factory, err := kernelFactory(samplerName, model, init)
	if err != nil {
		return 0, 0, err
	}
	run := func(iters int) (uint64, uint64, error) {
		opt := gibbs.Options{Iterations: iters, Schedule: gibbs.Checkerboard, Workers: 1}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := gibbs.Run(ctx, model, init, factory, opt, 7); err != nil {
			return 0, 0, err
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, nil
	}
	const short, long = 4, 20
	a1, b1, err := run(short)
	if err != nil {
		return 0, 0, err
	}
	a2, b2, err := run(long)
	if err != nil {
		return 0, 0, err
	}
	extra := float64(long - short)
	// A GC between ReadMemStats calls can re-fill the scratch pool and
	// make the long run allocate marginally *less* than the short one;
	// clamp at zero rather than reporting a negative cost.
	if a2 > a1 {
		allocs = float64(a2-a1) / extra
	}
	if b2 > b1 {
		bytes = float64(b2-b1) / extra
	}
	return allocs, bytes, nil
}

// processRSS returns the current resident set size in bytes, falling
// back to the Go runtime's Sys counter where /proc is unavailable.
func processRSS() uint64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
				fields := strings.Fields(rest)
				if len(fields) >= 1 {
					if kb, err := strconv.ParseUint(fields[0], 10, 64); err == nil {
						return kb << 10
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Sys
}

// RunKernelSuite executes the fixed kernel suite and derives the
// headline ratios. baselineNsPerSite, when positive, is recorded as
// the pre-kernel same-machine reference. samplerName selects a
// registry backend for the sweeps; empty runs the historical default
// (software-gibbs / exact Gibbs).
func RunKernelSuite(ctx context.Context, quick bool, baselineNsPerSite float64, samplerName string) (*KernelReport, error) {
	suite := "full"
	if quick {
		suite = "quick"
	}
	rep := &KernelReport{
		Suite:             suite,
		Schedule:          "checkerboard",
		Workers:           1,
		Sampler:           samplerName,
		GoOS:              runtime.GOOS,
		GoArch:            runtime.GOARCH,
		NumCPU:            runtime.NumCPU(),
		BaselineNsPerSite: baselineNsPerSite,
	}
	for _, cfg := range kernelSuite(quick) {
		meas, err := measureKernel(ctx, cfg, samplerName)
		if err != nil {
			return nil, err
		}
		rep.Results = append(rep.Results, meas)
	}
	accept := fmt.Sprintf("%dx%d", acceptW, acceptH)
	var closure, compiled float64
	for _, r := range rep.Results {
		if r.Grid == accept && r.Labels == acceptM {
			if r.Backend == "closure" {
				closure = r.SitesPerSec
			} else {
				compiled = r.SitesPerSec
			}
		}
	}
	if closure > 0 {
		rep.SpeedupPackedVsClosure = compiled / closure
	}
	if baselineNsPerSite > 0 {
		rep.SpeedupPackedVsBaseline = compiled / (1e9 / baselineNsPerSite)
	}
	rep.RSSBytes = processRSS()
	return rep, nil
}

// WriteKernelReport renders rep as a table on w and, when jsonPath is
// non-empty, writes the JSON artifact.
func WriteKernelReport(w io.Writer, rep *KernelReport, jsonPath string) error {
	samplerName := rep.Sampler
	if samplerName == "" {
		samplerName = "exact Gibbs"
	}
	t := Table{
		Title:  fmt.Sprintf("Kernel suite (%s, %s, %s, %d worker(s))", rep.Suite, samplerName, rep.Schedule, rep.Workers),
		Header: []string{"Grid", "M", "Backend", "ns/site", "sites/sec", "allocs/sweep"},
	}
	for _, r := range rep.Results {
		t.AddRow(r.Grid, fmt.Sprintf("%d", r.Labels), r.Backend,
			fmt.Sprintf("%.1f", r.NsPerSite), fmt.Sprintf("%.0f", r.SitesPerSec),
			fmt.Sprintf("%.1f", r.AllocsPerSweep))
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "packed vs closure (256x256 M=16): %.2fx\n", rep.SpeedupPackedVsClosure)
	if rep.SpeedupPackedVsBaseline > 0 {
		fmt.Fprintf(w, "packed vs pre-kernel baseline (%.1f ns/site): %.2fx\n",
			rep.BaselineNsPerSite, rep.SpeedupPackedVsBaseline)
	}
	fmt.Fprintf(w, "process RSS: %.1f MiB\n", float64(rep.RSSBytes)/(1<<20))
	if jsonPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", jsonPath)
	return nil
}

// LoadKernelReport reads a KernelReport JSON artifact.
func LoadKernelReport(path string) (*KernelReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &KernelReport{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return rep, nil
}

// CompareKernelReports checks new against old configuration by
// configuration and returns the list of regressions:
//
//   - ns/site more than thresholdPct percent worse (assumes both
//     reports come from the same machine — the file-vs-file mode);
//   - steady-state allocs/sweep that grew by more than one allocation
//     (machine-independent).
//
// An empty slice means no regression. Configurations present on only
// one side are skipped: the suite may grow between trees.
func CompareKernelReports(ref, cur *KernelReport, thresholdPct float64) []string {
	type key struct {
		grid    string
		labels  int
		backend string
	}
	olds := make(map[key]KernelMeasurement, len(ref.Results))
	for _, r := range ref.Results {
		olds[key{r.Grid, r.Labels, r.Backend}] = r
	}
	var bad []string
	for _, r := range cur.Results {
		o, ok := olds[key{r.Grid, r.Labels, r.Backend}]
		if !ok {
			continue
		}
		if o.NsPerSite > 0 {
			pct := (r.NsPerSite - o.NsPerSite) / o.NsPerSite * 100
			if pct > thresholdPct {
				bad = append(bad, fmt.Sprintf("%s M=%d %s: ns/site %.1f -> %.1f (+%.1f%% > +%.1f%%)",
					r.Grid, r.Labels, r.Backend, o.NsPerSite, r.NsPerSite, pct, thresholdPct))
			}
		}
		if r.AllocsPerSweep > o.AllocsPerSweep+1 {
			bad = append(bad, fmt.Sprintf("%s M=%d %s: allocs/sweep %.1f -> %.1f",
				r.Grid, r.Labels, r.Backend, o.AllocsPerSweep, r.AllocsPerSweep))
		}
	}
	return bad
}

// GateKernelReport is the CI smoke gate: it re-runs the quick suite on
// the current tree and checks the *machine-portable* invariants of the
// committed reference — the packed-vs-closure speedup ratio (within
// thresholdPct percent) and the packed path's steady-state allocation
// freedom — rather than absolute wall-clock numbers, which do not
// transfer between the benchmark machine and a CI runner.
func GateKernelReport(ctx context.Context, w io.Writer, ref *KernelReport, thresholdPct float64) error {
	rep, err := RunKernelSuite(ctx, true, 0, ref.Sampler)
	if err != nil {
		return err
	}
	if err := WriteKernelReport(w, rep, ""); err != nil {
		return err
	}
	var bad []string
	if ref.SpeedupPackedVsClosure > 0 {
		floor := ref.SpeedupPackedVsClosure * (1 - thresholdPct/100)
		if rep.SpeedupPackedVsClosure < floor {
			bad = append(bad, fmt.Sprintf("packed-vs-closure speedup %.2fx below floor %.2fx (reference %.2fx - %.1f%%)",
				rep.SpeedupPackedVsClosure, floor, ref.SpeedupPackedVsClosure, thresholdPct))
		}
	}
	for _, r := range rep.Results {
		if r.Backend == "compiled" && r.AllocsPerSweep > 1 {
			bad = append(bad, fmt.Sprintf("%s M=%d compiled: %.1f allocs/sweep, want steady-state 0",
				r.Grid, r.Labels, r.AllocsPerSweep))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("kernel bench gate failed:\n  %s", strings.Join(bad, "\n  "))
	}
	fmt.Fprintln(w, "kernel bench gate: OK")
	return nil
}

// sweepGridW x sweepGridH is the acceptance grid of the sweep-engine
// work (exact-Gibbs checkerboard sweeps at 256x256, M=16), shared by
// the checkpoint and observed experiments.
const sweepGridW, sweepGridH = 256, 256

// sweepModel builds the segmentation-shaped synthetic model used by the
// sweep benchmarks: integer energies (so Compile's integer gate
// passes), Potts smoothness, deterministic pseudo-image data.
// Identical to the model of BenchmarkSweep in internal/gibbs.
func sweepModel(w, h, m int) (*mrf.Model, *img.LabelMap) {
	obs := make([]int, w*h)
	for i := range obs {
		obs[i] = (i*37 + (i/w)*11) % 64
	}
	model := &mrf.Model{
		W: w, H: h, M: m, T: 12, LambdaS: 1, LambdaD: 2,
		Singleton: func(x, y, label int) float64 {
			d := obs[y*w+x] - label*4
			if d < 0 {
				d = -d
			}
			return float64(d)
		},
		Doubleton: func(a, b int) float64 {
			if a == b {
				return 0
			}
			return 1
		},
	}
	init := img.NewLabelMap(w, h)
	for i := range init.Labels {
		init.Labels[i] = uint8(obs[i] % m)
	}
	return model, init
}
