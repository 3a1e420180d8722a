package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run: its op counts and every metric it
// measured, including those outside BENCHMARK.json's two lists.
type result struct {
	Workload   string   `json:"workload"`
	Trace      bool     `json:"trace"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Mismatches int      `json:"mismatches"`
	Valid      bool     `json:"valid"`
	Metrics    []metric `json:"metrics"`
}

// serveLayer are the serve workloads' metrics of the server's admission,
// queue, journal, shards and recovery, and of the open loop driving it.
// A batch workload never enters a server and reports each as 0.
var serveLayer = []metric{
	{Name: "slo_met_frac", Unit: "ratio"},
	{Name: "restart_p50_ms", Unit: "ms"},
	{Name: "serve.submit_p50_us", Unit: "us"},
	{Name: "serve.queue_wait_p50_ms", Unit: "ms"},
	{Name: "serve.run_p50_ms", Unit: "ms"},
	{Name: "serve.busy_frac", Unit: "ratio"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio"},
	{Name: "serve.shed", Unit: "count"},
	{Name: "serve.retries", Unit: "count"},
	{Name: "serve.failed", Unit: "count"},
	{Name: "serve.resumed_completed", Unit: "count"},
	{Name: "serve.drain_ms", Unit: "ms"},
	{Name: "serve.recover_ms", Unit: "ms"},
	{Name: "loadgen.lag_p99_ms", Unit: "ms"},
}

func (r *result) add(name string, v float64, unit string) {
	r.Metrics = append(r.Metrics, metric{name, v, unit})
}

func (r *result) get(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// print writes one "workload metric value unit" line per metric.
func (r *result) print(w io.Writer) {
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	fmt.Fprintf(w, "%s attempted %d count\n%s failed %d count\n%s mismatches %d count\n",
		r.Workload, r.Attempted, r.Workload, r.Failed, r.Workload, r.Mismatches)
}

// summaryLine renders the final output line: the run's op counts and
// exactly the metrics of one BENCHMARK.json list, end_to_end on an
// untraced run and per_layer on a traced one.
func (r *result) summaryLine(bf benchmarkFile) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	specs := bf.EndToEnd
	if r.Trace {
		specs = bf.PerLayer
	}
	ms := map[string]value{}
	for _, s := range specs {
		m, ok := r.get(s.Name)
		if !ok {
			return "", fmt.Errorf("%s did not measure %s", r.Workload, s.Name)
		}
		if m.Unit != s.Unit {
			return "", fmt.Errorf("%s: %s is in %s, BENCHMARK.json says %s", r.Workload, s.Name, m.Unit, s.Unit)
		}
		ms[s.Name] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Mismatches == 0, r.Attempted, r.Failed, ms})
	return string(data), err
}

// benchmarkFile is the part of BENCHMARK.json the program reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []bound `json:"per_layer"` // Bound unset
}

func readBenchmark(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// calibration records the constants that shape the offered load.
type calibration struct {
	SteadyRate      float64 `json:"steady_rate_per_s"`
	RestartRate     float64 `json:"restart_rate_per_s"`
	RestartPeriodMS float64 `json:"restart_period_ms"`
	SLOMS           float64 `json:"slo_ms"`
	PollMS          float64 `json:"poll_ms"`
	RestoreSize     int     `json:"restore_size"`
	MotionSize      int     `json:"motion_size"`
	JobSize         int     `json:"job_size"`
	// RefMS is each workload's nominal reference basis and CPU time
	// (workload.refMS, refCPUMS), and RefEvals the size of one CPU
	// reference: they scale every paced time.
	RefMS    map[string][2]float64 `json:"ref_basis_cpu_ms"`
	RefEvals int                   `json:"ref_evals"`
}

// stamp is the environment a result file was measured in.
type stamp struct {
	GoVersion   string      `json:"go_version"`
	GOOS        string      `json:"goos"`
	GOARCH      string      `json:"goarch"`
	NumCPU      int         `json:"nproc"`
	GOMAXPROCS  int         `json:"gomaxprocs"`
	StateFS     string      `json:"state_fs"`
	Seed        uint64      `json:"seed"`
	Calibration calibration `json:"calibration"`
}

func newStamp(dir string, seed uint64, sh shape) stamp {
	st := stamp{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		StateFS:    fsType(dir),
		Seed:       seed,
		Calibration: calibration{
			SteadyRate:      steadyRate,
			RestartRate:     restartRate,
			RestartPeriodMS: float64(sh.restartEvery) / 1e6,
			SLOMS:           sloMS,
			PollMS:          float64(pollEvery) / 1e6,
			RestoreSize:     sh.restoreSize,
			MotionSize:      sh.motionSize,
			JobSize:         sh.jobSize,
			RefMS:           map[string][2]float64{},
			RefEvals:        refEvals,
		},
	}
	for _, w := range workloads {
		st.Calibration.RefMS[w.name] = [2]float64{w.refMS, w.refCPUMS}
	}
	return st
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Stamp   stamp    `json:"stamp"`
	Results []result `json:"results"`
}

func writeResults(path string, rf resultsFile) error {
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (resultsFile, error) {
	var rf resultsFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// fsMagic names the filesystems a state directory is likely to sit on
// (statfs f_type values from linux/magic.h).
var fsMagic = map[uint64]string{
	0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
	0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[uint64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) { return statusMiB("VmHWM:") }

// statusMiB reads one kB-valued field of /proc/self/status in MiB.
func statusMiB(field string) (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", field)
}

// rssMiB reads the process's current resident set (VmRSS).
func rssMiB() (float64, error) { return statusMiB("VmRSS:") }

// percentile returns the q-quantile (0..1) of xs by linear
// interpolation between order statistics; 0 for no samples, such as the
// restart times of a run without restarts.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (its default exclusive
// method), so spreads read the same here as in any external check.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
