package main

import (
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// testShape shrinks every workload so each runs in about a second.
var testShape = shape{
	restoreSize: 48, restoreLabels: 4, restoreSweeps: 10,
	motionSize: 16, motionSweeps: 6,
	jobSize: 12, jobSweeps: 8,
	setupReps: 2, serveSetupReps: 1,
	replayBatch: 2, replayServe: 3,
	restartEvery: 300 * time.Millisecond,
}

func benchmark(t *testing.T) benchmarkFile {
	t.Helper()
	bf, err := readBenchmark(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

func runReduced(t *testing.T, name string, trace bool, tamper func(string) string) *result {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := runWorkload(context.Background(), runConfig{
		workload: w, seed: 3, window: time.Second, trace: trace,
		dir: t.TempDir(), shape: testShape, tamper: tamper,
	})
	if err != nil {
		t.Fatalf("%s trace=%t: %v", name, trace, err)
	}
	return res
}

// TestMetricsMatchBenchmark runs every workload untraced and traced and
// checks that the summary line carries every metric BENCHMARK.json
// names, with its unit.
func TestMetricsMatchBenchmark(t *testing.T) {
	bf := benchmark(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloads)
		}
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bf.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := runReduced(t, w.name, trace, nil)
			line, err := res.summaryLine(bf)
			if err != nil {
				t.Fatal(err)
			}
			var sum struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &sum); err != nil {
				t.Fatalf("%s: summary line %q: %v", w.name, line, err)
			}
			if !sum.Correct || sum.Attempted < 1 || res.Mismatches != 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d mismatches=%d", w.name, trace, sum.Correct, sum.Attempted, res.Mismatches)
			}
			if len(sum.Metrics) != len(want[trace]) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json lists %d", w.name, trace, len(sum.Metrics), len(want[trace]))
			}
			for name, unit := range want[trace] {
				if m, ok := sum.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", w.name, trace, name, m, unit)
				}
			}
		}
	}
}

// TestInputsFollowSeed: the same seed gives the same schedule, job
// specs and batch seeds; another seed gives others.
func TestInputsFollowSeed(t *testing.T) {
	for _, name := range []string{"serve-steady", "serve-restart"} {
		a, err := planServe(name, fullShape, 5, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := planServe(name, fullShape, 5, 10*time.Second)
		c, _ := planServe(name, fullShape, 6, 10*time.Second)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 5 planned twice differs", name)
		}
		if reflect.DeepEqual(a.arrivals, c.arrivals) || reflect.DeepEqual(a.warm, c.warm) {
			t.Errorf("%s: seeds 5 and 6 plan the same inputs", name)
		}
		count := map[string]int{}
		for _, arr := range a.arrivals[:len(a.arrivals)/5*5] {
			count[arr.Spec.App]++
		}
		n := len(a.arrivals) / 5
		if count["segmentation"] != 2*n || count["stereo"] != 2*n || count["motion"] != n {
			t.Errorf("%s: mix %v over %d blocks, want 2/2/1 per block", name, count, n)
		}
	}
	draw := func(seed uint64) (uint64, []uint64) {
		scene, chains := batchSeeds(seed)
		out := make([]uint64, 8)
		for i := range out {
			out[i] = chains.Uint64()
		}
		return scene, out
	}
	s1, c1 := draw(5)
	s2, c2 := draw(5)
	s3, c3 := draw(6)
	if s1 != s2 || !reflect.DeepEqual(c1, c2) {
		t.Error("batch seeds differ for one seed")
	}
	if s1 == s3 || reflect.DeepEqual(c1, c3) {
		t.Error("batch seeds equal for two seeds")
	}
}

// TestCorruptReferenceDetected: a reference digest that does not match
// is counted as a verification failure and makes the summary incorrect.
func TestCorruptReferenceDetected(t *testing.T) {
	bf := benchmark(t)
	corrupt := func(d string) string { return "x" + d[1:] }
	for _, name := range []string{"restore-batch", "serve-steady"} {
		res := runReduced(t, name, false, corrupt)
		if res.Mismatches == 0 {
			t.Errorf("%s: corrupted reference digests not detected", name)
		}
		line, err := res.summaryLine(bf)
		if err != nil {
			t.Fatal(err)
		}
		var sum struct {
			Correct bool `json:"correct"`
		}
		if err := json.Unmarshal([]byte(line), &sum); err != nil || sum.Correct {
			t.Errorf("%s: summary %s reads correct", name, line)
		}
	}
}

// TestSelfTimes checks self time on a hand-built span tree: children
// overlapping each other count once, and a child running past its
// parent is clipped.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", ID: 1, Start: 0, End: 100},
		{Name: "serve.submit", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "serve.run", ID: 3, Parent: 1, Start: 30, End: 60},
		{Name: "serve.labels", ID: 4, Parent: 1, Start: 90, End: 120},
		{Name: "checkpoint.save", ID: 5, Parent: 2, Start: 15, End: 20},
	}
	got := selfTimes(spans)
	want := []int64{40, 25, 30, 30, 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	layers := selfByLayer(spans)
	wantLayers := map[string]float64{"loadgen": 40e-6, "serve": 85e-6, "checkpoint": 5e-6}
	for l, v := range wantLayers {
		if d := layers[l] - v; d > 1e-12 || d < -1e-12 {
			t.Errorf("layer %s self = %v ms, want %v", l, layers[l], v)
		}
	}
}

// TestQuartilesAndVerdict pins the quartile method to Python's
// statistics.quantiles(n=4) and the compare verdicts to the bounds.
func TestQuartilesAndVerdict(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v, want 2.75 8.25", q1, q3)
	}
	base := []float64{100, 101, 99, 100, 102}
	bd := bound{Better: "lower", Bound: 0.1}
	cases := []struct {
		b    []float64
		want string
	}{
		{[]float64{101, 100, 102, 99, 100}, "same"},
		{[]float64{120, 121, 119, 120, 122}, "worse"},
		{[]float64{80, 81, 79, 80, 82}, "better"},
		{[]float64{60, 140, 100, 80, 120}, "unresolved"},
	}
	for _, c := range cases {
		if _, _, v := verdict(base, c.b, bd); v != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.b, v, c.want)
		}
	}
	if _, _, v := verdict(base, []float64{120, 121, 119, 120, 122}, bound{Better: "higher", Bound: 0.1}); v != "better" {
		t.Errorf("higher-is-better verdict = %s, want better", v)
	}
}

// TestStampsMustMatch: results from another seed compare; results from
// another environment or calibration do not.
func TestStampsMustMatch(t *testing.T) {
	dir := t.TempDir()
	a := newStamp(dir, 1, fullShape)
	b := newStamp(dir, 2, fullShape)
	if err := sameEnv(a, b); err != nil {
		t.Errorf("seeds 1 and 2: %v", err)
	}
	b.GOMAXPROCS++
	if sameEnv(a, b) == nil {
		t.Error("GOMAXPROCS differs, stamps accepted")
	}
	c := newStamp(dir, 1, fullShape)
	c.Calibration.RefMS["serve-steady"] = [2]float64{1, 1}
	if sameEnv(a, c) == nil {
		t.Error("reference calibration differs, stamps accepted")
	}
}
